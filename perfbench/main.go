// Command perfbench is the repository's benchmark. It runs one workload
// against in-process thermherdd daemons (server.New, gateway.New,
// replication.New, with journals on disk) over loopback HTTP, checks
// every served result against golden results, reconciles the daemons'
// /metrics accounting, and prints the end-to-end metrics — or, with
// --trace 1, the per-layer metrics and where the median job's time went.
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload sim-heavy --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// The exit code is nonzero on any failed job, golden mismatch or
// accounting mismatch.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupRepeats is how many times a run starts its fleet; setup_s is the
// median. A lone daemon is ready in about half a millisecond, mostly one
// loopback round trip whose wake-ups the host's load moves; a few
// hundred starts damp that (they take 0.1 s for a lone daemon, 1 s for
// the herd, on 2 vCPUs).
const setupRepeats = 201

// Paths relative to the repository root, where the benchmark runs:
// journals and scratch files go under workRoot, which run.sh also uses
// for the build.
var (
	goldenPath = filepath.Join("perfbench", goldenFile)
	workRoot   = ".bench_build"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: sim-heavy, solve-heavy, herd-durable, or all (each in its own process)")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "measurement length in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer measurement")
	makeG := fs.Bool("make-golden", false, "recompute the golden results file and exit")
	sweep := fs.String("sweep", "", "comma-separated open-loop rates to run herd-durable at (capacity sweep)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *makeG {
		if err := makeGolden(goldenPath); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *name == "all" {
		return runAll(out, *seed, *seconds, *traced)
	}
	w := workloadByName(*name)
	if w == nil && *sweep == "" {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		return 2
	}
	gold, err := loadGolden(goldenPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := filepath.Abs(filepath.Join(workRoot, fmt.Sprintf("run-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	printHost(out, dir)
	b := &bench{seed: *seed, dur: time.Duration(*seconds) * time.Second, gold: gold, dir: dir, out: out}
	if *sweep != "" {
		return b.capacitySweep(*sweep)
	}
	b.w = w
	b.jobs = w.Gen(*seed)
	fmt.Fprintf(out, "workload %s seed %d: %d generated jobs, inputs sha256 %s\n  %s\n",
		w.Name, *seed, len(b.jobs), inputDigest(b.jobs), w.Why)

	var rep report
	if *traced == 1 {
		rep, err = b.tracedRun()
	} else {
		rep, err = b.plainRun()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	js, _ := json.Marshal(rep)
	fmt.Fprintln(out, string(js))
	if !rep.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload, each in its own process (this binary with
// the same settings), one after another; it fails if any of them fails.
func runAll(out io.Writer, seed uint64, seconds, traced int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, "--workload", w.Name, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(traced))
		cmd.Stdout, cmd.Stderr = out, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s: %v\n", w.Name, err)
			code = 1
		}
	}
	return code
}

type bench struct {
	w    *Workload
	jobs []Job
	seed uint64
	dur  time.Duration
	gold map[string]*golden
	dir  string
	out  io.Writer
}

// runResult is one measured run against one fleet.
type runResult struct {
	outs   []*Outcome
	warm   []*Outcome // warm-up jobs: checked and counted, not timed
	setupS float64
	wall   float64 // first due to last terminal observation, seconds
	cpuS   float64 // process user+system CPU over the run
	// base and metrics are the fleet's /metrics after the warm-up and
	// after the run.
	base, metrics map[string]any
	// bad lists failures found after the run (accounting identity).
	bad []string
}

func (r *runResult) ok() []*Outcome {
	var ok []*Outcome
	for _, o := range r.outs {
		if o.Failure == "" {
			ok = append(ok, o)
		}
	}
	return ok
}

// delta is how much a /metrics counter grew over the measured jobs.
func (r *runResult) delta(path string) float64 {
	return num(r.metrics, path) - num(r.base, path)
}

func (r *runResult) failures() []string {
	var f []string
	for _, o := range r.outs {
		if o.Failure != "" {
			f = append(f, fmt.Sprintf("job %d: %s", o.Job, o.Failure))
		}
	}
	for _, o := range r.warm {
		if o.Failure != "" {
			f = append(f, "warm-up "+o.Failure)
		}
	}
	return append(f, r.bad...)
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// measure sets a fleet up `setups` times, offers the workload to the
// last one for dur, and reconciles its accounting.
func (b *bench) measure(tag string, dur time.Duration, setups int, rec *recorder) (*runResult, error) {
	f, setupS, err := setUp(b.w, filepath.Join(b.dir, tag), setups, rec)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	r := &runResult{setupS: setupS}
	r.warm = b.warmUp(f.url)
	// Counters read once the warm-up has settled, so per-job ratios of
	// fleet counters cover the measured jobs only.
	if r.base, err = waitIdle(f.url); err != nil {
		r.bad = append(r.bad, err.Error())
	}
	rec.reset()
	d := newLoadClient(b.w, b.jobs[:len(b.jobs)-warmJobs()], b.gold, f.url, runtime.NumCPU(), rec)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	r.outs = d.run(t0, dur)
	if d.exhausted {
		r.bad = append(r.bad, fmt.Sprintf("the run used up all %d jobs of its list before its %v were over: "+
			"the workload's spec space must be widened to measure a program this fast", len(d.jobs), dur))
	}
	last := t0
	for _, o := range r.outs {
		if o.Observed.After(last) {
			last = o.Observed
		}
	}
	r.wall = last.Sub(t0).Seconds()
	r.cpuS = cpuSeconds() - cpu0
	r.metrics, err = reconcile(f.url, r)
	if err != nil {
		r.bad = append(r.bad, err.Error())
	}
	return r, nil
}

// warmJobs is how many jobs the warm-up runs: 2·nproc, taken from the end
// of the job list and kept out of the measured part of it.
func warmJobs() int { return 2 * runtime.NumCPU() }

// warmUp runs the warm-up jobs through the fleet in a closed loop, so
// first-request costs (connections, lazy initialisation) are paid before
// timing starts.
func (b *bench) warmUp(url string) []*Outcome {
	jobs := append([]Job(nil), b.jobs[len(b.jobs)-warmJobs():]...)
	for i := range jobs {
		jobs[i].Due, jobs[i].Repeat = 0, -1
	}
	w := *b.w
	w.Open = false
	return newLoadClient(&w, jobs, b.gold, url, runtime.NumCPU(), nil).run(time.Now(), time.Hour)
}

// fetchMetrics reads the front door's /metrics document.
func fetchMetrics(url string) (map[string]any, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, err
	}
	return doc, nil
}

// num reads a numeric leaf such as "jobs.submitted" from a /metrics doc.
func num(doc map[string]any, path string) float64 {
	var cur any = doc
	for _, p := range strings.Split(path, ".") {
		m, ok := cur.(map[string]any)
		if !ok {
			return 0
		}
		cur = m[p]
	}
	v, _ := cur.(float64)
	return v
}

// waitIdle waits for the fleet to go idle (hedge losers settle after the
// client is done) and returns its /metrics document.
func waitIdle(url string) (map[string]any, error) {
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		doc, err := fetchMetrics(url)
		if err == nil && num(doc, "jobs.running") == 0 && num(doc, "queue.depth") == 0 {
			return doc, nil
		}
		if time.Now().After(deadline) {
			return doc, fmt.Errorf("fleet never went idle (err %v)", err)
		}
	}
}

// reconcile waits for the fleet to go idle after the run and checks the
// accounting identity
// submitted = hits + completed + failed + canceled + rejected + migrated,
// and that every job the client saw done was counted done.
func reconcile(url string, r *runResult) (map[string]any, error) {
	doc, err := waitIdle(url)
	if err != nil {
		return doc, err
	}
	submitted := num(doc, "jobs.submitted")
	settled := num(doc, "cache.hits") + num(doc, "jobs.completed") + num(doc, "jobs.failed") +
		num(doc, "jobs.canceled") + num(doc, "jobs.rejected") + num(doc, "jobs.migrated")
	if submitted != settled {
		return doc, fmt.Errorf("accounting identity broken: submitted %.0f != hits+completed+failed+canceled+rejected+migrated %.0f",
			submitted, settled)
	}
	if done := float64(len(r.ok())); done > num(doc, "cache.hits")+num(doc, "jobs.completed") {
		return doc, fmt.Errorf("client saw %.0f jobs done, fleet counts %.0f hits + %.0f completed",
			done, num(doc, "cache.hits"), num(doc, "jobs.completed"))
	}
	return doc, nil
}

// plainRun is the untraced measurement: the end-to-end metrics.
func (b *bench) plainRun() (report, error) {
	r, err := b.measure("plain", b.dur, setupRepeats, nil)
	if err != nil {
		return report{}, err
	}
	ok := r.ok()
	var lat []float64
	var insts float64
	for _, o := range ok {
		lat = append(lat, ms(o.Latency()))
		if o.Executed() {
			insts += float64(simInsts(b.jobs[o.Job].Spec))
		}
	}
	n := len(lat)
	m := map[string]metric{
		"job_p50_ms":      {quantile(lat, 0.5), "ms"},
		"jobs_per_s":      {float64(n) / r.wall, "1/s"},
		"sim_minst_per_s": {insts / r.wall / 1e6, "Minst/s"},
		"cpu_s_per_job":   {r.cpuS / math.Max(1, float64(n)), "s"},
		"max_rss_mb":      {maxRSSMB(), "MB"},
		"setup_s":         {r.setupS, "s"},
	}
	rep := b.verdict(m, r)
	fmt.Fprintf(b.out, "\n%-16s %12s %-7s %s\n", "metric", "value", "unit", "samples")
	// The tail and the failure share are printed but not reported. On a
	// shared host the tail's run-to-run spread on herd-durable (fsync
	// tails) exceeds any bound the benchmark may set; the traced run
	// reports it as client.tail_ms. The failure share is 0 on a correct
	// program, which no relative bound can hold, and any failure already
	// fails the run.
	fmt.Fprintf(b.out, "%-16s %12.6g %-7s p%g of %d jobs, %d beyond (unbounded)\n", "job_tail_ms",
		quantile(lat, b.w.TailQ), "ms", 100*b.w.TailQ, n, n-int(math.Ceil(b.w.TailQ*float64(n))))
	fmt.Fprintf(b.out, "%-16s %12.6g %-7s %d failed of %d attempted (unbounded)\n", "fail_frac",
		float64(rep.Failed)/math.Max(1, float64(rep.Attempted)), "ratio", rep.Failed, rep.Attempted)
	for _, k := range sortedKeys(m) {
		samples := fmt.Sprintf("%d jobs", n)
		switch k {
		case "setup_s":
			samples = fmt.Sprintf("median of %d set-ups", setupRepeats)
		case "max_rss_mb":
			samples = "process peak"
		}
		fmt.Fprintf(b.out, "%-16s %12.6g %-7s %s\n", k, m[k].Value, m[k].Unit, samples)
	}
	if b.w.Open {
		fmt.Fprintf(b.out, "offered rate %.0f jobs/s (open loop, timed from each job's due time)\n", b.w.Rate)
	}
	return rep, nil
}

// verdict assembles the report; every failure is printed to stderr.
func (b *bench) verdict(m map[string]metric, runs ...*runResult) report {
	rep := report{Correct: true, Metrics: m}
	for _, r := range runs {
		rep.Attempted += len(r.outs) + len(r.warm)
		for _, f := range r.failures() {
			fmt.Fprintln(os.Stderr, "FAIL:", f)
			rep.Failed++
			rep.Correct = false
		}
	}
	if rep.Attempted == 0 {
		rep.Correct = false
	}
	return rep
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile is the linearly interpolated q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func printHost(out io.Writer, dir string) {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				model = strings.TrimSpace(line[strings.Index(line, ":")+1:])
				break
			}
		}
	}
	fmt.Fprintf(out, "host: nproc %d, cpu %q, %s, journal filesystem %s\n",
		runtime.NumCPU(), model, runtime.Version(), fsType(dir))
}

// fsType names the filesystem holding dir, from /proc/mounts (the
// longest mount point that prefixes it).
func fsType(dir string) string {
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (dir == mp || strings.HasPrefix(dir, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}
