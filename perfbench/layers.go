package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"thermalherd/internal/config"
	"thermalherd/internal/cpu"
	"thermalherd/internal/floorplan"
	"thermalherd/internal/gateway"
	"thermalherd/internal/journal"
	"thermalherd/internal/power"
	"thermalherd/internal/replication"
	"thermalherd/internal/server"
	"thermalherd/internal/thermal"
	"thermalherd/internal/trace"
)

// simReplay times one simulation through cpu.New, FastForward, Warmup
// and Run.
type simReplay struct {
	New, FF, Cycle time.Duration
	Stats          *cpu.Stats
}

// thermReplay times one thermal job's power.Compute and its
// thermal.Build* plus Solve.
type thermReplay struct {
	Power, Solve time.Duration
	Iters        int
	Stacked      bool
}

// replay is the layer-by-layer re-execution of a run's first distinct
// simulations (and their thermal solves).
type replay struct {
	Sims  map[simKey]*simReplay
	Therm map[string]*thermReplay // by spec key
	// Insts split into fast-forwarded and cycle-simulated (warm-up plus
	// measured) instructions over all replayed simulations.
	FFInsts, CycleInsts uint64
	// Mallocs and Bytes allocated during the cpu pass.
	Mallocs, Bytes uint64
}

// thermalProbes is how many power+thermal probes replayLayers times for
// a workload without thermal jobs.
const thermalProbes = 24

// replayLayers re-executes the first limit distinct simulations of jobs
// (in list order) on `workers` goroutines: a cpu pass, then a power and
// thermal pass over the thermal specs whose simulation was replayed.
func replayLayers(jobs []Job, limit, workers int) (*replay, error) {
	rp := &replay{Sims: map[simKey]*simReplay{}, Therm: map[string]*thermReplay{}}
	var keys []simKey
	var thermSpecs []server.Spec
	for _, j := range jobs {
		k := simKeyOf(j.Spec)
		if _, ok := rp.Sims[k]; !ok {
			if len(keys) == limit {
				continue
			}
			rp.Sims[k] = nil
			keys = append(keys, k)
		}
		if j.Spec.Kind == server.KindThermal {
			if _, ok := rp.Therm[specKey(j.Spec)]; !ok {
				rp.Therm[specKey(j.Spec)] = nil
				thermSpecs = append(thermSpecs, j.Spec)
			}
		}
	}
	for _, k := range keys {
		rp.FFInsts += k.FF
		rp.CycleInsts += k.Warm + k.Meas
	}
	// A workload with no thermal jobs still gets its power and thermal
	// layers timed: on its first simulations at the default grid, as
	// probes no job of the workload pays for.
	if len(thermSpecs) == 0 {
		for _, k := range keys[:min(thermalProbes, len(keys))] {
			d := server.Depths{Preset: "quick", FastForward: k.FF, Warmup: k.Warm, Measure: k.Meas}
			thermSpecs = append(thermSpecs, thermalSpec(k.Workload, k.Config, d, thermal.DefaultGrid))
		}
	}

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	sims := make([]*simReplay, len(keys))
	err := parallel(len(keys), workers, func(i int) error {
		var err error
		sims[i], err = replaySim(keys[i])
		return err
	})
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return nil, err
	}
	rp.Mallocs, rp.Bytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
	for i, k := range keys {
		rp.Sims[k] = sims[i]
	}

	therms := make([]*thermReplay, len(thermSpecs))
	err = parallel(len(thermSpecs), workers, func(i int) error {
		var err error
		therms[i], err = replayThermal(thermSpecs[i], rp.Sims[simKeyOf(thermSpecs[i])].Stats)
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, s := range thermSpecs {
		rp.Therm[specKey(s)] = therms[i]
	}
	return rp, nil
}

// parallel runs f(0..n-1) on `workers` goroutines and returns the first
// error.
func parallel(n, workers int, f func(i int) error) error {
	var mu sync.Mutex
	var first error
	next := make(chan int)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := f(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return first
}

func replaySim(k simKey) (*simReplay, error) {
	cfg, err := config.ByName(k.Config)
	if err != nil {
		return nil, err
	}
	prof, err := trace.ProfileByName(k.Workload)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	c, err := cpu.New(cfg, trace.NewGenerator(prof))
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	c.FastForward(k.FF)
	t2 := time.Now()
	c.Warmup(k.Warm)
	s := c.Run(k.Meas)
	t3 := time.Now()
	return &simReplay{New: t1.Sub(t0), FF: t2.Sub(t1), Cycle: t3.Sub(t2), Stats: s}, nil
}

func replayThermal(spec server.Spec, s *cpu.Stats) (*thermReplay, error) {
	cfg, err := config.ByName(spec.Config)
	if err != nil {
		return nil, err
	}
	fp, build := floorplan.Planar(), thermal.BuildPlanar
	if cfg.ThreeD {
		fp, build = floorplan.Stacked(), thermal.BuildStacked
	}
	grid := depthOptions(spec.Depths).Grid
	t0 := time.Now()
	b, err := power.Compute(cfg, s, fp)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	watts := func(u floorplan.Unit) float64 {
		return b.UnitW[power.UnitKey{Block: u.Block, Core: u.Core, Die: u.Die}]
	}
	stack, err := build(fp, watts, grid, grid)
	if err != nil {
		return nil, err
	}
	sol, err := stack.Solve()
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	return &thermReplay{Power: t1.Sub(t0), Solve: t2.Sub(t1), Iters: sol.Iterations, Stacked: cfg.ThreeD}, nil
}

// jobEvents rebuilds the journal events one executed job produces
// (accepted, started, completed), padded to the run's spec and result
// sizes.
func jobEvents(id string, spec server.Spec, resultBytes int) []journal.Event {
	raw, _ := json.Marshal(spec)
	if resultBytes < 2 {
		resultBytes = 2
	}
	result := json.RawMessage(`"` + strings.Repeat("r", resultBytes-2) + `"`)
	return []journal.Event{
		{Type: journal.EventAccepted, ID: id, Spec: raw, Key: specKey(spec)},
		{Type: journal.EventStarted, ID: id},
		{Type: journal.EventCompleted, ID: id, Result: result},
	}
}

// replayJournal appends events to a fresh fsync-always journal under
// dir and returns each append's duration.
func replayJournal(dir string, events []journal.Event) ([]float64, error) {
	defer os.RemoveAll(dir)
	j, _, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncAlways})
	if err != nil {
		return nil, err
	}
	defer j.Close()
	var us []float64
	for _, ev := range events {
		t0 := time.Now()
		if err := j.Append(ev); err != nil {
			return nil, err
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return us, nil
}

// replayReplication sends events through a sync Streamer to a live
// journaled backend and returns each Replicate's duration.
func replayReplication(dir string, events []journal.Event) ([]float64, error) {
	defer os.RemoveAll(dir)
	succ, err := startBackend("succ", filepath.Join(dir, "succ"), nil, nil)
	if err != nil {
		return nil, err
	}
	defer func() {
		drainNow(succ.srv)
		succ.hs.Close()
	}()
	st, err := replication.New(replication.Options{
		Policy: replication.PolicySync,
		Origin: "origin",
		Target: func() (string, string) { return "succ", succ.url },
	})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	var us []float64
	for _, ev := range events {
		t0 := time.Now()
		if err := st.Replicate(ev); err != nil {
			return nil, err
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return us, nil
}

// noopBackend answers the gateway's probe and a fixed job status with
// no work behind them.
func noopBackend() http.Handler {
	since := time.Now().UTC().Format(time.RFC3339Nano)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"ready":true,"since":%q}`, since)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"id":%q,"kind":"timing","state":"done","progress":{"completed":1,"total":1},"submitted_at":%q}`,
			r.PathValue("id"), since)
	})
	return mux
}

// gatewayHop is the no-op gateway replay: round trips of status reads
// straight to a no-op backend and through gateway.New to it (µs), and
// the gateway's self time on each read through it (ms).
type gatewayHop struct {
	Direct, ViaGW, SelfMs []float64
}

// gatewayOverhead measures what one gateway hop adds to a status read:
// n reads alternate between a no-op backend directly and the same
// backend behind gateway.New, both recorded as spans.
func gatewayOverhead(n int) (*gatewayHop, error) {
	rec := &recorder{}
	nhs, nurl, err := serve(rec.wrap("nop", noopBackend()))
	if err != nil {
		return nil, err
	}
	defer nhs.Close()
	gw, err := gateway.New(gateway.Config{
		Backends:      []gateway.Backend{{Name: "nop", URL: nurl}},
		ProbeInterval: 250 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	gw.Start()
	defer gw.Close()
	ghs, gurl, err := serve(rec.wrap("gw", gw))
	if err != nil {
		return nil, err
	}
	defer ghs.Close()
	for deadline := time.Now().Add(5 * time.Second); !allProbedHealthy(gw); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("no-op backend never probed healthy")
		}
	}
	client := &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	get := func(url string) (float64, error) {
		t0 := time.Now()
		resp, err := client.Get(url)
		if err != nil {
			return 0, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
		}
		return float64(time.Since(t0).Nanoseconds()) / 1e3, err
	}
	hop := &gatewayHop{}
	for i := 0; i < n; i++ {
		d, err := get(nurl + "/v1/jobs/job-1")
		if err != nil {
			return nil, err
		}
		g, err := get(gurl + "/v1/jobs/job-1@nop")
		if err != nil {
			return nil, err
		}
		hop.Direct, hop.ViaGW = append(hop.Direct, d), append(hop.ViaGW, g)
	}
	ix := indexSpans(rec.all())
	for _, gs := range ix[[3]string{"gw", "status", "job-1@nop"}] {
		hop.SelfMs = append(hop.SelfMs, ms(selfTime(gs, ix.children(gs, "nop", "job-1"))))
	}
	return hop, nil
}
