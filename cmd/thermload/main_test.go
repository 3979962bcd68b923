package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"thermalherd/internal/loadgen"
)

// checkGoroutineLeak asserts the self-hosted fleet wound down: after
// run() returns, the goroutine count must settle back near the pre-run
// baseline. A leaked gateway prober, hedge attempt, admin watcher, or
// journal flusher keeps the count elevated and fails here — the
// runtime-level counterpart of thermlint's static goleak proof.
func checkGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	const slack = 8 // runtime/test machinery and netpoll wiggle room
	deadline := time.Now().Add(5 * time.Second)
	after := runtime.NumGoroutine()
	for after > before+slack && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before+slack {
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("goroutine leak after herd run: before=%d after=%d\n%s", before, after, buf[:n])
	}
}

// TestScheduleDumpByteIdentical is the acceptance determinism check at
// the CLI layer: two `-mode ramp -seed 42` invocations dump
// byte-identical arrival schedules.
func TestScheduleDumpByteIdentical(t *testing.T) {
	dir := t.TempDir()
	dump := func(path string) []byte {
		t.Helper()
		o, err := parseFlags([]string{
			"-mode", "ramp", "-start", "5", "-target", "25", "-step", "5",
			"-slot", "500ms", "-seed", "42",
			"-dry-run", "-schedule-out", path, "-out", "",
		})
		if err != nil {
			t.Fatal(err)
		}
		devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer devnull.Close()
		if _, err := run(context.Background(), o, devnull); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := dump(filepath.Join(dir, "a.txt"))
	b := dump(filepath.Join(dir, "b.txt"))
	if len(a) == 0 {
		t.Fatal("schedule dump is empty")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two -seed 42 ramp runs dumped different schedules")
	}
}

// TestSelfhostSmoke runs a short self-hosted burst end to end and
// checks the report file carries the fields the bench trajectory
// depends on.
func TestSelfhostSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping ~1s self-hosted load run")
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "BENCH_loadgen.json")
	o, err := parseFlags([]string{
		"-selfhost",
		"-mode", "burst", "-rps", "30", "-duration", "800ms",
		"-burst-rps", "150", "-burst-every", "300ms", "-burst-len", "100ms",
		"-seed", "42", "-batch", "4", "-inflight", "128",
		"-timeout", "20s", "-poll", "2ms",
		"-out", out,
	})
	if err != nil {
		t.Fatal(err)
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	rep, err := run(context.Background(), o, devnull)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var onDisk loadgen.Report
	if err := json.Unmarshal(b, &onDisk); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if onDisk.ScheduleSHA256 != rep.ScheduleSHA256 || onDisk.ScheduleSHA256 == "" {
		t.Fatalf("schedule digest mismatch: disk %q vs run %q", onDisk.ScheduleSHA256, rep.ScheduleSHA256)
	}
	if onDisk.Latency.Count == 0 || onDisk.Latency.P99Ms < onDisk.Latency.P50Ms {
		t.Fatalf("implausible latency stats: %+v", onDisk.Latency)
	}
	if onDisk.Achieved.RPS <= 0 || onDisk.Offered.Arrivals == 0 {
		t.Fatalf("implausible throughput stats: %+v", onDisk)
	}
	// Batched submission: at most ceil(N/4) submit requests.
	maxReqs := int64((onDisk.Offered.Arrivals + 3) / 4)
	if onDisk.Achieved.SubmitHTTPRequests > maxReqs+onDisk.Achieved.Retries {
		t.Fatalf("submit requests %d exceed ceil(%d/4)=%d (+%d retries)",
			onDisk.Achieved.SubmitHTTPRequests, onDisk.Offered.Arrivals, maxReqs, onDisk.Achieved.Retries)
	}
}

// TestChaosScenarioSelfhost is the loadgen-side chaos acceptance run:
// a fault-injected self-hosted daemon takes a full schedule with two
// guaranteed executor panics, the generator's report reconciles with
// the daemon's /metrics (run() fails otherwise via -chaos), and the
// injected failures surface as exactly the expected failed jobs.
func TestChaosScenarioSelfhost(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping ~1s self-hosted chaos run")
	}
	o, err := parseFlags([]string{
		"-selfhost", "-chaos",
		"-faults", "job.exec=panic:chaos-scenario,count:2;rescache.put=error:dropped,count:3",
		"-fault-seed", "7", "-stuck-after", "10s",
		"-mode", "constant", "-rps", "40", "-duration", "500ms",
		"-seed", "42", "-inflight", "128",
		"-timeout", "20s", "-poll", "2ms",
		"-slo-errors", "1",
		"-out", "",
	})
	if err != nil {
		t.Fatal(err)
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	rep, err := run(context.Background(), o, devnull)
	if err != nil {
		t.Fatalf("chaos run: %v", err) // includes any chaos-check failure
	}
	// The two injected panics become exactly two failed jobs; the
	// daemon survives them (loadgen.ChaosCheck verified liveness and the
	// accounting identity before run returned).
	if rep.Achieved.Failed != 2 {
		t.Fatalf("failed = %d, want exactly the 2 injected panics", rep.Achieved.Failed)
	}
	if rep.Achieved.Errors != 0 || rep.Achieved.Timeouts != 0 {
		t.Fatalf("chaos run saw transport errors=%d timeouts=%d", rep.Achieved.Errors, rep.Achieved.Timeouts)
	}
	if rep.Achieved.Done == 0 {
		t.Fatal("no jobs completed around the injected faults")
	}
}

// TestSelfhostRejectsHarnessFaultOnOneNode: the selfhost.backend.*
// points act on a herd behind a gateway. Armed on a lone daemon they
// would never fire while the chaos check still passed, so the run is
// refused before any load is sent.
func TestSelfhostRejectsHarnessFaultOnOneNode(t *testing.T) {
	o, err := parseFlags([]string{
		"-selfhost", "-chaos",
		"-faults", "selfhost.backend.kill=error:kill,count:1,delay:200ms",
		"-mode", "constant", "-rps", "5", "-duration", "1s", "-out", "",
	})
	if err != nil {
		t.Fatal(err)
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	rep, err := run(context.Background(), o, devnull)
	if err == nil || !strings.Contains(err.Error(), "selfhost.backend.kill") {
		t.Fatalf("harness fault on a one-node run: err = %v, want a refusal naming the point", err)
	}
	if rep != nil {
		t.Fatalf("refused run still produced a report: %+v", rep)
	}
}

// TestTenantWeightsFlagValidation: a malformed -tenant-weights value is
// rejected at flag parsing.
func TestTenantWeightsFlagValidation(t *testing.T) {
	for _, bad := range []string{"live=0", "live", "=3", "live=x"} {
		if _, err := parseFlags([]string{"-selfhost", "-tenant-weights", bad}); err == nil {
			t.Fatalf("-tenant-weights %q accepted", bad)
		}
	}
	o, err := parseFlags([]string{"-selfhost", "-tenant-weights", "live=4,batch=1"})
	if err != nil {
		t.Fatal(err)
	}
	if w := o.herd.Server.TenantWeights; w["live"] != 4 || w["batch"] != 1 {
		t.Fatalf("weights = %v", w)
	}
}

// TestFaultsRequireSelfhost: arming faults against an external daemon
// is refused outright.
func TestFaultsRequireSelfhost(t *testing.T) {
	o, err := parseFlags([]string{
		"-faults", "job.exec=panic:x", "-mode", "constant", "-rps", "5", "-duration", "1s", "-out", "",
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run(context.Background(), o, os.Stderr); err == nil {
		t.Fatal("-faults without -selfhost accepted")
	}
}

func TestParseFlagsBadMode(t *testing.T) {
	o, err := parseFlags([]string{"-mode", "warp", "-dry-run"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run(context.Background(), o, os.Stderr); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestRunRejectsBadMixFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mix.json")
	if err := os.WriteFile(path, []byte(`{"entries":[{"workload":"doom2016"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	o, err := parseFlags([]string{"-mix", path, "-mode", "constant", "-rps", "5", "-duration", "1s"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := run(ctx, o, os.Stderr); err == nil {
		t.Fatal("mix with unknown workload accepted")
	}
}

// TestResumeFrontierContiguous: the resume frontier advances only over
// a contiguous prefix of settled arrivals — out-of-order acks are
// buffered, sheds settle their index like an ack, and an arrival that
// never settles (an errored submit) pins the frontier so -resume
// replays it instead of silently skipping it.
func TestResumeFrontierContiguous(t *testing.T) {
	state := filepath.Join(t.TempDir(), "state.json")
	o, err := parseFlags([]string{
		"-mode", "constant", "-rps", "10", "-duration", "1s", "-seed", "3",
		"-state", state, "-out", "",
	})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := loadgen.Synthesize(o.sched)
	if err != nil {
		t.Fatal(err)
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	start, onAcked, onShed, err := resumeState(o, sched, devnull)
	if err != nil {
		t.Fatal(err)
	}
	if start != 0 || onAcked == nil || onShed == nil {
		t.Fatalf("fresh state: start=%d onAcked=%v onShed=%v", start, onAcked == nil, onShed == nil)
	}
	lastAcked := func() int {
		t.Helper()
		var st runState
		b, err := os.ReadFile(state)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatalf("state file must always be complete JSON: %v", err)
		}
		return st.LastAcked
	}
	onAcked(0)
	onAcked(1)
	if got := lastAcked(); got != 1 {
		t.Fatalf("contiguous acks 0,1: frontier = %d, want 1", got)
	}
	// Index 2 never settles (its submit errored); later acks buffer
	// without advancing the frontier past the hole.
	onAcked(3)
	onAcked(5)
	onAcked(4)
	if got := lastAcked(); got != 1 {
		t.Fatalf("unsettled index 2 must pin the frontier at 1, got %d", got)
	}
	// A shed is a final disposition: it fills the hole and the buffered
	// acks drain through.
	onShed(2)
	if got := lastAcked(); got != 5 {
		t.Fatalf("after shed fills the hole, frontier = %d, want 5", got)
	}
}

// TestResumeContinuesPartialRun exercises -state/-resume: a finished
// run resumes as a no-op, a rewound state file resumes only the
// unacked tail, and a state file from a different schedule is refused.
func TestResumeContinuesPartialRun(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping ~1s self-hosted resume runs")
	}
	dir := t.TempDir()
	state := filepath.Join(dir, "state.json")
	flags := func(extra ...string) []string {
		base := []string{
			"-selfhost", "-mode", "constant", "-rps", "40", "-duration", "500ms",
			"-seed", "7", "-inflight", "64", "-timeout", "20s", "-poll", "2ms",
			"-out", "", "-state", state,
		}
		return append(base, extra...)
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	mustRun := func(args []string) *loadgen.Report {
		t.Helper()
		o, err := parseFlags(args)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := run(context.Background(), o, devnull)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	rep1 := mustRun(flags())
	if rep1 == nil || rep1.Achieved.Drops != 0 {
		t.Fatalf("first run: %+v", rep1)
	}
	total := rep1.Offered.Arrivals

	var st struct {
		ScheduleSHA256 string `json:"schedule_sha256"`
		LastAcked      int    `json:"last_acked"`
	}
	b, err := os.ReadFile(state)
	if err != nil {
		t.Fatalf("state file: %v", err)
	}
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatalf("state file: %v", err)
	}
	if st.LastAcked != total-1 {
		t.Fatalf("state last_acked = %d, want %d (every arrival acked)", st.LastAcked, total-1)
	}
	if st.ScheduleSHA256 != rep1.ScheduleSHA256 {
		t.Fatalf("state digest %q != report digest %q", st.ScheduleSHA256, rep1.ScheduleSHA256)
	}

	// Resuming a finished run offers nothing and returns no report.
	if rep := mustRun(flags("-resume")); rep != nil {
		t.Fatalf("resume of a finished run produced a report: %+v", rep)
	}

	// Rewind the state to mid-run: the resume drives only the tail.
	st.LastAcked = total/2 - 1
	b, _ = json.Marshal(map[string]any{
		"schedule_sha256": st.ScheduleSHA256, "seed": 7, "mode": "constant",
		"last_acked": st.LastAcked,
	})
	if err := os.WriteFile(state, b, 0o644); err != nil {
		t.Fatal(err)
	}
	rep3 := mustRun(flags("-resume"))
	if rep3 == nil {
		t.Fatal("mid-run resume produced no report")
	}
	wantTail := total - (st.LastAcked + 1)
	if rep3.Achieved.Submitted != wantTail {
		t.Fatalf("resumed run submitted %d arrivals, want the %d-arrival tail",
			rep3.Achieved.Submitted, wantTail)
	}

	// Different rate flags synthesize a different schedule; the stale
	// state file must be refused, not silently skipped past.
	o, err := parseFlags(flags("-resume", "-rps", "50"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run(context.Background(), o, devnull); err == nil ||
		!strings.Contains(err.Error(), "records schedule") {
		t.Fatalf("resume against a different schedule: err = %v, want digest refusal", err)
	}
}

// TestHerdSelfhost drives a full schedule through -nodes 3: three
// in-process backends behind the in-process gateway, all jobs settle,
// and the fleet-wide accounting identity reconciles (-chaos enforces
// it inside run()).
func TestHerdSelfhost(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping ~1s self-hosted herd run")
	}
	o, err := parseFlags([]string{
		"-selfhost", "-nodes", "3", "-chaos",
		"-mode", "constant", "-rps", "40", "-duration", "800ms",
		"-seed", "42", "-inflight", "128",
		"-timeout", "20s", "-poll", "2ms",
		"-out", "",
	})
	if err != nil {
		t.Fatal(err)
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	rep, err := run(context.Background(), o, devnull)
	if err != nil {
		t.Fatalf("herd run: %v", err) // includes the fleet-wide chaos check
	}
	if rep.Achieved.Errors != 0 || rep.Achieved.Timeouts != 0 || rep.Achieved.Failed != 0 {
		t.Fatalf("clean herd run saw errors=%d timeouts=%d failed=%d",
			rep.Achieved.Errors, rep.Achieved.Timeouts, rep.Achieved.Failed)
	}
	if rep.Achieved.Done != int(rep.Offered.Arrivals) {
		t.Fatalf("done=%d, want all %d arrivals", rep.Achieved.Done, rep.Offered.Arrivals)
	}
}

// TestHerdSelfhostBackendKill is the herd chaos acceptance run: a
// backend dies mid-schedule, its shard fails over, no acked job is
// lost, and the fleet-wide accounting identity still balances. The
// generous retry budget absorbs the 503s the dying backend emits
// while membership converges.
func TestHerdSelfhostBackendKill(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping ~2s self-hosted herd kill run")
	}
	o, err := parseFlags([]string{
		"-selfhost", "-nodes", "3", "-chaos",
		"-faults", "selfhost.backend.kill=error:kill,count:1,delay:400ms",
		"-mode", "constant", "-rps", "40", "-duration", "1200ms",
		"-seed", "42", "-inflight", "128",
		"-timeout", "20s", "-poll", "2ms", "-retries", "5",
		"-slo-errors", "1",
		"-out", "",
	})
	if err != nil {
		t.Fatal(err)
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	before := runtime.NumGoroutine()
	rep, err := run(context.Background(), o, devnull)
	if err != nil {
		t.Fatalf("herd kill run: %v", err) // chaos check = zero lost acked jobs
	}
	checkGoroutineLeak(t, before)
	// Every acked job reached a terminal state; canceled jobs (queued on
	// the victim at kill time) are allowed, silent loss is not.
	settled := rep.Achieved.Done + rep.Achieved.Failed + rep.Achieved.Canceled
	acked := int(rep.Offered.Arrivals) - rep.Achieved.Drops - rep.Achieved.Errors - rep.Achieved.Timeouts
	if settled != acked {
		t.Fatalf("settled=%d != acked=%d (done=%d failed=%d canceled=%d drops=%d errors=%d timeouts=%d)",
			settled, acked, rep.Achieved.Done, rep.Achieved.Failed, rep.Achieved.Canceled,
			rep.Achieved.Drops, rep.Achieved.Errors, rep.Achieved.Timeouts)
	}
	if rep.Achieved.Done == 0 {
		t.Fatal("no jobs completed around the backend kill")
	}
}

// TestHerdSelfhostHedged is the straggler acceptance run: one backend
// is slowed 250ms per forward (gw.straggler targets the lexically-last
// node), hedging re-issues the slow attempts to the ring successor,
// and the run still settles cleanly — the chaos check inside run()
// reconciles the gateway's hedge cancels against the fleet's canceled
// count, so a duplicate admission or a leaked loser fails the test.
func TestHerdSelfhostHedged(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping ~2s self-hosted herd hedge run")
	}
	o, err := parseFlags([]string{
		"-selfhost", "-nodes", "3", "-hedge", "-chaos",
		"-faults", "gw.straggler=delay:250ms",
		"-mode", "constant", "-rps", "40", "-duration", "1200ms",
		"-seed", "42", "-inflight", "128",
		"-timeout", "20s", "-poll", "2ms", "-retries", "5",
		"-slo-errors", "1",
		"-out", "",
	})
	if err != nil {
		t.Fatal(err)
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	rep, err := run(context.Background(), o, devnull)
	if err != nil {
		t.Fatalf("herd hedge run: %v", err) // chaos check = no duplicates, cancels reconcile
	}
	settled := rep.Achieved.Done + rep.Achieved.Failed + rep.Achieved.Canceled
	acked := int(rep.Offered.Arrivals) - rep.Achieved.Drops - rep.Achieved.Errors - rep.Achieved.Timeouts
	if settled != acked {
		t.Fatalf("settled=%d != acked=%d (done=%d failed=%d canceled=%d drops=%d errors=%d timeouts=%d)",
			settled, acked, rep.Achieved.Done, rep.Achieved.Failed, rep.Achieved.Canceled,
			rep.Achieved.Drops, rep.Achieved.Errors, rep.Achieved.Timeouts)
	}
	if rep.Achieved.Done == 0 {
		t.Fatal("no jobs completed through the straggling herd")
	}
}

// TestHerdSelfhostResizeJoin: a fourth backend joins mid-run through
// the gateway's admin API, probes to healthy, and takes its ring shard
// live. Adding capacity disturbs nothing: every arrival completes and
// the fleet-wide accounting (which now spans four nodes) reconciles.
func TestHerdSelfhostResizeJoin(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping ~2s self-hosted herd resize run")
	}
	o, err := parseFlags([]string{
		"-selfhost", "-nodes", "3", "-chaos",
		"-faults", "selfhost.backend.join=error:join,count:1,delay:300ms",
		"-mode", "constant", "-rps", "40", "-duration", "1200ms",
		"-seed", "42", "-inflight", "128",
		"-timeout", "20s", "-poll", "2ms", "-retries", "5",
		"-out", "",
	})
	if err != nil {
		t.Fatal(err)
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	before := runtime.NumGoroutine()
	rep, err := run(context.Background(), o, devnull)
	if err != nil {
		t.Fatalf("herd resize run: %v", err) // chaos check spans the joined node
	}
	checkGoroutineLeak(t, before)
	if rep.Achieved.Errors != 0 || rep.Achieved.Timeouts != 0 || rep.Achieved.Failed != 0 {
		t.Fatalf("join run saw errors=%d timeouts=%d failed=%d",
			rep.Achieved.Errors, rep.Achieved.Timeouts, rep.Achieved.Failed)
	}
	if rep.Achieved.Done != int(rep.Offered.Arrivals) {
		t.Fatalf("done=%d, want all %d arrivals (lost a job across the resize)", rep.Achieved.Done, rep.Offered.Arrivals)
	}
}

// TestHerdSelfhostDrain: the last backend is pinned draining mid-run
// through the admin API. The gateway stops placing new work there but
// the backend itself keeps running, so every job it had already
// admitted still completes — a drain loses nothing.
func TestHerdSelfhostDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping ~2s self-hosted herd drain run")
	}
	o, err := parseFlags([]string{
		"-selfhost", "-nodes", "3", "-chaos",
		"-faults", "selfhost.backend.drain=error:drain,count:1,delay:300ms",
		"-mode", "constant", "-rps", "40", "-duration", "1200ms",
		"-seed", "42", "-inflight", "128",
		"-timeout", "20s", "-poll", "2ms", "-retries", "5",
		"-out", "",
	})
	if err != nil {
		t.Fatal(err)
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	before := runtime.NumGoroutine()
	rep, err := run(context.Background(), o, devnull)
	if err != nil {
		t.Fatalf("herd drain run: %v", err)
	}
	checkGoroutineLeak(t, before)
	if rep.Achieved.Errors != 0 || rep.Achieved.Timeouts != 0 || rep.Achieved.Failed != 0 {
		t.Fatalf("drain run saw errors=%d timeouts=%d failed=%d",
			rep.Achieved.Errors, rep.Achieved.Timeouts, rep.Achieved.Failed)
	}
	if rep.Achieved.Done != int(rep.Offered.Arrivals) {
		t.Fatalf("done=%d, want all %d arrivals (a drain must lose nothing)", rep.Achieved.Done, rep.Offered.Arrivals)
	}
}

// TestHerdSelfhostReplKill9 is the failover acceptance run: a 3-node
// herd chained with -repl sync loses a backend to a kill -9 (listener
// torn down, replication silenced, nothing drained) and the gateway's
// takeover adopts the victim's replica journal onto its ring
// successor. The post-run reconciliation re-polls every acked job id
// through the gateway — with a sync ack, zero may be lost — and the
// goroutine count must settle afterwards, proving the takeover and
// adoption machinery (takeover goroutine, adopted-frontier watcher,
// streamer flushers) all wound down.
func TestHerdSelfhostReplKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping ~4s self-hosted failover run")
	}
	o, err := parseFlags([]string{
		"-selfhost", "-nodes", "3", "-repl", "sync", "-chaos",
		"-faults", "selfhost.backend.kill9=error:kill9,count:1,delay:400ms",
		"-mode", "constant", "-rps", "40", "-duration", "1500ms",
		"-seed", "42", "-inflight", "128",
		"-timeout", "20s", "-poll", "2ms", "-retries", "5",
		"-slo-errors", "1",
		"-out", "",
	})
	if err != nil {
		t.Fatal(err)
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	before := runtime.NumGoroutine()
	rep, err := run(context.Background(), o, devnull)
	if err != nil {
		t.Fatalf("failover run: %v", err) // chaos check = zero acked-job loss
	}
	checkGoroutineLeak(t, before)
	if rep.Failover == nil {
		t.Fatal("-repl run produced no failover reconciliation")
	}
	if rep.Failover.Acked == 0 {
		t.Fatal("reconciliation saw no acked jobs")
	}
	if rep.Failover.Lost != 0 {
		t.Fatalf("sync replication lost %d of %d acked jobs across the kill -9",
			rep.Failover.Lost, rep.Failover.Acked)
	}
	if rep.Failover.Resolved < rep.Failover.Acked {
		t.Fatalf("resolved %d < acked %d with zero lost", rep.Failover.Resolved, rep.Failover.Acked)
	}
	if rep.Achieved.Done == 0 {
		t.Fatal("no jobs completed around the kill -9")
	}
}

// TestHerdSelfhostReplDrainMigrate: with replication armed, a drain is
// proactive herding — the gateway migrates the draining backend's
// queued jobs to its ring successor instead of waiting them out. Every
// acked job still reaches a terminal state (the migrated ones on their
// adopter, chased transparently through the gateway), and the herd
// winds down without leaking the migration goroutines.
func TestHerdSelfhostReplDrainMigrate(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping ~4s self-hosted drain-migration run")
	}
	o, err := parseFlags([]string{
		"-selfhost", "-nodes", "3", "-repl", "sync", "-chaos",
		"-faults", "selfhost.backend.drain=error:drain,count:1,delay:300ms",
		"-mode", "constant", "-rps", "40", "-duration", "1200ms",
		"-seed", "42", "-inflight", "128",
		"-timeout", "20s", "-poll", "2ms", "-retries", "5",
		"-slo-errors", "1",
		"-out", "",
	})
	if err != nil {
		t.Fatal(err)
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	before := runtime.NumGoroutine()
	rep, err := run(context.Background(), o, devnull)
	if err != nil {
		t.Fatalf("drain-migration run: %v", err)
	}
	checkGoroutineLeak(t, before)
	if rep.Failover == nil || rep.Failover.Lost != 0 {
		t.Fatalf("drain with migration lost acked jobs: %+v", rep.Failover)
	}
	if rep.Achieved.Done == 0 {
		t.Fatal("no jobs completed across the migrating drain")
	}
}

// TestNodesFlagValidation: -nodes below 1 or without -selfhost is
// rejected at flag parsing, as are -hedge and -repl without a herd to
// span.
func TestNodesFlagValidation(t *testing.T) {
	if _, err := parseFlags([]string{"-nodes", "0"}); err == nil {
		t.Fatal("-nodes 0 accepted")
	}
	if _, err := parseFlags([]string{"-nodes", "3"}); err == nil {
		t.Fatal("-nodes 3 without -selfhost accepted")
	}
	if _, err := parseFlags([]string{"-selfhost", "-nodes", "3"}); err != nil {
		t.Fatalf("-selfhost -nodes 3 rejected: %v", err)
	}
	if _, err := parseFlags([]string{"-selfhost", "-hedge"}); err == nil {
		t.Fatal("-hedge on a single node accepted")
	}
	if _, err := parseFlags([]string{"-selfhost", "-nodes", "2", "-hedge"}); err != nil {
		t.Fatalf("-selfhost -nodes 2 -hedge rejected: %v", err)
	}
	if _, err := parseFlags([]string{"-selfhost", "-repl", "sync"}); err == nil {
		t.Fatal("-repl on a single node accepted")
	}
	if _, err := parseFlags([]string{"-selfhost", "-nodes", "2", "-repl", "paxos"}); err == nil {
		t.Fatal("unknown -repl policy accepted")
	}
	if _, err := parseFlags([]string{"-selfhost", "-nodes", "2", "-repl", "sync"}); err != nil {
		t.Fatalf("-selfhost -nodes 2 -repl sync rejected: %v", err)
	}
}
