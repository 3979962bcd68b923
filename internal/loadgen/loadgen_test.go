package loadgen

import (
	"context"
	"fmt"
	"testing"
	"time"

	"thermalherd/internal/herd"
	"thermalherd/internal/server"
)

// newDaemon hosts a one-node herd (a real daemon; load-test
// simulation depths keep each job in the low milliseconds) for
// in-process full-loop runs and returns its base URL.
func newDaemon(t *testing.T, cfg server.Config) string {
	t.Helper()
	h, err := herd.Start(herd.Config{Nodes: 1, Server: cfg})
	if err != nil {
		t.Fatalf("herd.Start: %v", err)
	}
	t.Cleanup(h.Stop)
	return h.URL
}

// testMix pins tiny depths so full-loop tests measure the service
// path, not the simulator.
func testMix() Mix {
	return Mix{Entries: []MixEntry{{
		Kind:   "timing",
		Config: "TH",
		Depths: server.Depths{FastForward: 2000, Warmup: 500, Measure: 1000},
	}}}
}

func metricsCounter(t *testing.T, doc map[string]any, section, name string) float64 {
	t.Helper()
	sec, ok := doc[section].(map[string]any)
	if !ok {
		t.Fatalf("metrics missing section %q", section)
	}
	v, ok := sec[name].(float64)
	if !ok {
		t.Fatalf("metrics %s missing %q", section, name)
	}
	return v
}

// TestFullLoopConstant drives a fresh daemon with a constant-rate
// schedule and reconciles the client-side report against the server's
// /metrics document.
func TestFullLoopConstant(t *testing.T) {
	url := newDaemon(t, server.Config{Workers: 4, QueueDepth: 256, CacheSize: 256})
	sched, err := Synthesize(ScheduleConfig{Mode: ModeConstant, RPS: 60, Duration: 500 * time.Millisecond, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	specs, err := testMix().SampleSpecs(len(sched), 42)
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(url, 2, 20*time.Millisecond, 1)
	rep, err := Run(context.Background(), RunConfig{
		Client:       client,
		Schedule:     sched,
		Specs:        specs,
		MaxInFlight:  128,
		Timeout:      20 * time.Second,
		PollInterval: 2 * time.Millisecond,
		SLO:          SLO{P95: 15 * time.Second, P99: 20 * time.Second, MaxErrorRate: 0},
		Mode:         ModeConstant,
		Seed:         42,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Internal consistency: every arrival is accounted for exactly once.
	a := rep.Achieved
	if a.Submitted+a.Drops+a.Errors+a.Timeouts != rep.Offered.Arrivals {
		t.Fatalf("submitted %d + drops %d + errors %d + timeouts %d != arrivals %d",
			a.Submitted, a.Drops, a.Errors, a.Timeouts, rep.Offered.Arrivals)
	}
	if a.Done+a.Failed+a.Canceled != a.Submitted {
		t.Fatalf("done %d + failed %d + canceled %d != submitted %d", a.Done, a.Failed, a.Canceled, a.Submitted)
	}
	if a.Errors != 0 || a.Timeouts != 0 || a.Failed != 0 {
		t.Fatalf("clean run saw errors=%d timeouts=%d failed=%d", a.Errors, a.Timeouts, a.Failed)
	}
	if a.Drops != 0 {
		t.Fatalf("in-flight bound 128 over %d arrivals dropped %d", rep.Offered.Arrivals, a.Drops)
	}
	if rep.Latency.Count == 0 || rep.Latency.P95Ms < rep.Latency.P50Ms || rep.Latency.P99Ms < rep.Latency.P95Ms {
		t.Fatalf("implausible latency stats: %+v", rep.Latency)
	}
	if !rep.SLO.Pass {
		t.Fatalf("generous SLO failed: %v", rep.SLO.Violations)
	}

	// Reconcile against the server's own accounting.
	doc, err := client.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := metricsCounter(t, doc, "jobs", "submitted"); got != float64(a.Submitted) {
		t.Fatalf("server submitted = %v, report %d", got, a.Submitted)
	}
	hits := metricsCounter(t, doc, "cache", "hits")
	completed := metricsCounter(t, doc, "jobs", "completed")
	if hits != float64(a.CacheHits) {
		t.Fatalf("server cache hits = %v, report %d", hits, a.CacheHits)
	}
	if hits+completed != float64(a.Done) {
		t.Fatalf("server completed %v + cache hits %v != report done %d", completed, hits, a.Done)
	}
}

// TestFullLoopBurstBatched exercises burst mode with batch submission:
// N arrivals must cost at most ceil(N/batch) submit requests (exactly
// that many when nothing is dropped or retried), and the report must
// still reconcile with /metrics.
func TestFullLoopBurstBatched(t *testing.T) {
	url := newDaemon(t, server.Config{Workers: 4, QueueDepth: 256, CacheSize: 256})
	const batchSize = 8
	sched, err := Synthesize(ScheduleConfig{
		Mode: ModeBurst, RPS: 40, Duration: 600 * time.Millisecond,
		BurstRPS: 300, BurstEvery: 250 * time.Millisecond, BurstLen: 100 * time.Millisecond,
		Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	specs, err := testMix().SampleSpecs(len(sched), 42)
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(url, 0, 20*time.Millisecond, 1)
	rep, err := Run(context.Background(), RunConfig{
		Client:       client,
		Schedule:     sched,
		Specs:        specs,
		MaxInFlight:  256,
		Timeout:      20 * time.Second,
		PollInterval: 2 * time.Millisecond,
		BatchSize:    batchSize,
		SLO:          SLO{MaxErrorRate: 0},
		Mode:         ModeBurst,
		Seed:         42,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := rep.Achieved
	if a.Errors != 0 || a.Timeouts != 0 || a.Drops != 0 || a.Failed != 0 {
		t.Fatalf("clean batched run saw errors=%d timeouts=%d drops=%d failed=%d",
			a.Errors, a.Timeouts, a.Drops, a.Failed)
	}
	n := rep.Offered.Arrivals
	maxReqs := int64((n + batchSize - 1) / batchSize)
	if a.SubmitHTTPRequests > maxReqs {
		t.Fatalf("batched submission used %d HTTP requests for %d arrivals, want <= ceil(%d/%d) = %d",
			a.SubmitHTTPRequests, n, n, batchSize, maxReqs)
	}
	if a.SubmitHTTPRequests != maxReqs {
		t.Fatalf("no-drop batched run used %d submit requests, want exactly %d", a.SubmitHTTPRequests, maxReqs)
	}
	if a.Done != n {
		t.Fatalf("done = %d, want all %d arrivals", a.Done, n)
	}
	if !rep.SLO.Pass {
		t.Fatalf("SLO failed: %v", rep.SLO.Violations)
	}

	doc, err := client.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := metricsCounter(t, doc, "jobs", "submitted"); got != float64(a.Submitted) {
		t.Fatalf("server submitted = %v, report %d", got, a.Submitted)
	}
	if got := metricsCounter(t, doc, "http", "batch_requests"); got != float64(maxReqs) {
		t.Fatalf("server batch_requests = %v, want %d", got, maxReqs)
	}
	hits := metricsCounter(t, doc, "cache", "hits")
	completed := metricsCounter(t, doc, "jobs", "completed")
	if hits+completed != float64(a.Done) {
		t.Fatalf("server completed %v + hits %v != report done %d", completed, hits, a.Done)
	}
}

// TestRunDropsWhenSaturated pins the open-loop contract: with a
// 1-deep in-flight bound and a server that answers slowly relative to
// the arrival gaps, later arrivals are shed, not queued.
func TestRunDropsWhenSaturated(t *testing.T) {
	url := newDaemon(t, server.Config{Workers: 4, QueueDepth: 256, CacheSize: 256})
	sched := make([]time.Duration, 20)
	for i := range sched {
		sched[i] = time.Duration(i) * time.Millisecond
	}
	// Deeper simulations (~tens of ms) so one job far outlives the
	// 1 ms arrival gaps.
	mix := Mix{Entries: []MixEntry{{
		Kind: "timing", Config: "TH",
		Depths: server.Depths{FastForward: 200_000, Warmup: 50_000, Measure: 100_000},
	}}}
	specs, err := mix.SampleSpecs(len(sched), 1)
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(url, 0, 10*time.Millisecond, 1)
	rep, err := Run(context.Background(), RunConfig{
		Client:       client,
		Schedule:     sched,
		Specs:        specs,
		MaxInFlight:  1,
		Timeout:      20 * time.Second,
		PollInterval: time.Millisecond,
		SLO:          SLO{MaxErrorRate: 1},
		Mode:         ModeConstant,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Achieved.Drops == 0 {
		t.Fatalf("saturated open-loop run dropped nothing: %+v", rep.Achieved)
	}
	if rep.Achieved.Submitted+rep.Achieved.Drops != len(sched) {
		t.Fatalf("submitted %d + drops %d != %d arrivals",
			rep.Achieved.Submitted, rep.Achieved.Drops, len(sched))
	}
}

func TestRunConfigValidation(t *testing.T) {
	client := NewClient("http://127.0.0.1:1", 0, time.Millisecond, 1)
	if _, err := Run(context.Background(), RunConfig{Schedule: []time.Duration{0}, Specs: []server.Spec{{}}}); err == nil {
		t.Error("nil client accepted")
	}
	if _, err := Run(context.Background(), RunConfig{Client: client}); err == nil {
		t.Error("empty schedule accepted")
	}
	if _, err := Run(context.Background(), RunConfig{
		Client: client, Schedule: []time.Duration{0, 1}, Specs: []server.Spec{{}},
	}); err == nil {
		t.Error("mismatched schedule/specs accepted")
	}
}

// TestBatchRetryAcrossRestartDedupes is the idempotency acceptance
// test: the same keyed batch, replayed against a restarted journaling
// daemon (as a client would after losing its connection mid-run),
// returns the original job ids and executes nothing twice.
func TestBatchRetryAcrossRestartDedupes(t *testing.T) {
	const n = 6
	dir := t.TempDir()
	cfg := server.Config{Workers: 4, QueueDepth: 64, CacheSize: 64,
		JournalDir: dir, FsyncPolicy: "always"}

	specs := make([]server.Spec, n)
	keys := make([]string, n)
	for i := range specs {
		specs[i] = server.Spec{Kind: "timing", Config: "TH", Workload: "bitcount",
			Depths: server.Depths{FastForward: 2000 + uint64(i), Warmup: 500, Measure: 1000}}
		keys[i] = fmt.Sprintf("lg-7-%d", i)
	}

	h1, err := herd.Start(herd.Config{Nodes: 1, Server: cfg})
	if err != nil {
		t.Fatalf("herd.Start: %v", err)
	}
	c1 := NewClient(h1.URL, 2, 10*time.Millisecond, 1)
	items, err := c1.SubmitBatch(context.Background(), specs, keys, nil)
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	ids := make([]string, n)
	for i, it := range items {
		if it.Status == nil {
			t.Fatalf("batch item %d rejected: %s", i, it.Error)
		}
		ids[i] = it.Status.ID
		deadline := time.Now().Add(20 * time.Second)
		for {
			st, err := c1.JobStatus(context.Background(), ids[i])
			if err != nil {
				t.Fatalf("JobStatus: %v", err)
			}
			if st.State == server.StateDone {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %s", ids[i], st.State)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	h1.Stop()

	// Restart on the same journal; the retried batch must dedupe.
	url2 := newDaemon(t, cfg)
	c2 := NewClient(url2, 2, 10*time.Millisecond, 1)
	items2, err := c2.SubmitBatch(context.Background(), specs, keys, nil)
	if err != nil {
		t.Fatalf("SubmitBatch (retry): %v", err)
	}
	for i, it := range items2 {
		if it.Status == nil {
			t.Fatalf("retried item %d rejected: %s", i, it.Error)
		}
		if it.Status.ID != ids[i] {
			t.Fatalf("retried item %d got job %s, want original %s", i, it.Status.ID, ids[i])
		}
	}
	doc, err := c2.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := metricsCounter(t, doc, "jobs", "deduped"); got != n {
		t.Fatalf("jobs.deduped = %v, want %d", got, n)
	}
	if got := metricsCounter(t, doc, "jobs", "completed"); got != n {
		t.Fatalf("jobs.completed = %v, want %d (replayed, not re-executed)", got, n)
	}
}
