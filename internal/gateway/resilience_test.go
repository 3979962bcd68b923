package gateway

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"thermalherd/internal/faultinject"
	"thermalherd/internal/httpjson"
)

// stragglerTarget reports the deterministic FaultStraggler victim.
func (g *Gateway) stragglerTarget() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.lastNode
}

// TestGatewayHedgedSubmitStraggler is the headline resilience property:
// with one backend turned into a deterministic straggler, an
// Idempotency-Key-bearing submit hedges to the ring successor after the
// p95 delay, the hedge wins, and the straggler-bound loser is stopped
// pre-send — the fleet ends the test with exactly one copy of the job.
func TestGatewayHedgedSubmitStraggler(t *testing.T) {
	faults := faultinject.New()
	g, ts, handles := startHerd(t, 3, herdOpts{gw: func(c *Config) {
		c.Hedge = true
		c.Faults = faults
	}})

	// The straggler fault targets the lexically-last ring node.
	if got := g.stragglerTarget(); got != "n2" {
		t.Fatalf("straggler target = %q, want n2", got)
	}
	workload := workloadHomedOn(t, g, "n2")
	hash := quickSpecHash(t, workload)
	expectedHedge := g.ring.Successors(hash, 3)[1]

	// Seed the submit-class estimator so the hedger has a delay; the
	// herd is fast, so 10ms is both realistic and way under the 300ms
	// injected straggle.
	for i := 0; i < hedgeMinSamples; i++ {
		g.hedger.observe(hedgeClassSubmit, 10*time.Millisecond)
	}
	if err := faults.Arm(FaultStraggler+"=delay:300ms", 42); err != nil {
		t.Fatalf("Arm: %v", err)
	}

	st := submitVia(t, ts.URL, quickSpec(workload), map[string]string{"Idempotency-Key": "hedge-1"})
	_, node, _ := splitID(st.ID)
	if node != expectedHedge {
		t.Fatalf("hedged submit landed on %q, want the ring successor %q", node, expectedHedge)
	}
	if got := g.metrics.hedgesFired.Load(); got != 1 {
		t.Fatalf("hedges_fired = %d, want 1", got)
	}
	if got := g.metrics.hedgesWon.Load(); got != 1 {
		t.Fatalf("hedges_won = %d, want 1", got)
	}

	// Let the aborted primary leg drain out of its injected delay, then
	// verify the straggler never saw the submit: the loser was stopped
	// pre-send, so there was nothing to reap either.
	time.Sleep(400 * time.Millisecond)
	faults.Disarm()
	if got := g.metrics.hedgeCancels.Load(); got != 0 {
		t.Fatalf("hedge_cancels = %d, want 0 (loser never hit the wire)", got)
	}
	if got := metricAt(t, fetchMetrics(t, handles[2].ts.URL), "jobs.submitted"); got != 0 {
		t.Fatalf("straggler backend saw %v submissions, want 0", got)
	}
	waitDone(t, ts.URL, st.ID)

	// No duplicates anywhere: the fleet holds exactly one job, and the
	// merged metrics document counts exactly one submission.
	var list ListDoc
	getJSON(t, ts.URL+"/v1/jobs?limit=500", &list)
	if list.Total != 1 || len(list.Jobs) != 1 {
		t.Fatalf("fleet list total=%d jobs=%d, want exactly 1 (no duplicate admission)", list.Total, len(list.Jobs))
	}
	doc := fetchMetrics(t, ts.URL)
	if got := metricAt(t, doc, "jobs.submitted"); got != 1 {
		t.Fatalf("fleet jobs.submitted = %v, want 1", got)
	}
	if got := metricAt(t, doc, "gateway.hedges_won"); got != 1 {
		t.Fatalf("merged gateway.hedges_won = %v, want 1", got)
	}
}

// TestGatewayHedgedReadsNoDoubleCount: with hedging aggressive enough
// to fire on every scatter leg, the merged /metrics document and the
// fleet GET /v1/jobs page still count each backend exactly once — a won
// or wasted hedge never double-counts its node.
func TestGatewayHedgedReadsNoDoubleCount(t *testing.T) {
	faults := faultinject.New()
	g, ts, _ := startHerd(t, 3, herdOpts{gw: func(c *Config) {
		c.Hedge = true
		c.Faults = faults
	}})
	workloads := []string{"bitcount", "mcf", "gzip"}
	ids := make(map[string]bool)
	for _, wl := range workloads {
		st := submitVia(t, ts.URL, quickSpec(wl), nil)
		waitDone(t, ts.URL, st.ID)
		ids[st.ID] = true
	}

	// Seed the read classes fast, then slow every forward past the
	// 5ms-min hedge delay: every read leg hedges.
	for i := 0; i < hedgeMinSamples; i++ {
		g.hedger.observe(hedgeClassScatter, time.Millisecond)
		g.hedger.observe(hedgeClassStatus, time.Millisecond)
	}
	if err := faults.Arm(FaultForward+"=delay:25ms", 7); err != nil {
		t.Fatalf("Arm: %v", err)
	}

	var list ListDoc
	getJSON(t, ts.URL+"/v1/jobs?limit=500", &list)
	if list.Total != len(workloads) || len(list.Jobs) != len(workloads) {
		t.Fatalf("hedged list total=%d jobs=%d, want %d (double-counted a won hedge?)",
			list.Total, len(list.Jobs), len(workloads))
	}
	seen := make(map[string]bool)
	for _, st := range list.Jobs {
		if !ids[st.ID] || seen[st.ID] {
			t.Fatalf("hedged list returned unexpected or repeated id %q", st.ID)
		}
		seen[st.ID] = true
	}

	doc := fetchMetrics(t, ts.URL)
	if got := metricAt(t, doc, "jobs.submitted"); got != float64(len(workloads)) {
		t.Fatalf("hedged merged jobs.submitted = %v, want %d (a backend was merged twice?)", got, len(workloads))
	}
	faults.Disarm()
	if g.metrics.hedgesFired.Load() == 0 {
		t.Fatal("no hedges fired; the test did not exercise the race")
	}
	// Every fired hedge resolved as won or wasted — none leaked.
	fired := g.metrics.hedgesFired.Load()
	if resolved := g.metrics.hedgesWon.Load() + g.metrics.hedgesWasted.Load(); resolved != fired {
		t.Fatalf("hedges fired=%d but resolved=%d", fired, resolved)
	}
}

// scriptedBackend is a minimal backend whose submit behavior each test
// scripts per call; /readyz always reports ready.
type scriptedBackend struct {
	mu      sync.Mutex
	submit  func(n int, w http.ResponseWriter)
	submits int
	ts      *httptest.Server
}

func newScriptedBackend(t *testing.T, submit func(n int, w http.ResponseWriter)) *scriptedBackend {
	t.Helper()
	s := &scriptedBackend{submit: submit}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		httpjson.Write(w, http.StatusOK, readyzDoc{Ready: true})
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		s.submits++
		n := s.submits
		fn := s.submit
		s.mu.Unlock()
		fn(n, w)
	})
	s.ts = httptest.NewServer(mux)
	t.Cleanup(s.ts.Close)
	return s
}

func (s *scriptedBackend) setSubmit(fn func(n int, w http.ResponseWriter)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.submit = fn
}

// TestGatewayRetryAfterHonored: a refusing backend's Retry-After hint
// is slept out (through the clock seam, counted in gw.retry_backoff_ms)
// before the submit fails over to the ring successor.
func TestGatewayRetryAfterHonored(t *testing.T) {
	accept := func(n int, w http.ResponseWriter) {
		httpjson.Write(w, http.StatusAccepted, map[string]any{"id": "job-" + itoa6(n), "state": "queued"})
	}
	refuse := func(n int, w http.ResponseWriter) {
		w.Header().Set("Retry-After", "1")
		httpjson.Error(w, http.StatusServiceUnavailable, "draining")
	}
	// Script both nodes to refuse-with-hint; whichever the spec homes on
	// exercises the backoff, and the successor accepts.
	scripted := []*scriptedBackend{nil, nil}
	backends := make([]Backend, 2)
	for i := range scripted {
		i := i
		scripted[i] = newScriptedBackend(t, func(n int, w http.ResponseWriter) { refuse(n, w) })
		backends[i] = Backend{Name: fmt.Sprintf("n%d", i), URL: scripted[i].ts.URL}
	}
	g, err := New(Config{Backends: backends, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatalf("gateway.New: %v", err)
	}
	ts := httptest.NewServer(g)
	t.Cleanup(func() {
		ts.Close()
		g.Close()
	})

	home := g.ring.Lookup(quickSpecHash(t, "bitcount"))
	for i := range scripted {
		if backends[i].Name != home {
			scripted[i].setSubmit(accept)
		}
	}

	start := time.Now()
	st := submitVia(t, ts.URL, quickSpec("bitcount"), nil)
	elapsed := time.Since(start)
	if _, node, _ := splitID(st.ID); node == home {
		t.Fatalf("submit landed on the refusing home %q", home)
	}
	if elapsed < time.Second {
		t.Fatalf("failover took %v, want >= 1s honoring Retry-After", elapsed)
	}
	if got := g.metrics.retryBackoffMs.Load(); got != 1000 {
		t.Fatalf("retry_backoff_ms = %d, want 1000", got)
	}
	if got := g.metrics.forwardRetries.Load(); got != 1 {
		t.Fatalf("forward_retries = %d, want 1", got)
	}
}

// TestGatewayRetryAfterCapped: an abusive Retry-After hint is clamped
// to retryAfterCap so a misbehaving backend cannot stall the submit
// path indefinitely.
func TestGatewayRetryAfterCapped(t *testing.T) {
	var fr forwardResult
	fr.header = http.Header{}
	fr.header.Set("Retry-After", "3600")
	g, err := New(Config{Backends: []Backend{{Name: "n0", URL: "http://127.0.0.1:1"}}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatalf("gateway.New: %v", err)
	}
	t.Cleanup(g.Close)
	start := time.Now()
	g.sleepRetryAfter(context.Background(), &fr)
	if elapsed := time.Since(start); elapsed > retryAfterCap+time.Second {
		t.Fatalf("sleepRetryAfter slept %v, want <= the %v cap", elapsed, retryAfterCap)
	}
	if got := g.metrics.retryBackoffMs.Load(); got != uint64(retryAfterCap/time.Millisecond) {
		t.Fatalf("retry_backoff_ms = %d, want the capped %d", got, retryAfterCap/time.Millisecond)
	}
}

// TestGatewayHedgeRespectsBudget: with the retry budget drained, the
// hedge timer expiring does not launch a second attempt — amplification
// stays bounded even when every request is slow.
func TestGatewayHedgeRespectsBudget(t *testing.T) {
	faults := faultinject.New()
	g, ts, _ := startHerd(t, 3, herdOpts{gw: func(c *Config) {
		c.Hedge = true
		c.Faults = faults
		c.RetryBudgetRatio = 0.001
		c.RetryBudgetBurst = 0.5 // below one token: nothing to take, ever
	}})
	for i := 0; i < hedgeMinSamples; i++ {
		g.hedger.observe(hedgeClassSubmit, 5*time.Millisecond)
	}
	if err := faults.Arm(FaultStraggler+"=delay:150ms", 42); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	workload := workloadHomedOn(t, g, g.stragglerTarget())
	st := submitVia(t, ts.URL, quickSpec(workload), map[string]string{"Idempotency-Key": "no-budget"})
	faults.Disarm()
	if _, node, _ := splitID(st.ID); node != g.stragglerTarget() {
		t.Fatalf("submit landed on %q; with no budget it must wait out its straggling home %q", node, g.stragglerTarget())
	}
	if got := g.metrics.hedgesFired.Load(); got != 0 {
		t.Fatalf("hedges_fired = %d, want 0 with an empty budget", got)
	}
	if g.metrics.budgetExhausted.Load() == 0 {
		t.Fatal("budget_exhausted never counted the refused hedge")
	}
	waitDone(t, ts.URL, st.ID)
}

// TestBreakerDenialCostsNoRetry: a candidate the breaker refuses is
// never sent, so it must cost nothing — no retry-budget token, no
// forward_retries count, no Retry-After sleep. With every breaker
// forced open, a 2-node submit answers 502 with the budget still full,
// and a hedge leg (which goes through the same admission) is refused
// without spending a token either.
func TestBreakerDenialCostsNoRetry(t *testing.T) {
	faults := faultinject.New()
	g, ts, handles := startHerd(t, 2, herdOpts{gw: func(c *Config) { c.Faults = faults }})
	tokens := func() float64 {
		g.budget.mu.Lock()
		defer g.budget.mu.Unlock()
		return g.budget.tokens
	}
	full := tokens()
	if err := faults.Arm(FaultBreaker+"=error:forced-open", 1); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	resp, raw := postJSON(t, ts.URL+"/v1/jobs", quickSpec("bitcount"), nil)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("submit with every breaker forced open = HTTP %d (%s), want 502", resp.StatusCode, raw)
	}
	if got := g.metrics.forwardRetries.Load(); got != 0 {
		t.Fatalf("forward_retries = %d, want 0: no retry was ever sent", got)
	}
	if got := tokens(); got != full {
		t.Fatalf("retry budget = %v after the refused submit, want it untouched at %v", got, full)
	}
	if got := g.metrics.breakerDenied.Load(); got != 2 {
		t.Fatalf("breaker_denied = %d, want 2 (both candidates)", got)
	}
	if err := g.admit("n1", true); err == nil {
		t.Fatal("forced-open breaker admitted a hedge leg")
	}
	if got := tokens(); got != full {
		t.Fatalf("retry budget = %v after a refused hedge leg, want it untouched at %v", got, full)
	}
	faults.Disarm()
	for _, h := range handles {
		if got := metricAt(t, fetchMetrics(t, h.ts.URL), "jobs.submitted"); got != 0 {
			t.Fatalf("backend %s saw %v submissions, want 0", h.name, got)
		}
	}
}
