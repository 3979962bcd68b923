package gateway

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"thermalherd/internal/faultinject"
	"thermalherd/internal/server"
	"thermalherd/internal/trace"
)

// workloadRemappingTo finds a suite workload homed on victim whose
// next ring preference is adopter — after the victim's ejection the
// spec's placement (and so a keyed retry of the same submit) lands on
// the node that adopted the victim's journal. Per-spec remapping is
// hash-adjacent, not SuccessorOf, so only such workloads exercise the
// retry-meets-adopted-dedup path deterministically.
func workloadRemappingTo(t *testing.T, g *Gateway, victim, adopter string) string {
	t.Helper()
	for _, p := range trace.Suite() {
		h := quickSpecHash(t, p.Name)
		if g.ring.Lookup(h) != victim {
			continue
		}
		if succ := g.ring.Successors(h, 2); len(succ) > 1 && succ[1] == adopter {
			return p.Name
		}
	}
	t.Fatalf("no suite workload homes on %s and remaps to %s", victim, adopter)
	return ""
}

// TestRingSuccessorOf pins the chain topology: every member has a
// distinct successor, no member is its own successor, and a lone node
// has none. The exact assignments are whatever sha256 says — the
// property that matters is that every gateway and every backend
// derive the same answer from the same membership.
func TestRingSuccessorOf(t *testing.T) {
	r := NewRing(0)
	for _, n := range []string{"a", "b", "c"} {
		r.Add(n)
	}
	seen := map[string]bool{}
	for _, n := range []string{"a", "b", "c"} {
		succ := r.SuccessorOf(n)
		if succ == "" || succ == n {
			t.Fatalf("SuccessorOf(%s) = %q, want a different member", n, succ)
		}
		seen[succ] = true
	}
	if r.SuccessorOf("ghost") != "" {
		t.Fatal("SuccessorOf of a non-member returned a node")
	}
	lone := NewRing(0)
	lone.Add("only")
	if got := lone.SuccessorOf("only"); got != "" {
		t.Fatalf("lone node's successor = %q, want none", got)
	}
}

// TestBreakerProbeSuccessHalfOpenSingleFlight is the regression test
// for the half-open race: a membership probe succeeding while the one
// half-open trial request is still in flight used to close the
// circuit, which let a second request through the half-open state. A
// probe success must not release the trial slot; only the trial's own
// outcome may.
func TestBreakerProbeSuccessHalfOpenSingleFlight(t *testing.T) {
	b := newTestCircuit(1, 5*time.Second)

	b.failure()
	if got := b.n.circuit; got != breakerOpen {
		t.Fatalf("state after threshold failure = %s, want open", got)
	}
	b.fc.Advance(5 * time.Second)
	if !b.allow() {
		t.Fatal("half-open trial not granted after the cooldown")
	}

	// A probe succeeds while the trial is in flight: the circuit must
	// stay half-open with the slot still taken.
	b.n.probeSuccess()
	if got := b.n.circuit; got != breakerHalfOpen {
		t.Fatalf("probe success mid-trial moved state to %s, want half-open", got)
	}
	if b.allow() {
		t.Fatal("second request admitted during the half-open trial")
	}

	// The trial's own success closes the circuit.
	b.n.circuitSuccess()
	if got := b.n.circuit; got != breakerClosed {
		t.Fatalf("state after trial success = %s, want closed", got)
	}
	if !b.allow() {
		t.Fatal("closed breaker denied traffic")
	}

	// Outside a trial window, a probe success closes an open circuit
	// exactly the way a forward success does.
	b.failure()
	b.fc.Advance(5 * time.Second)
	b.n.probeSuccess()
	if got := b.n.circuit; got != breakerClosed {
		t.Fatalf("probe success outside a trial left state %s, want closed", got)
	}
}

// TestGatewayFailoverDedupCounted is the regression test for the
// uncounted failover dedup: a submit whose first attempt dies after
// the backend admitted the job is retried with the same
// Idempotency-Key, the backend answers from its dedup table, and the
// gateway must count that hit (gw.failover_dedup_hits) — the proof
// that the retry did not double-admit.
func TestGatewayFailoverDedupCounted(t *testing.T) {
	real := startBackend(t, "real", nil)
	target, err := url.Parse(real.ts.URL)
	if err != nil {
		t.Fatalf("parse backend url: %v", err)
	}

	// Two proxies front the same backend. The first submit through
	// either one is delivered to the backend and then the client
	// connection is torn down — the gateway sees a transport error on
	// an attempt that actually landed.
	var aborted atomic.Bool
	mkProxy := func() *httptest.Server {
		rp := httputil.NewSingleHostReverseProxy(target)
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" && aborted.CompareAndSwap(false, true) {
				body, _ := io.ReadAll(r.Body)
				req, err := http.NewRequest(http.MethodPost, real.ts.URL+"/v1/jobs", bytes.NewReader(body))
				if err == nil {
					req.Header = r.Header.Clone()
					if resp, derr := http.DefaultClient.Do(req); derr == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
				panic(http.ErrAbortHandler)
			}
			rp.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		return ts
	}
	pa, pb := mkProxy(), mkProxy()

	g, err := New(Config{
		Backends:      []Backend{{Name: "pa", URL: pa.URL}, {Name: "pb", URL: pb.URL}},
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatalf("gateway.New: %v", err)
	}
	g.Start()
	gts := httptest.NewServer(g)
	t.Cleanup(func() {
		gts.Close()
		g.Close()
	})

	st := submitVia(t, gts.URL, quickSpec("gcc"), map[string]string{"Idempotency-Key": "dedup-regression"})
	if st.ID == "" {
		t.Fatal("submit returned no id")
	}
	doc := fetchMetrics(t, gts.URL)
	if got := metricAt(t, doc, "gateway.failover_dedup_hits"); got != 1 {
		t.Fatalf("gateway.failover_dedup_hits = %v, want 1", got)
	}
	if got := metricAt(t, doc, "gateway.forward_retries"); got != 1 {
		t.Fatalf("gateway.forward_retries = %v, want 1", got)
	}
	// The backend holds exactly one copy of the job: dedup, not a
	// double-send, answered the retry.
	var list server.ListResponse
	getJSON(t, real.ts.URL+"/v1/jobs", &list)
	if list.Total != 1 {
		t.Fatalf("backend holds %d jobs after the failover retry, want 1", list.Total)
	}
}

// TestGatewayTakeoverAdoptsDeadNode is the failover acceptance path at
// the gateway layer: a job completes on its home node, the node dies,
// membership marks it down past the takeover deadline, and the ring
// successor — which holds the sync-replicated journal — adopts it. The
// old job id keeps resolving (status and result) through the alias,
// with zero acked loss. Wrapped in a subtest so the goroutine check
// runs after every cleanup: takeover must not leak streamer or
// adoption goroutines.
func TestGatewayTakeoverAdoptsDeadNode(t *testing.T) {
	before := runtime.NumGoroutine()
	t.Run("scenario", func(t *testing.T) {
		g, gts, handles := startHerd(t, 3, herdOpts{repl: true})
		const victim = "n1"
		adopter := g.ring.SuccessorOf(victim)
		workload := workloadRemappingTo(t, g, victim, adopter)
		st := submitVia(t, gts.URL, quickSpec(workload), map[string]string{"Idempotency-Key": "takeover-k1"})
		done := waitDone(t, gts.URL, st.ID)
		if _, node, _ := splitID(done.ID); node != victim {
			t.Fatalf("job homed on %q, expected %q", node, victim)
		}

		for _, h := range handles {
			if h.name == victim {
				h.ts.Close()
			}
		}
		// First failed probe marks the victim down (threshold 1); the
		// second, past the takeover deadline, triggers the takeover.
		g.ProbeNow()
		deadline := time.Now().Add(10 * time.Second)
		for g.aliasCount() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("takeover never installed the alias")
			}
			time.Sleep(10 * time.Millisecond)
			g.ProbeNow()
		}

		// The acked job survived: its old id resolves through the alias
		// to the successor's adopted copy, result included.
		var adopted server.Status
		resp := getJSON(t, gts.URL+"/v1/jobs/"+st.ID, &adopted)
		if resp.StatusCode != http.StatusOK || adopted.State != server.StateDone {
			t.Fatalf("adopted status: HTTP %d state %s, want 200 done", resp.StatusCode, adopted.State)
		}
		if adopted.ID != st.ID {
			t.Fatalf("adopted status id = %q, want the originally acked %q", adopted.ID, st.ID)
		}
		rresp, err := http.Get(gts.URL + "/v1/jobs/" + st.ID + "/result")
		if err != nil {
			t.Fatalf("result fetch: %v", err)
		}
		io.Copy(io.Discard, rresp.Body)
		rresp.Body.Close()
		if rresp.StatusCode != http.StatusOK {
			t.Fatalf("result fetch after takeover: HTTP %d, want 200", rresp.StatusCode)
		}

		// A keyed retry of the original submit must hand back the
		// ORIGINAL acked id. The adopter answers from its dedup table
		// with the adopted local id "<id>@<origin>" — the gateway must
		// not re-suffix that already-qualified form with the serving
		// node ("<id>@<origin>@<adopter>").
		retry := submitVia(t, gts.URL, quickSpec(workload), map[string]string{"Idempotency-Key": "takeover-k1"})
		if retry.ID != st.ID {
			t.Fatalf("keyed retry after takeover returned id %q, want the originally acked %q", retry.ID, st.ID)
		}

		doc := fetchMetrics(t, gts.URL)
		if got := metricAt(t, doc, "gateway.takeovers"); got != 1 {
			t.Fatalf("gateway.takeovers = %v, want 1", got)
		}
		if got := metricAt(t, doc, "gateway.aliases_active"); got != 1 {
			t.Fatalf("gateway.aliases_active = %v, want 1", got)
		}
	})
	waitGoroutinesSettle(t, before)
}

// TestGatewayDrainMigratesQueuedJobs covers proactive herding: with
// takeover armed, the admin drain migrates the node's queued jobs to
// its ring successor immediately — the draining node keeps only its
// running work, and every acked job still reaches done through the
// gateway's migration chase, and runs exactly once fleet-wide: the
// successor adopts only the migrated jobs, not the drainer's running
// ones it also holds in its replica buffer. Also wrapped for goroutine
// hygiene.
func TestGatewayDrainMigratesQueuedJobs(t *testing.T) {
	before := runtime.NumGoroutine()
	t.Run("scenario", func(t *testing.T) {
		const victim = "n0"
		faults := faultinject.New()
		if err := faults.Arm(server.FaultExec+"=delay:800ms", 1); err != nil {
			t.Fatalf("arm exec delay: %v", err)
		}
		_, gts, handles := startHerd(t, 3, herdOpts{repl: true, node: func(name string, cfg *server.Config) {
			if name == victim {
				// Only the drain victim runs slow, so its queue backs up
				// while the successor finishes adopted jobs promptly.
				cfg.Faults = faults
			}
		}})
		var victimURL string
		for _, h := range handles {
			if h.name == victim {
				victimURL = h.ts.URL
			}
		}

		// Five slow jobs straight onto the victim: two start running
		// (stuck in the exec delay), three queue behind them.
		gids := make([]string, 0, 5)
		for i := 0; i < 5; i++ {
			body := fmt.Sprintf(`{"kind":"timing","workload":"gcc","config":"TH","depths":{"fast_forward":200,"warmup":100,"measure":%d}}`, 200+i)
			resp, raw := postJSON(t, victimURL+"/v1/jobs", body, nil)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("victim submit %d: HTTP %d: %s", i, resp.StatusCode, raw)
			}
			var st server.Status
			mustUnmarshal(t, raw, &st)
			gids = append(gids, globalID(st.ID, victim))
		}

		// Drain only once both of the victim's workers hold a job, so
		// exactly three are still queued.
		for deadline := time.Now().Add(10 * time.Second); metricAt(t, fetchMetrics(t, victimURL), "jobs.running") < 2; {
			if time.Now().After(deadline) {
				t.Fatal("the victim never ran two jobs at once")
			}
			time.Sleep(5 * time.Millisecond)
		}

		resp, raw := adminDo(t, http.MethodPost, gts.URL+"/v1/admin/nodes/"+victim+"/drain", testAdminToken, "")
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("drain: HTTP %d: %s", resp.StatusCode, raw)
		}
		var drainDoc map[string]any
		mustUnmarshal(t, raw, &drainDoc)
		if _, ok := drainDoc["migrated_to"]; !ok {
			t.Fatalf("drain reply did not migrate: %s", raw)
		}

		// Every acked job — migrated or still running on the drainer —
		// reaches done through the gateway, under its original id.
		for _, gid := range gids {
			st := waitDone(t, gts.URL, gid)
			if st.ID != gid {
				t.Fatalf("status id = %q, want the originally acked %q", st.ID, gid)
			}
		}
		// Wait until the fleet is idle: nothing queued or running, and
		// every submission (adoptions included) settled.
		var doc map[string]any
		for deadline := time.Now().Add(10 * time.Second); ; {
			doc = fetchMetrics(t, gts.URL)
			if metricAt(t, doc, "queue.depth") == 0 && metricAt(t, doc, "jobs.running") == 0 &&
				metricAt(t, doc, "jobs.submitted") == metricAt(t, doc, "jobs.completed")+metricAt(t, doc, "jobs.migrated") {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("fleet never went idle: %v", doc["jobs"])
			}
			time.Sleep(20 * time.Millisecond)
		}
		if got := metricAt(t, doc, "gateway.migrations"); got != 1 {
			t.Fatalf("gateway.migrations = %v, want 1", got)
		}
		if got := metricAt(t, doc, "jobs.completed"); got != 5 {
			t.Errorf("fleet jobs.completed = %v, want 5 (each acked job once)", got)
		}
		migrated, adopted := metricAt(t, doc, "jobs.migrated"), metricAt(t, doc, "repl.adopted")
		if migrated != 3 || adopted != 3 {
			t.Errorf("fleet jobs.migrated = %v, repl.adopted = %v, want 3 and 3", migrated, adopted)
		}
	})
	waitGoroutinesSettle(t, before)
}

// waitGoroutinesSettle asserts the goroutine count returns to its
// pre-scenario level (plus runtime slack) after all cleanups ran: the
// takeover and migration paths must not leak streamer, adoption, or
// probe goroutines.
func waitGoroutinesSettle(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+8 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: before=%d now=%d\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}
