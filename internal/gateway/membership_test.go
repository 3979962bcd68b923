package gateway

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"thermalherd/internal/clock"
	"thermalherd/internal/faultinject"
	"thermalherd/internal/httpjson"
)

// fakeBackend is a scriptable /readyz (and submit) endpoint for
// membership and routing tests.
type fakeBackend struct {
	mu      sync.Mutex
	ready   bool
	reason  string
	since   string
	submits int
	ts      *httptest.Server
}

func newFakeBackend(t *testing.T) *fakeBackend {
	t.Helper()
	f := &fakeBackend{ready: true}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		doc := readyzDoc{Ready: f.ready, Reason: f.reason, Since: f.since}
		f.mu.Unlock()
		code := http.StatusOK
		if !doc.Ready {
			code = http.StatusServiceUnavailable
		}
		httpjson.Write(w, code, doc)
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.submits++
		n := f.submits
		f.mu.Unlock()
		httpjson.Write(w, http.StatusAccepted, map[string]any{"id": "job-" + itoa6(n), "state": "queued"})
	})
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

func itoa6(n int) string {
	const digits = "0123456789"
	buf := []byte{'0', '0', '0', '0', '0', '0'}
	for i := 5; i >= 0 && n > 0; i-- {
		buf[i] = digits[n%10]
		n /= 10
	}
	return string(buf)
}

func (f *fakeBackend) set(ready bool, reason, since string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ready, f.reason, f.since = ready, reason, since
}

func (f *fakeBackend) submitCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.submits
}

// probeGateway builds a gateway whose prober only runs when the test
// calls ProbeNow (or Start); unset probe timeouts default to 1s.
func probeGateway(t *testing.T, cfg Config) *Gateway {
	t.Helper()
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = time.Hour
	}
	if cfg.ProbeTimeout == 0 {
		cfg.ProbeTimeout = time.Second
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatalf("gateway.New: %v", err)
	}
	t.Cleanup(g.Close)
	return g
}

// TestMembershipClassification: each structured /readyz reason maps to
// its membership state, and routability follows.
func TestMembershipClassification(t *testing.T) {
	cases := []struct {
		name     string
		ready    bool
		reason   string
		want     NodeState
		routable bool
	}{
		{"ready", true, "", NodeHealthy, true},
		{"brownout", false, "brownout", NodeBrownout, true},
		{"draining", false, "draining", NodeDraining, false},
		{"recovering", false, "recovering", NodeRecovering, false},
		{"unknown-reason", false, "weird", NodeDown, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newFakeBackend(t)
			f.set(tc.ready, tc.reason, "")
			m := probeGateway(t, Config{Backends: []Backend{{Name: "n0", URL: f.ts.URL}}})
			m.ProbeNow()
			if got := m.stateOf("n0"); got != tc.want {
				t.Fatalf("state after probe = %s, want %s", got, tc.want)
			}
			if got := m.stateOf("n0").routable(); got != tc.routable {
				t.Fatalf("routable() = %v, want %v", got, tc.routable)
			}
		})
	}
}

// TestMembershipDownAfterThreshold: a dead backend is ejected only
// after the configured number of consecutive probe failures, and one
// successful probe restores it.
func TestMembershipDownAfterThreshold(t *testing.T) {
	f := newFakeBackend(t)
	// The backend hangs up on every request until it is revived.
	var dead atomic.Bool
	dead.Store(true)
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if dead.Load() {
			panic(http.ErrAbortHandler)
		}
		f.ts.Config.Handler.ServeHTTP(w, r)
	}))
	t.Cleanup(flaky.Close)
	m := probeGateway(t, Config{Backends: []Backend{{Name: "n0", URL: flaky.URL}},
		ProbeTimeout: 200 * time.Millisecond, FailThreshold: 3})

	for i := 1; i <= 2; i++ {
		m.ProbeNow()
		if got := m.stateOf("n0"); got != NodeHealthy {
			t.Fatalf("after %d failures state = %s, want still healthy (threshold 3)", i, got)
		}
	}
	m.ProbeNow()
	if got := m.stateOf("n0"); got != NodeDown {
		t.Fatalf("after 3 failures state = %s, want down", got)
	}
	snap := m.Backends()
	if len(snap) != 1 || snap[0].ConsecutiveFailures != 3 || snap[0].LastError == "" {
		t.Fatalf("snapshot = %+v, want 3 consecutive failures with a last error", snap)
	}

	// Revive the backend: one good probe restores it.
	dead.Store(false)
	m.ProbeNow()
	if got := m.stateOf("n0"); got != NodeHealthy {
		t.Fatalf("after recovery probe state = %s, want healthy", got)
	}
}

// TestMembershipSincePreferred: the backend's own "since" timestamp
// wins over the gateway-observed transition time — it survives gateway
// restarts and distinguishes freshly-browning from long-unready.
func TestMembershipSincePreferred(t *testing.T) {
	f := newFakeBackend(t)
	reported := "2026-08-08T01:02:03.000000004Z"
	f.set(false, "brownout", reported)
	m := probeGateway(t, Config{Backends: []Backend{{Name: "n0", URL: f.ts.URL}}})
	m.ProbeNow()
	snap := m.Backends()
	if len(snap) != 1 || snap[0].State != NodeBrownout {
		t.Fatalf("snapshot = %+v, want one brownout node", snap)
	}
	got, err := time.Parse(time.RFC3339Nano, snap[0].Since)
	if err != nil {
		t.Fatalf("snapshot since %q does not parse: %v", snap[0].Since, err)
	}
	want, _ := time.Parse(time.RFC3339Nano, reported)
	if !got.Equal(want) {
		t.Fatalf("since = %s, want the backend-reported %s", got, want)
	}
}

// TestMembershipProbeFault: the gw.probe fault point fails probes
// without touching the backend — threshold failures eject it.
func TestMembershipProbeFault(t *testing.T) {
	f := newFakeBackend(t)
	faults := faultinject.New()
	if err := faults.Arm(FaultProbe+"=error:probe chaos", 1); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	m := probeGateway(t, Config{Backends: []Backend{{Name: "n0", URL: f.ts.URL}}, Faults: faults, FailThreshold: 2})
	m.ProbeNow()
	m.ProbeNow()
	if got := m.stateOf("n0"); got != NodeDown {
		t.Fatalf("state under probe fault = %s, want down", got)
	}
}

// TestMembershipSplitBrainFault: gw.splitbrain discards successful
// probe responses, so this gateway's view diverges from the backend's
// actual (healthy) state.
func TestMembershipSplitBrainFault(t *testing.T) {
	f := newFakeBackend(t)
	faults := faultinject.New()
	if err := faults.Arm(FaultSplitBrain+"=error:split brain", 1); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	m := probeGateway(t, Config{Backends: []Backend{{Name: "n0", URL: f.ts.URL}}, Faults: faults, FailThreshold: 2})
	m.ProbeNow()
	m.ProbeNow()
	if got := m.stateOf("n0"); got != NodeDown {
		t.Fatalf("state under split-brain fault = %s, want down (view diverged)", got)
	}
	// The backend itself is fine; disarming heals the divergence.
	faults.Disarm()
	m.ProbeNow()
	if got := m.stateOf("n0"); got != NodeHealthy {
		t.Fatalf("state after disarm = %s, want healthy", got)
	}
}

// TestMembershipFlapDamping: a backend oscillating between healthy and
// down is held NodeSuspect for the flap cooldown instead of re-entering
// rotation on every good probe, and a node that has served its cooldown
// re-enters with a clean flip history. Runs entirely on a fake clock.
func TestMembershipFlapDamping(t *testing.T) {
	f := newFakeBackend(t)
	fc := clock.NewFake(time.Unix(1_700_000_000, 0))
	m := probeGateway(t, Config{Backends: []Backend{{Name: "n0", URL: f.ts.URL}}, Clock: fc})

	// flip scripts the backend's /readyz and probes once; an unknown
	// not-ready reason classifies as down without waiting out the
	// consecutive-failure threshold.
	flip := func(ready bool) {
		reason := ""
		if !ready {
			reason = "weird"
		}
		f.set(ready, reason, "")
		m.ProbeNow()
	}

	flip(false) // routable -> down: flip 1
	flip(true)  // down -> healthy: flip 2
	if got := m.stateOf("n0"); got != NodeHealthy {
		t.Fatalf("state after two flips = %s, want still healthy (damping threshold 3)", got)
	}
	flip(false) // healthy -> down: flip 3 arms the cooldown
	if got := m.stateOf("n0"); got != NodeDown {
		t.Fatalf("state after third flip = %s, want down", got)
	}

	// Good probes inside the cooldown park the node in suspect instead
	// of letting it re-enter rotation.
	flip(true)
	if got := m.stateOf("n0"); got != NodeSuspect {
		t.Fatalf("state on re-entry inside cooldown = %s, want suspect", got)
	}
	if m.stateOf("n0").routable() {
		t.Fatal("suspect node reports routable")
	}
	fc.Advance(2 * time.Second) // still inside the 5s cooldown
	flip(true)
	if got := m.stateOf("n0"); got != NodeSuspect {
		t.Fatalf("state mid-cooldown = %s, want still suspect", got)
	}

	// Cooldown served: the next good probe restores the node...
	fc.Advance(4 * time.Second)
	flip(true)
	if got := m.stateOf("n0"); got != NodeHealthy {
		t.Fatalf("state after cooldown = %s, want healthy", got)
	}
	// ...with a clean history: one fresh bounce is not an instant
	// re-suspect.
	flip(false)
	flip(true)
	if got := m.stateOf("n0"); got != NodeHealthy {
		t.Fatalf("state after one post-cooldown bounce = %s, want healthy (history was reset)", got)
	}
}

// TestMembershipDrainPin: an admin drain pin overrides healthy probe
// results until the node is re-added.
func TestMembershipDrainPin(t *testing.T) {
	f := newFakeBackend(t)
	m := probeGateway(t, Config{Backends: []Backend{{Name: "n0", URL: f.ts.URL}}})
	if _, ok := m.pinDrain("n0"); !ok {
		t.Fatal("pinDrain refused a known node")
	}
	if got := m.stateOf("n0"); got != NodeDraining {
		t.Fatalf("state after pin = %s, want draining", got)
	}
	m.ProbeNow() // backend still answers healthy
	if got := m.stateOf("n0"); got != NodeDraining {
		t.Fatalf("healthy probe unpinned the drain: state = %s", got)
	}
	if _, ok := m.pinDrain("ghost"); ok {
		t.Fatal("pinDrain accepted an unknown node")
	}
	// Removing and re-adding resets the record, clearing the pin.
	m.leave("n0", "")
	if _, err := m.join(Backend{Name: "n0", URL: f.ts.URL}, NodeJoining); err != nil {
		t.Fatalf("re-add: %v", err)
	}
	m.ProbeNow()
	if got := m.stateOf("n0"); got != NodeHealthy {
		t.Fatalf("state after re-add + probe = %s, want healthy", got)
	}
}

// TestMembershipRunLoop: the probe loop ticks on the clock seam and
// close() terminates it.
func TestMembershipRunLoop(t *testing.T) {
	f := newFakeBackend(t)
	f.set(false, "draining", "")
	fc := clock.NewFake(time.Unix(1_700_000_000, 0))
	m := probeGateway(t, Config{Backends: []Backend{{Name: "n0", URL: f.ts.URL}}, Clock: fc, ProbeInterval: time.Second})
	m.Start()
	deadline := time.Now().Add(5 * time.Second)
	for m.stateOf("n0") != NodeDraining {
		fc.Advance(time.Second)
		if time.Now().After(deadline) {
			t.Fatal("probe loop never classified the backend as draining")
		}
		time.Sleep(time.Millisecond)
	}
	m.Close()
}
