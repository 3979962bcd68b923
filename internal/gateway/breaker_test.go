package gateway

import (
	"testing"
	"time"

	"thermalherd/internal/clock"
	"thermalherd/internal/faultinject"
)

// testCircuit drives one node record's circuit on a fake clock with the
// given threshold and cooldown, counting the times it opens.
type testCircuit struct {
	n         *node
	fc        *clock.Fake
	threshold int
	cooldown  time.Duration
	opens     int
}

func newTestCircuit(threshold int, cooldown time.Duration) *testCircuit {
	return &testCircuit{
		n:         &node{circuit: breakerClosed},
		fc:        clock.NewFake(time.Unix(1_700_000_000, 0)),
		threshold: threshold,
		cooldown:  cooldown,
	}
}

func (c *testCircuit) failure() {
	if c.n.circuitFailure(c.fc.Now(), c.threshold) {
		c.opens++
	}
}

func (c *testCircuit) allow() bool     { return c.n.allow(c.fc.Now(), c.cooldown) }
func (c *testCircuit) available() bool { return c.n.available(c.fc.Now(), c.cooldown) }

// TestBreakerStateMachine walks one node's circuit through every
// transition on a fake clock: closed under threshold, open at
// threshold, half-open after the cooldown with exactly one trial slot,
// re-open on a failed trial, closed on a successful one.
func TestBreakerStateMachine(t *testing.T) {
	b := newTestCircuit(3, 5*time.Second)

	// Closed: failures below threshold leave it passing traffic.
	for i := 1; i <= 2; i++ {
		b.failure()
		if got := b.n.circuit; got != breakerClosed {
			t.Fatalf("after %d failures state = %s, want closed", i, got)
		}
		if !b.allow() {
			t.Fatalf("closed breaker denied traffic after %d failures", i)
		}
	}

	// A success resets the consecutive-failure count.
	b.n.circuitSuccess()
	b.failure()
	b.failure()
	if got := b.n.circuit; got != breakerClosed {
		t.Fatalf("success did not reset the failure count: state = %s", got)
	}

	// Threshold consecutive failures open the circuit.
	b.failure()
	if got := b.n.circuit; got != breakerOpen {
		t.Fatalf("state at threshold = %s, want open", got)
	}
	if b.opens != 1 {
		t.Fatalf("circuit opened %d times, want 1", b.opens)
	}
	if b.allow() || b.available() {
		t.Fatal("open breaker passed traffic inside the cooldown")
	}

	// Cooldown elapsed: exactly one half-open trial is granted.
	b.fc.Advance(5 * time.Second)
	if !b.available() {
		t.Fatal("breaker not available after the cooldown elapsed")
	}
	if !b.allow() {
		t.Fatal("breaker denied the half-open trial")
	}
	if got := b.n.circuit; got != breakerHalfOpen {
		t.Fatalf("state after trial grant = %s, want half-open", got)
	}
	if b.allow() || b.available() {
		t.Fatal("second trial granted while the first is in flight")
	}

	// The trial fails: the circuit re-opens and the cooldown re-arms.
	b.failure()
	if got := b.n.circuit; got != breakerOpen {
		t.Fatalf("state after failed trial = %s, want open", got)
	}
	if b.opens != 2 {
		t.Fatalf("circuit opened %d times after the failed trial, want 2", b.opens)
	}
	if b.allow() {
		t.Fatal("re-opened breaker passed traffic before the fresh cooldown")
	}

	// Second trial succeeds: the circuit closes fully.
	b.fc.Advance(5 * time.Second)
	if !b.allow() {
		t.Fatal("breaker denied the second trial")
	}
	b.n.circuitSuccess()
	if got := b.n.circuit; got != breakerClosed {
		t.Fatalf("state after successful trial = %s, want closed", got)
	}
	if !b.allow() || !b.available() {
		t.Fatal("closed breaker denied traffic")
	}
}

// TestBreakerUnknownNode: nodes the gateway does not hold in its ring
// (removed, or never added) pass admission — the breaker fails open,
// membership is the authority on their existence — and report no
// circuit.
func TestBreakerUnknownNode(t *testing.T) {
	f := newFakeBackend(t)
	g := probeGateway(t, Config{Backends: []Backend{{Name: "n0", URL: f.ts.URL}}})
	if err := g.admit("ghost", false); err != nil || !g.circuit("ghost", (*node).available) {
		t.Fatalf("untracked node denied traffic: %v", err)
	}
	for _, h := range g.Backends() {
		if h.Name == "ghost" {
			t.Fatalf("untracked node has a health row: %+v", h)
		}
	}
	g.mu.Lock()
	for i := 0; i < breakerThreshold; i++ {
		g.nodes["n0"].circuitFailure(g.cfg.Clock.Now(), breakerThreshold)
	}
	g.mu.Unlock()
	if g.admit("n0", false) == nil {
		t.Fatal("open circuit admitted traffic")
	}
	g.leave("n0", "")
	if err := g.admit("n0", false); err != nil {
		t.Fatalf("removed node kept its open circuit: %v", err)
	}
}

// TestBreakerFault: the gw.breaker fault point forces admission
// denials without any real failures.
func TestBreakerFault(t *testing.T) {
	faults := faultinject.New()
	if err := faults.Arm(FaultBreaker+"=error:chaos denial,count:2", 1); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	f := newFakeBackend(t)
	g := probeGateway(t, Config{Backends: []Backend{{Name: "n0", URL: f.ts.URL}}, Faults: faults})
	if g.admit("n0", false) == nil || g.admit("n0", false) == nil {
		t.Fatal("armed gw.breaker fault did not deny admission")
	}
	if err := g.admit("n0", false); err != nil {
		t.Fatalf("exhausted (count:2) fault still denying admission: %v", err)
	}
}
