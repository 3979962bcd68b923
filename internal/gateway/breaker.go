package gateway

import (
	"sync"
	"time"

	"thermalherd/internal/clock"
	"thermalherd/internal/faultinject"
)

// breakerState is one backend's circuit position.
type breakerState string

const (
	// breakerClosed passes traffic; consecutive failures are counted.
	breakerClosed breakerState = "closed"
	// breakerOpen short-circuits submit routing to the backend until
	// the cooldown elapses.
	breakerOpen breakerState = "open"
	// breakerHalfOpen admits exactly one trial request; its outcome
	// closes or re-opens the circuit.
	breakerHalfOpen breakerState = "half-open"
)

// breaker is the per-backend circuit breaker. It is fed by the same
// outcomes the membership state machine sees — forward transport
// errors, retryable 5xx submit replies, and probe results — so a
// backend that keeps eating requests is short-circuited out of the
// submit path even between probe ticks. Reads are NOT gated, only
// their hedge legs: a namespaced job id has exactly one home, and
// converting its slow failure into a fast one would also fail the
// drain-reconciliation reads a departing node still answers.
type breaker struct {
	clk       clock.Clock
	faults    *faultinject.Registry
	threshold int
	cooldown  time.Duration
	onOpen    counterFunc

	mu    sync.Mutex
	nodes map[string]*breakerNode
}

type breakerNode struct {
	state       breakerState
	consecFails int
	openedAt    time.Time
	// trialInFlight marks the single half-open probe slot as taken.
	trialInFlight bool
}

// breakerThreshold is how many consecutive forward/probe failures open
// a gateway's circuit for a backend.
const breakerThreshold = 5

func newBreaker(clk clock.Clock, faults *faultinject.Registry, threshold int, cooldown time.Duration) *breaker {
	if cooldown <= 0 {
		cooldown = 5 * time.Second
	}
	return &breaker{
		clk:       clk,
		faults:    faults,
		threshold: threshold,
		cooldown:  cooldown,
		onOpen:    func() {},
		nodes:     make(map[string]*breakerNode),
	}
}

func (b *breaker) add(name string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.nodes[name]; !ok {
		b.nodes[name] = &breakerNode{state: breakerClosed}
	}
}

func (b *breaker) remove(name string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.nodes, name)
}

// allow reports whether a submit may be sent to the node right now,
// consuming the half-open trial slot when it grants one. The
// FaultBreaker point lets the chaos suite force a denial.
func (b *breaker) allow(name string) bool {
	if err := b.faults.Fire(FaultBreaker); err != nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	bn, ok := b.nodes[name]
	if !ok {
		return true
	}
	switch bn.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.clk.Since(bn.openedAt) < b.cooldown {
			return false
		}
		bn.state = breakerHalfOpen
		bn.trialInFlight = true
		return true
	default: // half-open
		if bn.trialInFlight {
			return false
		}
		bn.trialInFlight = true
		return true
	}
}

// available is the non-consuming form of allow, for building candidate
// orders without burning half-open trial slots on nodes that are never
// actually tried.
func (b *breaker) available(name string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	bn, ok := b.nodes[name]
	if !ok {
		return true
	}
	switch bn.state {
	case breakerClosed:
		return true
	case breakerOpen:
		return b.clk.Since(bn.openedAt) >= b.cooldown
	default:
		return !bn.trialInFlight
	}
}

// success records a good outcome (forward succeeded, or a probe
// reached the backend): the circuit closes and the failure count
// resets.
func (b *breaker) success(name string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	bn, ok := b.nodes[name]
	if !ok {
		return
	}
	bn.state = breakerClosed
	bn.consecFails = 0
	bn.trialInFlight = false
}

// probeSuccess records a good outcome observed by a membership probe
// rather than a real forward. While a half-open trial is in flight it
// must NOT close the circuit: the trial slot was granted to exactly one
// forwarded request, and letting a concurrent probe (or a second racing
// request) close the circuit early would admit a second probe through
// the half-open state — the single-flight guarantee the half-open state
// exists to provide. Outside that window it behaves like success.
func (b *breaker) probeSuccess(name string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	bn, ok := b.nodes[name]
	if !ok {
		return
	}
	if bn.state == breakerHalfOpen && bn.trialInFlight {
		bn.consecFails = 0
		return
	}
	bn.state = breakerClosed
	bn.consecFails = 0
	bn.trialInFlight = false
}

// failure records a bad outcome; threshold consecutive failures open
// the circuit, and a failed half-open trial re-opens it immediately.
func (b *breaker) failure(name string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	bn, ok := b.nodes[name]
	if !ok {
		return
	}
	bn.consecFails++
	switch bn.state {
	case breakerHalfOpen:
		bn.state = breakerOpen
		bn.openedAt = b.clk.Now()
		bn.trialInFlight = false
		b.onOpen()
	case breakerClosed:
		if bn.consecFails >= b.threshold {
			bn.state = breakerOpen
			bn.openedAt = b.clk.Now()
			b.onOpen()
		}
	}
}

// stateOf reports the node's circuit position for health snapshots.
func (b *breaker) stateOf(name string) breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if bn, ok := b.nodes[name]; ok {
		return bn.state
	}
	return breakerClosed
}
