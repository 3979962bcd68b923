package gateway

import "time"

// breakerState is one backend's circuit position. The circuit breaker
// is the circuit fields of a backend's node record and the methods
// below, called with Gateway.mu held. It is fed by the same outcomes
// the membership state machine sees — forward transport errors,
// retryable 5xx submit replies, and probe results — so a backend that
// keeps eating requests is short-circuited out of the submit path even
// between probe ticks. Reads are NOT gated, only their hedge legs: a
// namespaced job id has exactly one home, and converting its slow
// failure into a fast one would also fail the drain-reconciliation
// reads a departing node still answers.
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

// breakerThreshold is how many consecutive forward/probe failures open
// a gateway's circuit for a backend.
const breakerThreshold = 5

// allow reports whether a submit may be sent to the node now,
// consuming the half-open trial slot when it grants one.
func (n *node) allow(now time.Time, cooldown time.Duration) bool {
	switch n.circuit {
	case breakerClosed:
		return true
	case breakerOpen:
		if now.Sub(n.openedAt) < cooldown {
			return false
		}
		n.circuit = breakerHalfOpen
		n.trialInFlight = true
		return true
	default: // half-open
		if n.trialInFlight {
			return false
		}
		n.trialInFlight = true
		return true
	}
}

// available is the non-consuming form of allow, for building candidate
// orders without burning half-open trial slots on nodes that are never
// actually tried.
func (n *node) available(now time.Time, cooldown time.Duration) bool {
	switch n.circuit {
	case breakerClosed:
		return true
	case breakerOpen:
		return now.Sub(n.openedAt) >= cooldown
	default:
		return !n.trialInFlight
	}
}

// circuitSuccess records a good forward outcome: the circuit closes
// and the failure count resets.
func (n *node) circuitSuccess() {
	n.circuit = breakerClosed
	n.circuitFails = 0
	n.trialInFlight = false
}

// probeSuccess records a good outcome observed by a membership probe
// rather than a real forward. While a half-open trial is in flight it
// must NOT close the circuit: the trial slot was granted to exactly one
// forwarded request, and letting a concurrent probe (or a second racing
// request) close the circuit early would admit a second probe through
// the half-open state — the single-flight guarantee the half-open state
// exists to provide. Outside that window it behaves like success.
func (n *node) probeSuccess() {
	if n.circuit == breakerHalfOpen && n.trialInFlight {
		n.circuitFails = 0
		return
	}
	n.circuitSuccess()
}

// circuitFailure records a bad outcome; threshold consecutive failures
// open the circuit, and a failed half-open trial re-opens it
// immediately. It reports whether the circuit opened.
func (n *node) circuitFailure(now time.Time, threshold int) bool {
	n.circuitFails++
	if n.circuit == breakerOpen || (n.circuit == breakerClosed && n.circuitFails < threshold) {
		return false
	}
	n.circuit = breakerOpen
	n.openedAt = now
	n.trialInFlight = false
	return true
}

// circuit runs one circuit check on the named node under the table
// lock. A node that is not in the ring passes: a breaker that denied
// what it no longer tracks would turn a race with an admin remove into
// an outage.
func (g *Gateway) circuit(name string, check func(*node, time.Time, time.Duration) bool) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	n, ok := g.nodes[name]
	if !ok || n.removed {
		return true
	}
	return check(n, g.cfg.Clock.Now(), g.cfg.BreakerCooldown)
}
