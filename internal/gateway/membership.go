package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"
)

// NodeState is the gateway's view of one backend, derived from its
// /readyz document (or the failure to fetch one).
type NodeState string

const (
	// NodeHealthy backends take all traffic.
	NodeHealthy NodeState = "healthy"
	// NodeBrownout backends are shedding queue-bound load: they stay in
	// the rotation for warm specs (their cache is why we route there)
	// but cold specs spill to less-loaded peers.
	NodeBrownout NodeState = "brownout"
	// NodeDraining backends are shutting down; ejected from routing.
	NodeDraining NodeState = "draining"
	// NodeRecovering backends are replaying their journal; ejected
	// until the replay completes.
	NodeRecovering NodeState = "recovering"
	// NodeDown backends failed FailThreshold consecutive probes (or
	// returned garbage); ejected until a probe succeeds again.
	NodeDown NodeState = "down"
	// NodeJoining backends were just added through the admin API; they
	// take no traffic until a probe confirms them healthy, so a typo'd
	// URL or a still-booting node never eats live submits.
	NodeJoining NodeState = "joining"
	// NodeSuspect backends flapped healthy<->down too fast; they are
	// held out of rotation for a cooldown instead of re-entering on
	// every flip (each re-entry costs real requests that fail over).
	NodeSuspect NodeState = "suspect"
)

// routable reports whether any traffic may be sent to a node in this
// state. Brownout is routable (deprioritized, not ejected).
func (s NodeState) routable() bool {
	return s == NodeHealthy || s == NodeBrownout
}

// Backend names one thermherdd node and its base URL.
type Backend struct {
	Name string
	URL  string
}

// NodeHealth is one backend's membership snapshot, served in the
// gateway's /metrics and /readyz documents.
type NodeHealth struct {
	Name string `json:"name"`
	URL  string `json:"url"`
	// State is the membership state machine's current classification.
	State NodeState `json:"state"`
	// Since is the backend-reported timestamp of its current readiness
	// condition (the /readyz "since" field); for NodeDown it is the
	// gateway-observed time of the first failed probe. It is how a
	// freshly-browning node is distinguished from a long-dead one.
	Since string `json:"since,omitempty"`
	// ConsecutiveFailures counts probes failed in a row.
	ConsecutiveFailures int `json:"consecutive_failures,omitempty"`
	// LastError is the most recent probe failure, empty when healthy.
	LastError string `json:"last_error,omitempty"`
	// Breaker is the node's circuit-breaker position (closed / open /
	// half-open).
	Breaker string `json:"breaker,omitempty"`
}

// node is everything the gateway knows about one backend: its
// membership state, its circuit, its in-flight submits and, once it has
// left the ring, its tombstone. Every field is guarded by Gateway.mu;
// the methods below are called with it held.
type node struct {
	// backend never changes once the record is in the table, so it may
	// be read without the lock.
	backend Backend

	// Membership: the state machine's classification and its inputs.
	state       NodeState
	since       time.Time
	consecFails int
	lastErr     string
	// pinnedDrain forces the state to NodeDraining regardless of what
	// probes report: the admin API set it, and only a re-add clears it.
	pinnedDrain bool
	// flips timestamps recent routable<->nonroutable transitions; too
	// many inside flapWindow marks the node suspect.
	flips []time.Time
	// suspectUntil bars the node from re-entering rotation before the
	// flap cooldown has elapsed.
	suspectUntil time.Time
	// probing marks a suspect probe in flight: a forward that fails
	// meanwhile starts no second one.
	probing bool

	// The circuit (breaker.go).
	circuit      breakerState
	circuitFails int
	openedAt     time.Time
	// trialInFlight marks the single half-open probe slot as taken.
	trialInFlight bool

	// inflight counts submits in flight to the node; the
	// power-of-two-choices spill and the admin remove check read it.
	inflight int64

	// removed marks a tombstone: the node left the ring, but reads of
	// <id>@<node> ids minted before still route by its name — to the
	// node itself, or to adoptedBy once a successor adopted its journal.
	removed   bool
	adoptedBy string
	// takingOver is the takeover single-flight flag.
	takingOver bool
}

// health renders the record's row of a health snapshot.
func (n *node) health() NodeHealth {
	h := NodeHealth{
		Name:                n.backend.Name,
		URL:                 n.backend.URL,
		State:               n.state,
		ConsecutiveFailures: n.consecFails,
		LastError:           n.lastErr,
		Breaker:             string(n.circuit),
	}
	if !n.since.IsZero() {
		h.Since = n.since.Format(time.RFC3339Nano)
	}
	return h
}

// Flap damping: flapFlips routability transitions within flapWindow
// hold the node suspect for flapCooldown.
const (
	flapWindow   = 10 * time.Second
	flapFlips    = 3
	flapCooldown = 5 * time.Second
)

// readyzDoc is the backend /readyz body the prober decodes.
type readyzDoc struct {
	Ready  bool   `json:"ready"`
	Reason string `json:"reason"`
	Since  string `json:"since"`
}

// applyReadyz folds a successful probe into the state machine.
func (n *node) applyReadyz(now time.Time, doc readyzDoc) {
	state := NodeHealthy
	if !doc.Ready {
		switch doc.Reason {
		case "brownout":
			state = NodeBrownout
		case "draining":
			state = NodeDraining
		case "recovering":
			state = NodeRecovering
		default:
			// Not ready for a reason this gateway does not understand:
			// treat it as down — routing to it would be a guess.
			state = NodeDown
		}
	}
	n.consecFails = 0
	n.lastErr = ""
	n.transition(now, state)
	since, _ := time.Parse(time.RFC3339Nano, doc.Since)
	if !since.IsZero() && n.state == state {
		// Prefer the backend's own account of when the condition began:
		// it survives gateway restarts and is what distinguishes a
		// freshly-browning node from a long-unready one. A transition
		// the damper or the drain pin overrode keeps the gateway's own
		// timestamp — the backend's story is not the one we believed.
		n.since = since
	}
}

// applyFailure folds a failed probe into the state machine: the node
// is marked down after threshold consecutive failures.
func (n *node) applyFailure(now time.Time, err error, threshold int) {
	n.consecFails++
	n.lastErr = err.Error()
	if n.consecFails >= threshold {
		n.transition(now, NodeDown)
	}
}

// transition moves the node through the state machine, applying the
// two policies that may override the raw observation: the admin drain
// pin (a pinned node never leaves draining until re-added) and flap
// damping — flapFlips routability changes inside flapWindow hold the
// node in NodeSuspect for flapCooldown, so an oscillating backend stops
// re-entering rotation on every good probe. A node that has served its
// cooldown re-enters with a clean flip history.
func (n *node) transition(now time.Time, to NodeState) {
	if n.pinnedDrain {
		to = NodeDraining
	}
	from := n.state
	if to.routable() && !from.routable() && now.Before(n.suspectUntil) {
		to = NodeSuspect
	}
	if to == from {
		return
	}
	// Count routability flips; the initial joining->healthy promotion
	// is a node taking traffic for the first time, not a flap.
	if to.routable() != from.routable() && from != NodeJoining {
		kept := n.flips[:0]
		for _, ts := range n.flips {
			if now.Sub(ts) <= flapWindow {
				kept = append(kept, ts)
			}
		}
		n.flips = append(kept, now)
		if len(n.flips) >= flapFlips {
			n.suspectUntil = now.Add(flapCooldown)
			n.flips = nil
			if to.routable() {
				to = NodeSuspect
			}
		}
	}
	if to.routable() && from == NodeSuspect {
		n.flips = nil
		n.suspectUntil = time.Time{}
	}
	if to == from {
		return
	}
	n.state = to
	n.since = now
}

// run is the probe loop: every ProbeInterval it probes each active
// backend's /readyz. Start launches it and Close stops it. Probes run
// through the clock seam and the fault-injection registry, so the
// chaos suite drives slow probes, dead backends, and split-brain views
// deterministically.
func (g *Gateway) run() {
	defer close(g.done)
	for {
		select {
		case <-g.stop:
			return
		case <-g.cfg.Clock.After(g.cfg.ProbeInterval):
			g.ProbeNow()
		}
	}
}

// ProbeNow probes every active backend once, concurrently, and returns
// when all probes are applied; tests use it to advance membership
// without waiting out the probe interval.
func (g *Gateway) ProbeNow() {
	g.mu.Lock()
	nodes := make([]*node, 0, len(g.nodes))
	//thermlint:unordered -- collecting records to probe; probe order carries no meaning
	for _, n := range g.nodes {
		if !n.removed {
			nodes = append(nodes, n)
		}
	}
	g.mu.Unlock()
	var wg sync.WaitGroup
	for _, n := range nodes {
		wg.Add(1)
		go func(n *node) {
			defer wg.Done()
			g.probe(n)
		}(n)
	}
	wg.Wait()
}

// suspect starts an immediate asynchronous probe of one active backend
// — the forward path calls it when a request to that backend fails, so
// ejection does not wait for the next interval tick, and the admin add
// path to promote a joiner. At most one such probe per node is in
// flight: a storm of failed forwards costs the node one probe, and the
// failures it reports are consecutive in time, not simultaneous.
func (g *Gateway) suspect(name string) {
	g.mu.Lock()
	n, ok := g.nodes[name]
	start := ok && !n.removed && !n.probing
	if start {
		n.probing = true
	}
	g.mu.Unlock()
	if !start {
		return
	}
	//thermlint:goroutine -- one /readyz fetch bounded by the probe timeout
	go func() {
		g.probe(n)
		g.mu.Lock()
		n.probing = false
		g.mu.Unlock()
	}()
}

// probe fetches one backend's /readyz and applies the outcome to its
// record: the membership state machine and the circuit both read it.
// Any decodable /readyz — even a draining 503 — means the backend is
// alive, a good outcome as far as the circuit cares; a failed probe is
// a circuit failure and may make a dead node due for takeover.
func (g *Gateway) probe(n *node) {
	g.metrics.probes.Add(1)
	doc, err := g.readyz(n.backend)
	if err != nil {
		g.metrics.probeFailures.Add(1)
	}
	g.mu.Lock()
	due := false
	if !n.removed {
		now := g.cfg.Clock.Now()
		if err == nil {
			n.applyReadyz(now, doc)
			n.probeSuccess()
		} else {
			n.applyFailure(now, err, g.cfg.FailThreshold)
			if n.circuitFailure(now, breakerThreshold) {
				g.metrics.breakerOpens.Add(1)
			}
			due = g.takeoverDueLocked(n, now)
		}
	}
	g.mu.Unlock()
	if due {
		g.startTakeover(n)
	}
}

// readyz probes one backend. The FaultProbe point injects slow probes
// (delay action) and dead backends (error action); FaultSplitBrain
// discards a successful response, so this gateway's view diverges from
// reality — exactly the one-sided membership split the chaos suite
// exercises.
func (g *Gateway) readyz(b Backend) (readyzDoc, error) {
	if err := g.cfg.Faults.Fire(FaultProbe); err != nil {
		return readyzDoc{}, fmt.Errorf("probe: %w", err)
	}
	doc, err := g.fetchReadyz(b)
	if err != nil {
		return readyzDoc{}, err
	}
	if err := g.cfg.Faults.Fire(FaultSplitBrain); err != nil {
		return readyzDoc{}, fmt.Errorf("split-brain: %w", err)
	}
	return doc, nil
}

// fetchReadyz performs the HTTP probe under the probe timeout. Both a
// 200 and a 503 carrying a decodable document are successful probes —
// a browning-out backend is alive and telling us so.
func (g *Gateway) fetchReadyz(b Backend) (readyzDoc, error) {
	ctx, cancel := context.WithTimeout(context.Background(), g.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.URL+"/readyz", nil)
	if err != nil {
		return readyzDoc{}, err
	}
	resp, err := g.hc.Do(req)
	if err != nil {
		return readyzDoc{}, err
	}
	defer resp.Body.Close()
	var doc readyzDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return readyzDoc{}, fmt.Errorf("bad /readyz body: %w", err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return readyzDoc{}, fmt.Errorf("/readyz HTTP %d", resp.StatusCode)
	}
	return doc, nil
}

// pinDrain forces an active node into NodeDraining and keeps it there
// against anything its probes report; only removal and re-add clear
// the pin. It returns the node's in-flight submits.
func (g *Gateway) pinDrain(name string) (int64, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	n, ok := g.nodes[name]
	if !ok || n.removed {
		return 0, false
	}
	n.pinnedDrain = true
	n.transition(g.cfg.Clock.Now(), NodeDraining)
	return n.inflight, true
}

// stateOf returns one node's current classification; a node that is
// not in the ring counts as down.
func (g *Gateway) stateOf(name string) NodeState {
	g.mu.Lock()
	defer g.mu.Unlock()
	if n, ok := g.nodes[name]; ok && !n.removed {
		return n.state
	}
	return NodeDown
}

// snapshot renders every active node's health and in-flight submits,
// sorted by name.
func (g *Gateway) snapshot() []adminNodeDoc {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]adminNodeDoc, 0, len(g.nodes))
	//thermlint:unordered -- collecting records for an explicit sort below
	for _, n := range g.nodes {
		if !n.removed {
			out = append(out, adminNodeDoc{NodeHealth: n.health(), Inflight: n.inflight})
		}
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Name < out[k].Name })
	return out
}
