package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"thermalherd/internal/clock"
	"thermalherd/internal/faultinject"
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
	// half-open), filled in by the gateway when it renders a snapshot.
	Breaker string `json:"breaker,omitempty"`
}

// memberInfo is the mutable per-node record behind NodeHealth.
type memberInfo struct {
	backend     Backend
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
}

// Flap damping: flapFlips routability transitions within flapWindow
// hold the node suspect for flapCooldown.
const (
	flapWindow   = 10 * time.Second
	flapFlips    = 3
	flapCooldown = 5 * time.Second
)

// membership polls each backend's /readyz on a fixed interval and
// classifies it through the state machine above. Probes run through
// the clock seam and the fault-injection registry, so the chaos suite
// drives slow probes, dead backends, and split-brain views
// deterministically.
type membership struct {
	clk       clock.Clock
	hc        *http.Client
	faults    *faultinject.Registry
	interval  time.Duration
	timeout   time.Duration
	threshold int

	mu   sync.Mutex
	info map[string]*memberInfo

	started  atomic.Bool
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}

	probes        counterFunc
	probeFailures counterFunc
	// onProbe reports each probe's outcome (reached the backend or
	// not) so the gateway can feed its circuit breakers.
	onProbe func(name string, ok bool)
}

// counterFunc lets membership report probe counts into the gateway's
// metrics without a dependency cycle.
type counterFunc func()

func newMembership(backends []Backend, clk clock.Clock, faults *faultinject.Registry,
	interval, timeout time.Duration, threshold int) *membership {
	if interval <= 0 {
		interval = time.Second
	}
	if timeout <= 0 {
		timeout = 500 * time.Millisecond
	}
	if threshold <= 0 {
		threshold = 3
	}
	m := &membership{
		clk:           clk,
		hc:            &http.Client{},
		faults:        faults,
		interval:      interval,
		timeout:       timeout,
		threshold:     threshold,
		info:          make(map[string]*memberInfo, len(backends)),
		stop:          make(chan struct{}),
		done:          make(chan struct{}),
		probes:        func() {},
		probeFailures: func() {},
		onProbe:       func(string, bool) {},
	}
	for _, b := range backends {
		// Optimistic boot: a backend starts healthy so the first requests
		// need not wait out a probe cycle; a dead one is ejected within
		// threshold probes (and suspected immediately on a failed forward).
		m.info[b.Name] = &memberInfo{backend: b, state: NodeHealthy, since: clk.Now()}
	}
	return m
}

// run is the probe loop; Gateway.Start launches it and Close stops it.
func (m *membership) run() {
	m.started.Store(true)
	defer close(m.done)
	for {
		select {
		case <-m.stop:
			return
		case <-m.clk.After(m.interval):
			m.ProbeAll(context.Background())
		}
	}
}

// close stops the probe loop and waits for it to exit. A membership
// whose loop was never launched (a gateway constructed but not
// Started) has nothing to wait for.
func (m *membership) close() {
	m.stopOnce.Do(func() { close(m.stop) })
	if !m.started.Load() {
		return
	}
	//thermlint:blocking -- done is closed unconditionally when run exits; the wait is bounded by one probe round
	<-m.done
}

// ProbeAll probes every backend once, concurrently. Tests (and the
// suspect path) call it directly to advance membership without waiting
// out the interval.
func (m *membership) ProbeAll(ctx context.Context) {
	m.mu.Lock()
	backends := make([]Backend, 0, len(m.info))
	//thermlint:unordered -- collecting map values to probe; probe order carries no meaning
	for _, mi := range m.info {
		backends = append(backends, mi.backend)
	}
	m.mu.Unlock()
	var wg sync.WaitGroup
	for _, b := range backends {
		wg.Add(1)
		go func(b Backend) {
			defer wg.Done()
			m.probe(ctx, b)
		}(b)
	}
	wg.Wait()
}

// suspect triggers an immediate asynchronous probe of one backend —
// the forward path calls it when a request to that backend fails, so
// ejection does not wait for the next interval tick.
func (m *membership) suspect(name string) {
	m.mu.Lock()
	mi, ok := m.info[name]
	var b Backend
	if ok {
		b = mi.backend
	}
	m.mu.Unlock()
	if !ok {
		return
	}
	//thermlint:goroutine -- one /readyz fetch bounded by the probe client's timeout
	go m.probe(context.Background(), b)
}

// readyzDoc is the backend /readyz body the prober decodes.
type readyzDoc struct {
	Ready  bool   `json:"ready"`
	Reason string `json:"reason"`
	Since  string `json:"since"`
}

// probe fetches one backend's /readyz and applies the result to the
// state machine. The FaultProbe point injects slow probes (delay
// action) and dead backends (error action); FaultSplitBrain discards a
// successful response, so this gateway's view diverges from reality —
// exactly the one-sided membership split the chaos suite exercises.
func (m *membership) probe(ctx context.Context, b Backend) {
	m.probes()
	if err := m.faults.Fire(FaultProbe); err != nil {
		m.applyFailure(b.Name, fmt.Errorf("probe: %w", err))
		m.onProbe(b.Name, false)
		return
	}
	doc, err := m.fetchReadyz(ctx, b)
	if err != nil {
		m.applyFailure(b.Name, err)
		m.onProbe(b.Name, false)
		return
	}
	if err := m.faults.Fire(FaultSplitBrain); err != nil {
		m.applyFailure(b.Name, fmt.Errorf("split-brain: %w", err))
		m.onProbe(b.Name, false)
		return
	}
	m.applyReadyz(b.Name, doc)
	// Any decodable /readyz — even a draining 503 — means the backend
	// is alive: a good outcome as far as the circuit breaker cares.
	m.onProbe(b.Name, true)
}

// fetchReadyz performs the HTTP probe under the probe timeout. Both a
// 200 and a 503 carrying a decodable document are successful probes —
// a browning-out backend is alive and telling us so.
func (m *membership) fetchReadyz(ctx context.Context, b Backend) (readyzDoc, error) {
	pctx, cancel := context.WithTimeout(ctx, m.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, b.URL+"/readyz", nil)
	if err != nil {
		return readyzDoc{}, err
	}
	resp, err := m.hc.Do(req)
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

// applyReadyz folds a successful probe into the state machine.
func (m *membership) applyReadyz(name string, doc readyzDoc) {
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
	since, _ := time.Parse(time.RFC3339Nano, doc.Since)
	m.mu.Lock()
	defer m.mu.Unlock()
	mi, ok := m.info[name]
	if !ok {
		return
	}
	mi.consecFails = 0
	mi.lastErr = ""
	m.transition(mi, state)
	if !since.IsZero() && mi.state == state {
		// Prefer the backend's own account of when the condition began:
		// it survives gateway restarts and is what distinguishes a
		// freshly-browning node from a long-unready one. A transition
		// the damper or the drain pin overrode keeps the gateway's own
		// timestamp — the backend's story is not the one we believed.
		mi.since = since
	}
}

// applyFailure folds a failed probe into the state machine: the node
// is marked down after threshold consecutive failures.
func (m *membership) applyFailure(name string, err error) {
	m.probeFailures()
	m.mu.Lock()
	defer m.mu.Unlock()
	mi, ok := m.info[name]
	if !ok {
		return
	}
	mi.consecFails++
	mi.lastErr = err.Error()
	if mi.consecFails >= m.threshold {
		m.transition(mi, NodeDown)
	}
}

// transition moves one node through the state machine under m.mu,
// applying the two policies that may override the raw observation: the
// admin drain pin (a pinned node never leaves draining until re-added)
// and flap damping — flapFlips routability changes inside flapWindow
// hold the node in NodeSuspect for flapCooldown, so an oscillating
// backend stops re-entering rotation on every good probe. A node that
// has served its cooldown re-enters with a clean flip history.
func (m *membership) transition(mi *memberInfo, to NodeState) {
	now := m.clk.Now()
	if mi.pinnedDrain {
		to = NodeDraining
	}
	from := mi.state
	if to.routable() && !from.routable() && now.Before(mi.suspectUntil) {
		to = NodeSuspect
	}
	if to == from {
		return
	}
	// Count routability flips; the initial joining->healthy promotion
	// is a node taking traffic for the first time, not a flap.
	if to.routable() != from.routable() && from != NodeJoining {
		kept := mi.flips[:0]
		for _, ts := range mi.flips {
			if now.Sub(ts) <= flapWindow {
				kept = append(kept, ts)
			}
		}
		mi.flips = append(kept, now)
		if len(mi.flips) >= flapFlips {
			mi.suspectUntil = now.Add(flapCooldown)
			mi.flips = nil
			if to.routable() {
				to = NodeSuspect
			}
		}
	}
	if to.routable() && from == NodeSuspect {
		mi.flips = nil
		mi.suspectUntil = time.Time{}
	}
	if to == from {
		return
	}
	mi.state = to
	mi.since = now
}

// addMember registers a node added at runtime, starting in the given
// state (the admin API uses NodeJoining so it takes no traffic until
// probed healthy). Re-adding an existing name resets its record —
// including a drain pin.
func (m *membership) addMember(b Backend, state NodeState) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.info[b.Name] = &memberInfo{backend: b, state: state, since: m.clk.Now()}
}

// removeMember forgets a node; its probes stop at the next round.
func (m *membership) removeMember(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.info, name)
}

// pinDrain forces a node into NodeDraining and keeps it there against
// anything its probes report; only removal or re-add clears the pin.
func (m *membership) pinDrain(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	mi, ok := m.info[name]
	if !ok {
		return false
	}
	mi.pinnedDrain = true
	m.transition(mi, NodeDraining)
	return true
}

// downSince reports when the named node entered NodeDown; the zero
// time when it is absent or in any other state. The takeover path
// reads it to decide whether a dead node has been dead long enough.
func (m *membership) downSince(name string) time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	if mi, ok := m.info[name]; ok && mi.state == NodeDown {
		return mi.since
	}
	return time.Time{}
}

// state returns one node's current classification.
func (m *membership) state(name string) NodeState {
	m.mu.Lock()
	defer m.mu.Unlock()
	if mi, ok := m.info[name]; ok {
		return mi.state
	}
	return NodeDown
}

// snapshot renders every node's health, sorted by name.
func (m *membership) snapshot() []NodeHealth {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]NodeHealth, 0, len(m.info))
	//thermlint:unordered -- collecting map values for an explicit sort below
	for _, mi := range m.info {
		h := NodeHealth{
			Name:                mi.backend.Name,
			URL:                 mi.backend.URL,
			State:               mi.state,
			ConsecutiveFailures: mi.consecFails,
			LastError:           mi.lastErr,
		}
		if !mi.since.IsZero() {
			h.Since = mi.since.Format(time.RFC3339Nano)
		}
		out = append(out, h)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Name < out[k].Name })
	return out
}
