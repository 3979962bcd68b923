package gateway

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"thermalherd/internal/clock"
	"thermalherd/internal/faultinject"
	"thermalherd/internal/httpjson"
	"thermalherd/internal/server"
)

// Fault points threaded through the gateway's hot paths; arm them on a
// faultinject.Registry passed via Config.Faults. All are no-ops when
// the registry is nil or disarmed.
//
//thermlint:faultpoints
const (
	// FaultForward fires before a request is proxied to a backend: an
	// error action simulates the backend being down (the forward fails
	// and the submit path fails over to the next ring successor), a
	// delay action stretches the proxy hop.
	FaultForward = "gw.forward"
	// FaultProbe fires before a membership health probe: a delay action
	// is a slow probe (the round takes longer; under a short probe
	// timeout the backend looks dead), an error action fails the probe
	// outright — threshold consecutive failures eject the backend.
	FaultProbe = "gw.probe"
	// FaultSplitBrain fires after a successful probe response: an error
	// action discards it, so this gateway's membership view diverges
	// from the backend's actual state — a one-sided split-brain.
	FaultSplitBrain = "gw.splitbrain"
	// FaultStraggler fires before a non-DELETE forward to the
	// lexically-last ring node: a delay action turns exactly one
	// backend into a deterministic straggler — the scenario request
	// hedging exists to absorb. Probes are not affected (the straggler
	// stays "healthy"; that is what makes it dangerous).
	FaultStraggler = "gw.straggler"
	// FaultHedge fires when the hedge timer expires, just before the
	// second attempt launches: an error action suppresses the hedge, a
	// delay action stretches it.
	FaultHedge = "gw.hedge"
	// FaultBreaker fires inside every circuit-breaker admission check:
	// an error action forces a denial, simulating a wrongly-open
	// breaker.
	FaultBreaker = "gw.breaker"
	// FaultAdmin fires at the top of every admin-API operation: an
	// error action fails it after authentication, before any topology
	// mutation.
	FaultAdmin = "gw.admin"
	// FaultTakeover fires when a takeover is about to run — after the
	// deadline decision, before the successor is asked to adopt. An
	// error action suppresses the takeover (the dead node stays ejected
	// but unadopted), a delay action stretches the unavailability
	// window the chaos suite measures.
	FaultTakeover = "repl.takeover"
)

// Config sizes the gateway.
type Config struct {
	// Backends is the static node set the ring is built over; at least
	// one is required. Names must be unique, non-empty, and free of the
	// '@' id-separator.
	Backends []Backend
	// ProbeInterval spaces membership health probes; 0 means 1s.
	ProbeInterval time.Duration
	// ProbeTimeout bounds each /readyz probe; 0 means 500ms.
	ProbeTimeout time.Duration
	// FailThreshold is how many consecutive probe failures eject a
	// backend as down; 0 means 3.
	FailThreshold int
	// ScatterTimeout bounds each backend's leg of a scatter-gather
	// (GET /v1/jobs, /metrics); 0 means 2s. A leg that misses it is
	// accounted as a partial result, never a stalled response.
	ScatterTimeout time.Duration
	// Faults is the chaos-testing fault-injection registry; nil (the
	// production default) costs one atomic load per fault point.
	Faults *faultinject.Registry
	// Clock supplies membership timing; nil means the wall clock.
	Clock clock.Clock

	// Hedge enables request hedging: idempotent reads and
	// Idempotency-Key-bearing submits get a second attempt after the
	// per-route p95 hedge delay (clamped into [5ms, 100ms]), first
	// response wins.
	Hedge bool
	// RetryBudgetRatio is the token-bucket deposit per base request
	// (0 means 0.1: retries+hedges bounded to ~10% of base traffic);
	// RetryBudgetBurst is the bucket capacity (0 means 10).
	RetryBudgetRatio float64
	RetryBudgetBurst float64
	// BreakerCooldown is how long a backend's circuit stays open
	// (after breakerThreshold consecutive forward/probe failures)
	// before a half-open trial; 0 means 5s.
	BreakerCooldown time.Duration
	// AdminToken authorizes the /v1/admin/nodes API (Bearer token);
	// empty leaves the admin API disabled.
	AdminToken string
	// TakeoverAfter arms failover: a backend that has sat in NodeDown
	// this long is taken over — its ring successor is told to adopt the
	// replica journal it streamed, an alias routes the dead node's job
	// ids to the successor, and the dead node leaves the ring. Zero
	// (the default) disables takeover entirely; acked jobs on a dead
	// node then stay unreachable until it returns, exactly the
	// pre-replication behavior.
	TakeoverAfter time.Duration
}

// Gateway is the herd front door: an http.Handler exposing the same
// API surface as one thermherdd node, backed by N of them. Create one
// with New, launch the membership prober with Start, and stop it with
// Close.
type Gateway struct {
	cfg     Config
	members *membership
	mux     *http.ServeMux
	hc      *http.Client
	metrics *gwMetrics
	warm    *warmSet
	breaker *breaker
	hedger  *hedger
	budget  *retryBudget

	// epoch counts topology generations: 1 after the initial build,
	// bumped on every admin add/remove. Routing decisions inside one
	// request all read the same generation because they take topo once.
	epoch atomic.Uint64

	// topo guards the mutable topology below: the ring, the name
	// tables, and the per-backend in-flight counters. Request paths
	// take it shared; only the admin API takes it exclusive.
	topo sync.RWMutex
	ring *Ring
	// byName maps active backends; removed holds tombstones for nodes
	// deleted via the admin API, so <id>@<node> reads minted before the
	// removal still route while the process lives.
	byName  map[string]Backend
	removed map[string]Backend
	// inflight tracks per-backend submits in flight; the
	// power-of-two-choices spill reads it to pick the less-loaded of
	// two candidates.
	inflight map[string]*atomic.Int64
	// lastNode caches the lexically-last ring node: the deterministic
	// FaultStraggler target, recomputed on topology change.
	lastNode string
	// aliases routes a taken-over node's job ids: aliases[dead] names
	// the successor now serving <id>@<dead> (under its local id
	// "<id>@<dead>"). Chains form when a successor itself dies before
	// the aliased ids age out. Guarded by topo.
	aliases map[string]string

	// takeover single-flight state: one adoption per dead node, run on
	// a goroutine the gateway Close waits out.
	takeoverMu sync.Mutex
	takingOver map[string]bool
	takeoverWG sync.WaitGroup
}

// New builds a gateway; call Start before serving requests.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("gateway: no backends configured")
	}
	if cfg.ScatterTimeout <= 0 {
		cfg.ScatterTimeout = 2 * time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real()
	}
	g := &Gateway{
		cfg:        cfg,
		ring:       NewRing(DefaultVNodes),
		mux:        http.NewServeMux(),
		hc:         &http.Client{},
		metrics:    &gwMetrics{},
		warm:       newWarmSet(8192),
		hedger:     newHedger(),
		budget:     newRetryBudget(cfg.RetryBudgetRatio, cfg.RetryBudgetBurst),
		inflight:   make(map[string]*atomic.Int64, len(cfg.Backends)),
		byName:     make(map[string]Backend, len(cfg.Backends)),
		removed:    make(map[string]Backend),
		aliases:    make(map[string]string),
		takingOver: make(map[string]bool),
	}
	g.breaker = newBreaker(cfg.Clock, cfg.Faults, breakerThreshold, cfg.BreakerCooldown)
	g.breaker.onOpen = func() { g.metrics.breakerOpens.Add(1) }
	for _, b := range cfg.Backends {
		b.URL = strings.TrimRight(b.URL, "/")
		if err := validateBackend(b); err != nil {
			return nil, err
		}
		if _, dup := g.byName[b.Name]; dup {
			return nil, fmt.Errorf("gateway: duplicate backend name %q", b.Name)
		}
		g.byName[b.Name] = b
		g.ring.Add(b.Name)
		g.inflight[b.Name] = &atomic.Int64{}
		g.breaker.add(b.Name)
	}
	g.recomputeLastLocked()
	g.epoch.Store(1)
	g.members = newMembership(cfg.Backends, cfg.Clock, cfg.Faults,
		cfg.ProbeInterval, cfg.ProbeTimeout, cfg.FailThreshold)
	g.members.probes = func() { g.metrics.probes.Add(1) }
	g.members.probeFailures = func() { g.metrics.probeFailures.Add(1) }
	g.members.onProbe = func(name string, ok bool) {
		if ok {
			// Probes close the circuit only outside a half-open trial:
			// the trial slot's single-flight guarantee belongs to the one
			// forwarded request that consumed it.
			g.breaker.probeSuccess(name)
		} else {
			g.breaker.failure(name)
			g.maybeTakeover(name)
		}
	}
	g.routes()
	return g, nil
}

// validateBackend checks one backend definition; New and the admin add
// path share it so a node added at runtime meets the same contract.
func validateBackend(b Backend) error {
	if b.Name == "" || strings.Contains(b.Name, "@") {
		return fmt.Errorf("gateway: bad backend name %q (must be non-empty, without '@')", b.Name)
	}
	if b.URL == "" {
		return fmt.Errorf("gateway: backend %q has no URL", b.Name)
	}
	return nil
}

// recomputeLastLocked refreshes the cached straggler-fault target (the
// lexically-last ring node); callers hold topo exclusively or are
// still inside New.
func (g *Gateway) recomputeLastLocked() {
	nodes := g.ring.Nodes()
	g.lastNode = ""
	if len(nodes) > 0 {
		g.lastNode = nodes[len(nodes)-1]
	}
}

// Epoch returns the current topology generation.
func (g *Gateway) Epoch() uint64 { return g.epoch.Load() }

// lookupBackend resolves a node name to its backend, consulting the
// tombstones so reads routed by an old <id>@<node> still work after an
// admin removal.
func (g *Gateway) lookupBackend(node string) (Backend, bool) {
	g.topo.RLock()
	defer g.topo.RUnlock()
	if b, ok := g.byName[node]; ok {
		return b, true
	}
	b, ok := g.removed[node]
	return b, ok
}

// ringNodes snapshots the active ring membership.
func (g *Gateway) ringNodes() []string {
	g.topo.RLock()
	defer g.topo.RUnlock()
	return g.ring.Nodes()
}

// inflightOf returns the node's in-flight submit counter; a node
// removed mid-request gets a throwaway so callers never nil-deref.
func (g *Gateway) inflightOf(node string) *atomic.Int64 {
	g.topo.RLock()
	cnt, ok := g.inflight[node]
	g.topo.RUnlock()
	if !ok {
		return &atomic.Int64{}
	}
	return cnt
}

// stragglerTarget reports the deterministic FaultStraggler victim.
func (g *Gateway) stragglerTarget() string {
	g.topo.RLock()
	defer g.topo.RUnlock()
	return g.lastNode
}

// Start launches the membership probe loop.
func (g *Gateway) Start() { go g.members.run() }

// Close stops the membership probe loop and waits out any in-flight
// takeover adoptions.
func (g *Gateway) Close() {
	g.members.close()
	//thermlint:blocking -- each takeover goroutine is bounded by takeoverTimeout HTTP deadlines
	g.takeoverWG.Wait()
}

// ProbeNow runs one synchronous probe round; tests use it to advance
// membership without waiting out the probe interval.
func (g *Gateway) ProbeNow() { g.members.ProbeAll(context.Background()) }

// Backends returns the configured node health snapshot, annotated
// with each node's circuit-breaker position.
func (g *Gateway) Backends() []NodeHealth {
	snap := g.members.snapshot()
	for i := range snap {
		snap[i].Breaker = string(g.breaker.stateOf(snap[i].Name))
	}
	return snap
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mux.ServeHTTP(w, r)
}

// routes installs the HTTP endpoints, mirroring the backend API.
func (g *Gateway) routes() {
	httpjson.Route(g.mux, "/v1/jobs", map[string]http.HandlerFunc{
		http.MethodPost: g.handleSubmit,
		http.MethodGet:  g.handleList,
	})
	httpjson.Route(g.mux, "/v1/jobs:batch", map[string]http.HandlerFunc{
		http.MethodPost: g.handleSubmitBatch,
	})
	httpjson.Route(g.mux, "/v1/jobs/{id}", map[string]http.HandlerFunc{
		http.MethodGet:    g.handleStatus,
		http.MethodDelete: g.handleCancel,
	})
	httpjson.Route(g.mux, "/v1/jobs/{id}/result", map[string]http.HandlerFunc{
		http.MethodGet: g.handleResult,
	})
	httpjson.Route(g.mux, "/v1/workloads", map[string]http.HandlerFunc{http.MethodGet: g.handlePassthrough("/v1/workloads")})
	httpjson.Route(g.mux, "/v1/configs", map[string]http.HandlerFunc{http.MethodGet: g.handlePassthrough("/v1/configs")})
	httpjson.Route(g.mux, "/healthz", map[string]http.HandlerFunc{http.MethodGet: g.handleHealthz})
	httpjson.Route(g.mux, "/readyz", map[string]http.HandlerFunc{http.MethodGet: g.handleReadyz})
	httpjson.Route(g.mux, "/metrics", map[string]http.HandlerFunc{http.MethodGet: g.handleMetrics})
	httpjson.Route(g.mux, "/v1/admin/nodes", map[string]http.HandlerFunc{
		http.MethodPost: g.requireAdmin(g.handleAdminAddNode),
		http.MethodGet:  g.requireAdmin(g.handleAdminListNodes),
	})
	httpjson.Route(g.mux, "/v1/admin/nodes/{name}", map[string]http.HandlerFunc{
		http.MethodDelete: g.requireAdmin(g.handleAdminRemoveNode),
	})
	httpjson.Route(g.mux, "/v1/admin/nodes/{name}/drain", map[string]http.HandlerFunc{
		http.MethodPost: g.requireAdmin(g.handleAdminDrainNode),
	})
}

// globalID namespaces a backend-minted job id with its node, so the
// gateway can route the id back without keeping a table. Backends mint
// bare ids; an "@" already present means an adopted or migrated job
// living under "<id>@<origin>" — that form is globally routable as-is
// (alias and tombstone tables resolve the origin), and re-suffixing it
// would hand the client a different id than the one it acked.
func globalID(id, node string) string {
	if strings.Contains(id, "@") {
		return id
	}
	return id + "@" + node
}

// splitID undoes globalID.
func splitID(gid string) (id, node string, ok bool) {
	i := strings.LastIndex(gid, "@")
	if i <= 0 || i == len(gid)-1 {
		return "", "", false
	}
	return gid[:i], gid[i+1:], true
}

// routePlan is one submit's placement decision.
type routePlan struct {
	// order is the preference-ordered backend list: first the chosen
	// node, then failover candidates.
	order []string
	// spilled marks a cold spec spilled off a browning-out home;
	// failedOver marks a home that was ejected outright.
	spilled, failedOver bool
}

// planRoute places one spec hash. The home node (first ring successor)
// takes the job when it is healthy — and even when it is browning out,
// if the spec is warm there (its cache entry is the whole point of
// sharding by hash). A cold spec with a browning home spills via
// power-of-two-choices over the healthy successors: of the first two,
// the one with fewer gateway-tracked in-flight submits wins. An
// ejected home (down / draining / recovering) fails over to the next
// routable successor deterministically, so dedup for that shard still
// converges on a single node. A node whose circuit breaker is open is
// skipped the same way an ejected one is — the breaker trips on
// forward failures faster than probes re-classify.
func (g *Gateway) planRoute(hash string) (routePlan, error) {
	g.topo.RLock()
	defer g.topo.RUnlock()
	succ := g.ring.Successors(hash, g.ring.Len())
	if len(succ) == 0 {
		return routePlan{}, fmt.Errorf("gateway: hash ring is empty")
	}
	var routable []string
	for _, n := range succ {
		if g.members.state(n).routable() && g.breaker.available(n) {
			routable = append(routable, n)
		}
	}
	if len(routable) == 0 {
		return routePlan{}, fmt.Errorf("gateway: no routable backends (%d configured, all ejected)", len(succ))
	}
	home := succ[0]
	homeState := g.members.state(home)
	if !homeState.routable() {
		// Prefer healthy failover targets over browning-out ones.
		order := append(filterByState(g.members, routable, NodeHealthy),
			filterByState(g.members, routable, NodeBrownout)...)
		return routePlan{order: order, failedOver: true}, nil
	}
	if homeState == NodeHealthy || g.warm.has(hash) {
		return routePlan{order: moveToFront(routable, home)}, nil
	}
	// Home is browning out and the spec is cold: spill. Power of two
	// choices over the healthy successors; the home node stays in the
	// order as the last resort.
	healthy := filterByState(g.members, routable, NodeHealthy)
	if len(healthy) == 0 {
		return routePlan{order: moveToFront(routable, home)}, nil
	}
	pick := healthy[0]
	if len(healthy) >= 2 {
		a, b := healthy[0], healthy[1]
		if g.inflight[b].Load() < g.inflight[a].Load() {
			pick = b
		}
	}
	order := moveToFront(routable, pick)
	return routePlan{order: order, spilled: true}, nil
}

func filterByState(m *membership, nodes []string, want NodeState) []string {
	var out []string
	for _, n := range nodes {
		if m.state(n) == want {
			out = append(out, n)
		}
	}
	return out
}

// moveToFront returns nodes with the named node first, preserving the
// relative order of the rest.
func moveToFront(nodes []string, front string) []string {
	out := make([]string, 0, len(nodes))
	out = append(out, front)
	for _, n := range nodes {
		if n != front {
			out = append(out, n)
		}
	}
	return out
}

// warmSet remembers recently routed spec hashes so the spill logic can
// tell a warm spec (likely cached on its home node) from a cold one.
// Bounded by generation rotation: when the current generation fills,
// it becomes the previous one and lookups consult both.
type warmSet struct {
	mu       sync.Mutex
	capacity int
	cur      map[string]bool
	prev     map[string]bool
}

func newWarmSet(capacity int) *warmSet {
	if capacity <= 0 {
		capacity = 1024
	}
	return &warmSet{capacity: capacity, cur: make(map[string]bool)}
}

func (w *warmSet) add(hash string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.cur) >= w.capacity {
		w.prev = w.cur
		w.cur = make(map[string]bool, w.capacity)
	}
	w.cur[hash] = true
}

func (w *warmSet) has(hash string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.cur[hash] || w.prev[hash]
}

// specHashOf decodes and content-addresses one submission body.
func specHashOf(spec server.Spec) (string, error) {
	return spec.CanonicalHash()
}
