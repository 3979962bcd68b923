package gateway

import (
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
	mux     *http.ServeMux
	hc      *http.Client
	metrics *gwMetrics
	warm    *warmSet
	hedger  *hedger
	budget  *retryBudget

	// epoch counts topology generations: 1 after the initial build,
	// bumped on every node that joins or leaves the ring.
	epoch atomic.Uint64

	// mu guards the ring, the node table and every field of every node
	// record. A routing decision reads one consistent generation because
	// it takes mu once.
	mu   sync.Mutex
	ring *Ring
	// nodes holds one record per name the gateway has known: the ring's
	// members and, marked removed, the tombstones of those that left.
	nodes map[string]*node
	// lastNode caches the lexically-last ring node: the deterministic
	// FaultStraggler target, recomputed on topology change.
	lastNode string

	// The prober's lifetime: Start launches run, Close stops it and
	// waits out any in-flight takeover adoptions.
	started    atomic.Bool
	stop       chan struct{}
	stopOnce   sync.Once
	done       chan struct{}
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
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 500 * time.Millisecond
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 5 * time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real()
	}
	g := &Gateway{
		cfg:     cfg,
		ring:    NewRing(DefaultVNodes),
		nodes:   make(map[string]*node, len(cfg.Backends)),
		mux:     http.NewServeMux(),
		hc:      &http.Client{},
		metrics: &gwMetrics{},
		warm:    newWarmSet(8192),
		hedger:  newHedger(),
		budget:  newRetryBudget(cfg.RetryBudgetRatio, cfg.RetryBudgetBurst),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	for _, b := range cfg.Backends {
		b.URL = strings.TrimRight(b.URL, "/")
		if err := validateBackend(b); err != nil {
			return nil, err
		}
		// Optimistic boot: a backend starts healthy so the first requests
		// need not wait out a probe cycle; a dead one is ejected within
		// FailThreshold probes (and suspected at once on a failed forward).
		if _, err := g.join(b, NodeHealthy); err != nil {
			return nil, fmt.Errorf("gateway: duplicate backend name %q", b.Name)
		}
	}
	g.epoch.Store(1)
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

// join adds a backend to the ring in the given membership state and
// returns the new epoch. A name already in the ring is refused, and so
// is the name of a node taken over by a successor: the successor
// serves its old ids, and a new node under the name would mint the
// same ids (job-000001@<name> first) and never see reads for them. A
// plainly removed name sheds its tombstone and comes back fresh — no
// drain pin, a closed circuit.
func (g *Gateway) join(b Backend, state NodeState) (uint64, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if n, ok := g.nodes[b.Name]; ok && !n.removed {
		return 0, fmt.Errorf("backend %q already exists", b.Name)
	} else if ok && n.adoptedBy != "" {
		return 0, fmt.Errorf("backend %q was taken over by %q, which still serves its job ids; add the node under a new name", b.Name, n.adoptedBy)
	}
	g.nodes[b.Name] = &node{backend: b, state: state, since: g.cfg.Clock.Now(), circuit: breakerClosed}
	g.ring.Add(b.Name)
	g.recomputeLastLocked()
	return g.epoch.Add(1), nil
}

// leave takes a node out of the ring and keeps its record as a
// tombstone, so <id>@<name> reads minted before still route while the
// process lives — or, when adoptedBy names the successor that adopted
// its journal, to that successor. It returns the new epoch. The admin
// DELETE and takeover share it, so a node leaves the same way whoever
// evicted it; an adoption is recorded even on a node already removed.
func (g *Gateway) leave(name, adoptedBy string) uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	n, ok := g.nodes[name]
	if !ok {
		return g.epoch.Load()
	}
	if adoptedBy != "" {
		n.adoptedBy = adoptedBy
	}
	if n.removed {
		return g.epoch.Load()
	}
	n.removed = true
	g.ring.Remove(name)
	g.recomputeLastLocked()
	return g.epoch.Add(1)
}

// recomputeLastLocked refreshes the cached straggler-fault target (the
// lexically-last ring node); callers hold mu.
func (g *Gateway) recomputeLastLocked() {
	nodes := g.ring.Nodes()
	g.lastNode = ""
	if len(nodes) > 0 {
		g.lastNode = nodes[len(nodes)-1]
	}
}

// Epoch returns the current topology generation.
func (g *Gateway) Epoch() uint64 { return g.epoch.Load() }

// lookupBackend resolves a node name to its backend, tombstones
// included, so reads routed by an old <id>@<node> still work after an
// admin removal.
func (g *Gateway) lookupBackend(name string) (Backend, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	n, ok := g.nodes[name]
	if !ok {
		return Backend{}, false
	}
	return n.backend, true
}

// activeBackend resolves a name against the ring's members only (no
// tombstones): admin operations act on current members.
func (g *Gateway) activeBackend(name string) (Backend, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	n, ok := g.nodes[name]
	if !ok || n.removed {
		return Backend{}, false
	}
	return n.backend, true
}

// successor returns the ring successor of a node: the peer that holds
// its replica journal, and so the one to adopt or receive its jobs.
// There is none for a node alone on the ring.
func (g *Gateway) successor(name string) (Backend, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	n, ok := g.nodes[g.ring.SuccessorOf(name)]
	if !ok {
		return Backend{}, false
	}
	return n.backend, true
}

// inflightOf returns the node's in-flight submits; 0 for a name that is
// not in the ring.
func (g *Gateway) inflightOf(name string) int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if n, ok := g.nodes[name]; ok && !n.removed {
		return n.inflight
	}
	return 0
}

// ringNodes snapshots the active ring membership.
func (g *Gateway) ringNodes() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.ring.Nodes()
}

// Start launches the membership probe loop.
func (g *Gateway) Start() {
	g.started.Store(true)
	go g.run()
}

// Close stops the membership probe loop and waits out any in-flight
// takeover adoptions. A gateway that was never started has no loop to
// wait for.
func (g *Gateway) Close() {
	g.stopOnce.Do(func() { close(g.stop) })
	if g.started.Load() {
		//thermlint:blocking -- done is closed unconditionally when run exits; the wait is bounded by one probe round
		<-g.done
	}
	//thermlint:blocking -- each takeover goroutine is bounded by takeoverTimeout HTTP deadlines
	g.takeoverWG.Wait()
}

// Backends returns every active node's health snapshot, circuit
// position included.
func (g *Gateway) Backends() []NodeHealth {
	docs := g.snapshot()
	out := make([]NodeHealth, len(docs))
	for i, d := range docs {
		out[i] = d.NodeHealth
	}
	return out
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
	g.mu.Lock()
	defer g.mu.Unlock()
	succ := g.ring.Successors(hash, g.ring.Len())
	if len(succ) == 0 {
		return routePlan{}, fmt.Errorf("gateway: hash ring is empty")
	}
	now := g.cfg.Clock.Now()
	var routable []string
	for _, name := range succ {
		if n := g.nodes[name]; n.state.routable() && n.available(now, g.cfg.BreakerCooldown) {
			routable = append(routable, name)
		}
	}
	if len(routable) == 0 {
		return routePlan{}, fmt.Errorf("gateway: no routable backends (%d configured, all ejected)", len(succ))
	}
	home := succ[0]
	homeState := g.nodes[home].state
	if !homeState.routable() {
		// Prefer healthy failover targets over browning-out ones.
		order := append(g.filterLocked(routable, NodeHealthy), g.filterLocked(routable, NodeBrownout)...)
		return routePlan{order: order, failedOver: true}, nil
	}
	if homeState == NodeHealthy || g.warm.has(hash) {
		return routePlan{order: moveToFront(routable, home)}, nil
	}
	// Home is browning out and the spec is cold: spill. Power of two
	// choices over the healthy successors; the home node stays in the
	// order as the last resort.
	healthy := g.filterLocked(routable, NodeHealthy)
	if len(healthy) == 0 {
		return routePlan{order: moveToFront(routable, home)}, nil
	}
	pick := healthy[0]
	if len(healthy) >= 2 {
		a, b := healthy[0], healthy[1]
		if g.nodes[b].inflight < g.nodes[a].inflight {
			pick = b
		}
	}
	order := moveToFront(routable, pick)
	return routePlan{order: order, spilled: true}, nil
}

// filterLocked keeps the ring nodes in the wanted state; callers hold
// mu.
func (g *Gateway) filterLocked(names []string, want NodeState) []string {
	var out []string
	for _, name := range names {
		if g.nodes[name].state == want {
			out = append(out, name)
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
