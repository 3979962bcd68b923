// Package server exposes the Thermal Herding simulation stack as a
// long-lived HTTP service (the thermherdd daemon): jobs are submitted
// to a bounded FIFO queue, executed by a fixed worker pool, and their
// JSON results are kept in a content-addressed LRU cache so identical
// resubmissions are answered without re-simulating.
//
// API surface (all JSON):
//
//	POST   /v1/jobs             submit a job (Spec) → Status (202; 200 on cache hit)
//	POST   /v1/jobs:batch       submit up to 256 jobs in one request
//	GET    /v1/jobs             list jobs, filterable by ?status= with pagination
//	GET    /v1/jobs/{id}        job status and progress
//	GET    /v1/jobs/{id}/result the finished job's result document
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/workloads        the runnable workload profiles
//	GET    /v1/configs          the machine configurations
//	GET    /healthz             liveness and drain state
//	GET    /readyz              readiness: 503 while draining or browning out
//	GET    /metrics             expvar-style counters and latency histograms
//
// The daemon is self-healing: a panicking executor is recovered into a
// failed job (the process survives), jobs run under an optional
// per-job deadline, a watchdog retires worker slots stuck on jobs that
// ignore cancellation, and a queue-wait brownout controller sheds load
// with 429 + Retry-After before the queue fills. Named fault points
// (see the Fault* constants) let chaos tests inject latency, errors,
// and panics into the hot paths deterministically.
//
//thermlint:goroutines
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"thermalherd/internal/clock"
	"thermalherd/internal/config"
	"thermalherd/internal/experiments"
	"thermalherd/internal/faultinject"
	"thermalherd/internal/httpjson"
	"thermalherd/internal/journal"
	"thermalherd/internal/qos"
	"thermalherd/internal/replication"
	"thermalherd/internal/stats"
	"thermalherd/internal/trace"
)

// TenantHeader is the HTTP header attributing a submission to a
// tenant; the gateway forwards it byte-for-byte. Missing or empty
// means the "default" tenant.
const TenantHeader = "X-Tenant-ID"

// DefaultTenant buckets submissions that carry no X-Tenant-ID.
const DefaultTenant = "default"

// DedupHeader marks a submit response answered by Idempotency-Key
// dedup — the job was already accepted by an earlier attempt. The
// gateway uses it to count failover retries whose first send was acked
// by a backend that died before responding.
const DedupHeader = "X-Thermherd-Dedup"

// tenantOrDefault normalizes a raw X-Tenant-ID value: trimmed,
// bounded, defaulted.
func tenantOrDefault(t string) string {
	t = strings.TrimSpace(t)
	if t == "" {
		return DefaultTenant
	}
	if len(t) > 64 {
		t = t[:64]
	}
	return t
}

// Fault points threaded through the service's hot paths; arm them on
// a faultinject.Registry passed via Config.Faults. All are no-ops when
// the registry is nil or disarmed.
//
//thermlint:faultpoints
const (
	// FaultExec fires in the worker just before the executor runs a
	// job: an error action fails the job, a panic action exercises the
	// recover path, a delay action stretches its runtime (tripping the
	// job deadline or the watchdog when configured).
	FaultExec = "job.exec"
	// FaultCacheGet degrades a result-cache lookup into a miss.
	FaultCacheGet = "rescache.get"
	// FaultCachePut drops a result-cache store.
	FaultCachePut = "rescache.put"
	// FaultAdmit rejects queue admission with a 503, as if the queue
	// were full.
	FaultAdmit = "queue.admit"
	// FaultRespond fires while writing job-API responses: a delay
	// action slows the write, an error action turns it into a 500.
	FaultRespond = "http.respond"
	// FaultQuota rejects a queue-bound submission as if the tenant's
	// token bucket were empty (429 + Retry-After), regardless of the
	// real quota state.
	FaultQuota = "qos.quota"
)

// Config sizes the daemon.
type Config struct {
	// Workers is the worker pool size; 0 means runtime.NumCPU().
	Workers int
	// QueueDepth bounds queued (not yet running) jobs; 0 means 64.
	QueueDepth int
	// CacheSize bounds the result cache entry count; 0 means 128.
	CacheSize int

	// JobTimeout bounds each job's execution wall time; a job whose
	// executor aborts on the expired context is failed with a
	// deadline-exceeded error. 0 means no per-job deadline.
	JobTimeout time.Duration
	// StuckAfter arms the watchdog: a job still running this long
	// after it started is settled as failed and its worker slot is
	// restarted (the stuck executor goroutine is abandoned). It should
	// comfortably exceed JobTimeout, which handles cooperative
	// executors; the watchdog is the backstop for ones that ignore
	// their context. 0 disables the watchdog.
	StuckAfter time.Duration
	// WatchdogInterval spaces watchdog scans; 0 means StuckAfter/4,
	// clamped to [10ms, 1s]. Ignored when StuckAfter is 0.
	WatchdogInterval time.Duration
	// BrownoutAfter arms the brownout admission controller: when the
	// head-of-queue job has been waiting longer than this, new
	// queue-bound submissions are shed with 429 + Retry-After (cache
	// hits are still served). 0 disables brownout.
	BrownoutAfter time.Duration

	// SchedPolicy selects the queue discipline: SchedFIFO (the default)
	// or SchedQoS, the cost-predicted multi-tenant scheduler.
	SchedPolicy string
	// ShortBudget is the runtime budget of the predicted-short class
	// under SchedQoS: a short job running past it is demoted to the
	// long pool mid-flight and its predictor bucket retrained. 0 means
	// 2s.
	ShortBudget time.Duration
	// ShortReserve is how many worker slots SchedQoS reserves for
	// short-class jobs; long-class concurrency is capped at
	// Workers - ShortReserve. 0 means max(1, Workers/4); values are
	// clamped to leave at least one long slot.
	ShortReserve int
	// TenantRate and TenantBurst arm per-tenant token-bucket admission
	// quotas (jobs/second accrual and bucket capacity). Rate 0 disables
	// quotas. Quotas apply under both scheduling policies.
	TenantRate  float64
	TenantBurst int
	// TenantWeights sets per-tenant weighted-fair dequeue weights under
	// SchedQoS; unlisted tenants weigh 1.
	TenantWeights map[string]int

	// JournalDir enables crash-safe durability: every job lifecycle
	// transition is appended to a write-ahead log there before it is
	// acknowledged, and on startup the journal is replayed to rebuild
	// the job table and re-enqueue unfinished work. Empty (the default)
	// keeps all state in memory.
	JournalDir string
	// FsyncPolicy is the journal's append durability policy: "always"
	// (default) or "off". Ignored without JournalDir.
	FsyncPolicy string
	// NoRecover discards any persisted journal state at startup instead
	// of replaying it.
	NoRecover bool

	// NodeName is this backend's herd name; it keys the replica streams
	// peers send us and suffixes adopted job ids ("<id>@<origin>").
	// Empty is fine for a standalone daemon.
	NodeName string
	// Repl streams every journaled event to the ring successor per its
	// ack policy (nil disables replication). Under the sync policy a
	// failed replica append withholds the submit ack. The server takes
	// ownership: Drain closes the streamer.
	Repl *replication.Streamer

	// Faults is the chaos-testing fault-injection registry; nil (the
	// production default) costs one atomic load per fault point.
	Faults *faultinject.Registry

	// Clock supplies job timestamps, queue-age measurements, and the
	// watchdog cutoff; nil means the wall clock. Tests inject a
	// clock.Fake to drive timing-dependent behavior synchronously.
	Clock clock.Clock
}

// ParseTenantWeights parses a "live=4,batch=1" flag value into
// Config.TenantWeights; "" is nil. Every weight must be a positive
// integer.
func ParseTenantWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	weights := make(map[string]int)
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad tenant weight %q (want tenant=N)", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad tenant weight %q: want a positive integer", part)
		}
		weights[name] = w
	}
	return weights, nil
}

// Server is the simulation-as-a-service daemon. Create one with New,
// launch the worker pool with Start, serve it with net/http (it
// implements http.Handler), and stop it with Drain.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	sched   *qosSched
	cache   *resultCache
	metrics *metrics
	faults  *faultinject.Registry

	// predictor classifies jobs short/long at admission (it annotates
	// statuses under every policy; only SchedQoS acts on it), and
	// quotas holds the per-tenant token buckets (nil when disabled).
	predictor *qos.Predictor
	quotas    *qos.Buckets

	mu     sync.Mutex
	jobs   map[string]*job
	nextID uint64
	// idem maps client Idempotency-Key values to the job id that first
	// carried them, so a retried submission (including one replayed
	// across a restart) is answered with the original job instead of
	// re-executing. Guarded by mu; rebuilt from the journal on recovery.
	idem map[string]string
	// aliases maps adopted job ids (a dead peer's "<id>@<origin>"
	// namespace) to the local job id that already covers them via
	// Idempotency-Key dedup, so the old ids keep resolving without
	// double-registering the work; lookup follows the chain. Guarded by
	// mu.
	aliases map[string]string

	// replica stores peers' streamed journal events until adoption;
	// adoptWatch single-flights the adopted-frontier settle watcher, and
	// the adopted/aliased counters feed the repl.* gauges.
	replica     *replicaStore
	adoptWatch  atomic.Bool
	adoptedJobs atomic.Uint64
	aliasedJobs atomic.Uint64

	// journal is the write-ahead log (nil when durability is off);
	// replay holds what Open recovered until Start applies it, and
	// recovering gates /readyz until that replay completes.
	journal     *journal.Journal
	replay      *journal.Replay
	recovering  atomic.Bool
	replayStats struct{ replayed, truncated, recovered uint64 }
	// settling is held shared by each settle from its claim through its
	// append and exclusively by compaction, so a snapshot never holds a
	// claimed outcome whose record the journal then refuses.
	settling sync.RWMutex

	running  atomic.Int64
	draining atomic.Bool
	wg       sync.WaitGroup

	// readyMu guards the /readyz since-tracking: readyReason is the
	// reason last reported (empty when ready) and readySince is when
	// that condition was first observed, read off the clock seam so the
	// gateway's membership can distinguish a freshly-browning node from
	// a long-dead one.
	readyMu     sync.Mutex
	readyReason string
	readySince  time.Time

	watchdogStop chan struct{}
	watchdogOnce sync.Once

	// memo holds the simulation results every job's runner shares;
	// exec runs one job's spec (runSpec over memo; tests substitute a
	// stub).
	memo *experiments.Memo
	exec func(ctx context.Context, spec Spec, report progressFunc) (json.RawMessage, error)
}

// New builds a server; call Start before serving requests. With
// Config.JournalDir set it also opens (and recovers) the write-ahead
// journal, which can fail — a server refusing to start beats one
// silently running without the durability it was asked for.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 128
	}
	if cfg.StuckAfter > 0 && cfg.WatchdogInterval <= 0 {
		cfg.WatchdogInterval = cfg.StuckAfter / 4
		if cfg.WatchdogInterval < 10*time.Millisecond {
			cfg.WatchdogInterval = 10 * time.Millisecond
		}
		if cfg.WatchdogInterval > time.Second {
			cfg.WatchdogInterval = time.Second
		}
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real()
	}
	if cfg.ShortBudget <= 0 {
		cfg.ShortBudget = 2 * time.Second
	}
	s := &Server{
		cfg:          cfg,
		mux:          http.NewServeMux(),
		cache:        newResultCache(cfg.CacheSize, cfg.Faults),
		metrics:      newMetrics(),
		faults:       cfg.Faults,
		predictor:    qos.NewPredictor(0),
		quotas:       qos.NewBuckets(cfg.TenantRate, cfg.TenantBurst),
		jobs:         make(map[string]*job),
		idem:         make(map[string]string),
		aliases:      make(map[string]string),
		watchdogStop: make(chan struct{}),
		memo:         experiments.NewMemo(),
	}
	s.exec = s.runSpec
	switch cfg.SchedPolicy {
	case "", SchedFIFO:
		s.cfg.SchedPolicy = SchedFIFO
		s.sched = newFIFOSched(cfg.QueueDepth, cfg.Clock)
	case SchedQoS:
		s.sched = newQoSSched(cfg.QueueDepth, cfg.Workers, cfg.ShortReserve,
			s.cfg.ShortBudget, cfg.TenantWeights, s.predictor, cfg.Clock)
	default:
		return nil, fmt.Errorf("unknown scheduling policy %q (want %s or %s)",
			cfg.SchedPolicy, SchedFIFO, SchedQoS)
	}
	if cfg.JournalDir != "" {
		pol, err := journal.ParseFsyncPolicy(cfg.FsyncPolicy)
		if err != nil {
			return nil, err
		}
		jnl, rep, err := journal.Open(journal.Options{Dir: cfg.JournalDir, Fsync: pol, Faults: cfg.Faults})
		if err != nil {
			return nil, err
		}
		if cfg.NoRecover {
			if err := jnl.Reset(); err != nil {
				jnl.Close()
				return nil, err
			}
			rep = nil
		}
		s.journal = jnl
		s.replay = rep
		// Not ready until Start replays; /readyz reports "recovering".
		s.recovering.Store(true)
	}
	// The replica store is file-backed alongside the journal (memory-only
	// without one), so a successor's copy of its peers' records survives
	// the successor's own restart too.
	s.replica = newReplicaStore(cfg.JournalDir, cfg.NoRecover)
	// Anchor the readiness condition at boot so the first /readyz probe
	// already carries a meaningful "since".
	s.readyReason = ""
	if s.recovering.Load() {
		s.readyReason = "recovering"
	}
	s.readySince = cfg.Clock.Now()
	s.routes()
	return s, nil
}

// Start applies the journal replay (rebuilding the job table and
// re-enqueuing unfinished work before any worker can race it), then
// launches the worker pool and, when configured, the stuck-worker
// watchdog.
func (s *Server) Start() {
	s.applyReplay()
	if s.journal != nil {
		// Boot compaction: fold the recovered table into a snapshot so
		// the WAL restarts empty and the next crash replays only events
		// from this incarnation. compact captures under the journal
		// lock and settling — the handler may already be serving
		// admissions and cancels.
		s.compact(false)
	}
	s.recovering.Store(false)
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if s.cfg.StuckAfter > 0 {
		go s.watchdog()
	}
	if s.cfg.SchedPolicy == SchedQoS {
		go s.demoteLoop()
	}
}

// demoteLoop periodically sweeps running jobs for predicted-shorts that
// have overrun the short budget and demotes them (see
// qosSched.demoteOverruns). It runs on the clock seam so fake-clock
// tests drive demotion deterministically, and stops with the watchdog
// at drain.
func (s *Server) demoteLoop() {
	interval := s.cfg.ShortBudget / 4
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	if interval > time.Second {
		interval = time.Second
	}
	for {
		select {
		case <-s.watchdogStop:
			return
		case <-s.cfg.Clock.After(interval):
			s.sched.demoteOverruns()
		}
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Drain gracefully shuts the pool down: new submissions are rejected
// with 503, queued-but-unstarted jobs are canceled, and running jobs
// get until ctx's deadline to finish before their contexts are
// canceled. It returns ctx.Err() when the deadline forced
// cancellation, nil on a clean drain.
func (s *Server) Drain(ctx context.Context) error {
	if s.draining.Swap(true) {
		return nil // already draining
	}
	defer s.watchdogOnce.Do(func() { close(s.watchdogStop) })
	for _, j := range s.sched.drainPending() {
		s.settle(j, StateQueued, StateCanceled, nil, "server shutting down", nil)
	}
	s.sched.close()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		// Deadline passed: cancel whatever is still running and wait
		// for the workers to notice (the runner checks between
		// simulation phases; the watchdog, when armed, retires slots
		// whose executors ignore even that).
		s.mu.Lock()
		for _, j := range s.jobs {
			j.cancel()
		}
		s.mu.Unlock()
		//thermlint:blocking -- every job was just canceled; workers check ctx between phases and the watchdog retires slots that ignore it, so done closes promptly
		<-done
		err = ctx.Err()
	}
	s.cfg.Repl.Close()
	s.closeJournal()
	return err
}

// worker owns one pool slot: it drains the queue until closed and
// empty, running each job in a child goroutine so the slot itself can
// be retired by the watchdog if the executor gets stuck. A retired
// slot's executor goroutine is abandoned — its job is already settled,
// and the settle-once guard keeps the straggler from overwriting
// anything when (if ever) it returns.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.sched.pop()
		if !ok {
			return
		}
		s.metrics.observeQueueWait(j.qclass(), s.cfg.Clock.Since(j.submitted))
		done := make(chan struct{})
		//thermlint:goroutine -- exits when runJob returns; a stuck executor is deliberately abandoned by the watchdog, which restarts the slot
		go func() {
			defer close(done)
			s.runJob(j)
		}()
		select {
		case <-done:
		case <-j.abandoned:
			return // watchdog retired this slot; a replacement is running
		}
	}
}

// watchdog periodically sweeps for jobs stuck past StuckAfter and
// reaps them: the job is failed, its slot restarted.
func (s *Server) watchdog() {
	for {
		select {
		case <-s.watchdogStop:
			return
		case <-s.cfg.Clock.After(s.cfg.WatchdogInterval):
			s.reapStuck()
		}
	}
}

// reapStuck settles every overdue running job as failed and restarts
// its worker slot. The replacement is registered on the WaitGroup
// before the stuck slot is told to retire, so Drain's wg.Wait can
// never observe a transient zero.
func (s *Server) reapStuck() {
	cutoff := s.cfg.Clock.Now().Add(-s.cfg.StuckAfter)
	s.mu.Lock()
	var stuck []*job
	for _, j := range s.jobs {
		if j.runningSince(cutoff) {
			stuck = append(stuck, j)
		}
	}
	s.mu.Unlock()
	for _, j := range stuck {
		msg := fmt.Sprintf("watchdog: job stuck for over %s; worker slot restarted", s.cfg.StuckAfter)
		if !s.settle(j, StateRunning, StateFailed, nil, msg, &s.metrics.workerRestarts) {
			continue // settled in the meantime; nothing to reap
		}
		// Release the scheduler's slot charge for the reaped job; the
		// straggling executor's own deferred release becomes a no-op.
		s.sched.finished(j)
		s.wg.Add(1)
		go s.worker()
		close(j.abandoned)
	}
}

// runJob executes one popped job through the executor and settles its
// terminal state, result cache entry, and metrics. Executor panics are
// recovered into failed jobs; the daemon survives.
func (s *Server) runJob(j *job) {
	// Release the scheduler's slot charge (and train the predictor on
	// the observed runtime) however this job settles. Idempotent: the
	// watchdog releases reaped jobs first and this becomes a no-op.
	defer s.sched.finished(j)
	if !j.tryStart() {
		return // canceled while queued; already counted
	}
	s.running.Add(1)
	defer s.running.Add(-1)
	ctx := j.ctx
	if s.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(j.ctx, s.cfg.JobTimeout)
		defer cancel()
	}
	start := s.cfg.Clock.Now()
	res, err, panicked := s.execJob(ctx, j)
	state, msg := StateDone, ""
	var cause *stats.Counter // the sub-counter attributing a failure
	switch {
	case panicked:
		state, msg, cause = StateFailed, "recovered "+err.Error(), &s.metrics.panicsRecovered
	case j.ctx.Err() != nil:
		state, msg = StateCanceled, "canceled: "+j.ctx.Err().Error()
	case err != nil && ctx.Err() == context.DeadlineExceeded:
		state, cause = StateFailed, &s.metrics.deadlineExceeded
		msg = fmt.Sprintf("deadline exceeded: job ran %s against a %s job timeout",
			s.cfg.Clock.Since(start).Round(time.Millisecond), s.cfg.JobTimeout)
	case err != nil:
		state, msg = StateFailed, err.Error()
	}
	if state != StateDone {
		res = nil
	}
	s.settle(j, StateRunning, state, res, msg, cause)
	s.metrics.observeLatency(j.spec.Kind, s.cfg.Clock.Since(start))
	s.compactMaybe()
}

// settle is the only terminal transition of an acknowledged job, and
// it makes the outcome durable before any client can see it: claim the
// transition from state from (the settle-once CAS), append its record,
// replicate it, count it, cache a done result, and only then publish
// it. A refused append leaves nothing in the WAL (and settling keeps
// compaction out from between claim and append), so the job settles
// failed with the journal error instead — unless it migrated, as the
// adopter already holds it — and its record is appended again, best
// effort. A failed replication after a good append is counted in
// repl.stream_errors. detail is the error message, or the adopting
// node for StateMigrated; cause, when non-nil, is a sub-counter
// attributing why (panics, deadlines, watchdog restarts). It reports
// false, changing nothing, when the job is not in from.
func (s *Server) settle(j *job, from, to State, result json.RawMessage, detail string, cause *stats.Counter) bool {
	s.settling.RLock()
	if !j.claim(from, to, result, detail) {
		s.settling.RUnlock()
		return false
	}
	ev := j.terminalEvent()
	if err := s.appendEvent(&ev); err != nil {
		if to != StateMigrated {
			j.claim(to, StateFailed, nil, "journal append failed: "+err.Error())
			to, ev = StateFailed, j.terminalEvent()
		}
		s.appendEvent(&ev) // best effort: the journal just refused a record
	}
	s.settling.RUnlock()
	s.cfg.Repl.Replicate(ev)
	s.metrics.settled(j.tenant, stateOutcome[to])
	if to == StateDone {
		s.cache.put(j.key, result)
	}
	if cause != nil {
		s.metrics.inc(cause)
	}
	j.publish()
	return true
}

// register stores j under a fresh id, recording its idempotency key
// (when the client sent one) for dedup.
func (s *Server) register(j *job, idemKey string) {
	s.mu.Lock()
	s.jobs[j.id] = j
	if idemKey != "" {
		s.idem[idemKey] = j.id
	}
	s.mu.Unlock()
}

// unregister rolls back a registration whose admission then failed
// (journal append error, queue overflow), so the job is unreachable
// and its idempotency key is free for a retry.
func (s *Server) unregister(j *job, idemKey string) {
	s.mu.Lock()
	delete(s.jobs, j.id)
	if idemKey != "" && s.idem[idemKey] == j.id {
		delete(s.idem, idemKey)
	}
	s.mu.Unlock()
}

// lookup finds a job by id, following the adoption alias table: an
// adopted id whose work was already covered by a local job (same
// Idempotency-Key) resolves through the chain. The hop bound guards
// against a cyclic table, which no write path can produce.
func (s *Server) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for hops := 0; hops < 8; hops++ {
		if j, ok := s.jobs[id]; ok {
			return j, true
		}
		next, ok := s.aliases[id]
		if !ok {
			return nil, false
		}
		id = next
	}
	return nil, false
}

// sortedJobs copies the job table in id order — submission order, as
// ids are zero-padded and monotonic — with each job's idempotency key
// by id.
func (s *Server) sortedJobs() ([]*job, map[string]string) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	idemByID := make(map[string]string, len(s.idem))
	for key, id := range s.idem {
		idemByID[id] = key
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].id < jobs[k].id })
	return jobs, idemByID
}

// newID mints a monotonically increasing job id.
func (s *Server) newID() string {
	s.mu.Lock()
	s.nextID++
	id := s.nextID
	s.mu.Unlock()
	return fmt.Sprintf("job-%06d", id)
}

// Metrics returns the /metrics document; exported for the daemon's
// logs and tests.
func (s *Server) Metrics() map[string]any {
	browning, _ := s.brownout()
	g := gauges{
		queueDepth:       s.sched.len(),
		queueCap:         s.sched.cap(),
		running:          int(s.running.Load()),
		cacheLen:         s.cache.len(),
		cacheCap:         s.cache.capacity(),
		workers:          s.cfg.Workers,
		brownoutActive:   browning,
		faultsInjected:   s.faults.Counts(),
		journalReplayed:  s.replayStats.replayed,
		journalTruncated: s.replayStats.truncated,
		journalRecovered: s.replayStats.recovered,
		schedPolicy:      s.cfg.SchedPolicy,
		predictor:        s.predictor.Stats(),
		memo:             s.memo.Stats(),
	}
	if s.cfg.SchedPolicy == SchedQoS {
		g.queuedShort, g.queuedLong, g.runningShort, g.runningLong = s.sched.counts()
	}
	if s.journal != nil {
		st := s.journal.Stats()
		g.journalAppends, g.journalFsyncs = st.Appends, st.Fsyncs
	}
	g.replPolicy = string(s.cfg.Repl.Policy())
	rst := s.cfg.Repl.Stats()
	g.replStreamed, g.replStreamErrors = rst.Streamed, rst.StreamErrors
	g.replReplicaEvents = s.replica.receivedEvents()
	g.replAdopted = s.adoptedJobs.Load()
	g.replAliased = s.aliasedJobs.Load()
	return s.metrics.snapshot(g)
}

// routes installs the HTTP endpoints.
func (s *Server) routes() {
	httpjson.Route(s.mux, "/v1/jobs", map[string]http.HandlerFunc{
		http.MethodPost: s.handleSubmit,
		http.MethodGet:  s.handleList,
	})
	httpjson.Route(s.mux, "/v1/jobs:batch", map[string]http.HandlerFunc{
		http.MethodPost: s.handleSubmitBatch,
	})
	httpjson.Route(s.mux, "/v1/jobs/{id}", map[string]http.HandlerFunc{
		http.MethodGet:    s.handleStatus,
		http.MethodDelete: s.handleCancel,
	})
	httpjson.Route(s.mux, "/v1/jobs/{id}/result", map[string]http.HandlerFunc{
		http.MethodGet: s.handleResult,
	})
	httpjson.Route(s.mux, "/v1/replica/{origin}", map[string]http.HandlerFunc{
		http.MethodPost: s.handleReplicaAppend,
	})
	httpjson.Route(s.mux, "/v1/replica/{origin}/adopt", map[string]http.HandlerFunc{
		http.MethodPost: s.handleReplicaAdopt,
	})
	httpjson.Route(s.mux, "/v1/migrate", map[string]http.HandlerFunc{
		http.MethodPost: s.handleMigrate,
	})
	httpjson.Route(s.mux, "/v1/workloads", map[string]http.HandlerFunc{http.MethodGet: s.handleWorkloads})
	httpjson.Route(s.mux, "/v1/configs", map[string]http.HandlerFunc{http.MethodGet: s.handleConfigs})
	httpjson.Route(s.mux, "/healthz", map[string]http.HandlerFunc{http.MethodGet: s.handleHealthz})
	httpjson.Route(s.mux, "/readyz", map[string]http.HandlerFunc{http.MethodGet: s.handleReadyz})
	httpjson.Route(s.mux, "/metrics", map[string]http.HandlerFunc{http.MethodGet: s.handleMetrics})
}

// respond writes a job-API success document through the FaultRespond
// fault point: an injected delay slows the write, an injected error
// turns the response into a 500.
func (s *Server) respond(w http.ResponseWriter, status int, v any) {
	if err := s.faults.Fire(FaultRespond); err != nil {
		httpjson.Error(w, http.StatusInternalServerError, "%v", err)
		return
	}
	httpjson.Write(w, status, v)
}

// brownoutError is admit's load-shedding rejection; the HTTP layer
// maps it to a 429 with a Retry-After header.
type brownoutError struct {
	wait       time.Duration
	retryAfter int // seconds
}

func (e *brownoutError) Error() string {
	return fmt.Sprintf("shedding load: queued jobs waiting %s; retry in %ds",
		e.wait.Round(time.Millisecond), e.retryAfter)
}

// brownout reports whether the queue-wait admission controller is
// shedding, and the Retry-After hint (in seconds) to send with
// rejections.
func (s *Server) brownout() (bool, int) {
	if s.cfg.BrownoutAfter <= 0 {
		return false, 0
	}
	wait := s.sched.oldestWait()
	if wait <= s.cfg.BrownoutAfter {
		return false, 0
	}
	// Suggest retrying after roughly the backlog's current age: by
	// then the head-of-line wait has either cleared or the client
	// re-sheds cheaply.
	return true, int(wait/time.Second) + 1
}

// quotaError is admit's per-tenant quota rejection; the HTTP layer
// maps it to a 429 with a Retry-After header, like brownout.
type quotaError struct {
	tenant     string
	retryAfter int // seconds
}

func (e *quotaError) Error() string {
	return fmt.Sprintf("tenant %q over admission quota; retry in %ds", e.tenant, e.retryAfter)
}

// setRetryAfter stamps the Retry-After header for brownout and quota
// rejections.
func setRetryAfter(w http.ResponseWriter, err error) {
	var be *brownoutError
	if errors.As(err, &be) {
		w.Header().Set("Retry-After", strconv.Itoa(be.retryAfter))
		return
	}
	var qe *quotaError
	if errors.As(err, &qe) {
		w.Header().Set("Retry-After", strconv.Itoa(qe.retryAfter))
	}
}

// admit validates one spec and either answers it from the cache (or
// idempotency-key dedup), or enqueues it, mirroring the single-submit
// metrics on both paths. With the journal enabled, a queue-bound job
// is journaled before it is acknowledged — the 202 is a durability
// promise. tenant is the raw X-Tenant-ID value; every path attributes
// the submission to its (normalized) tenant so the accounting identity
// holds per tenant as well as globally. It returns the job's status
// plus the HTTP code to report: 200 on a cache hit or dedup, 202 when
// queued, 400/429/503 (with err set) on rejection. dedup is true only
// on the Idempotency-Key path — the signal a retrying gateway uses to
// count a failover whose first attempt was acked before the backend
// died.
func (s *Server) admit(spec Spec, idemKey, tenant string) (st Status, code int, dedup bool, err error) {
	if err := spec.normalize(); err != nil {
		return Status{}, http.StatusBadRequest, false, fmt.Errorf("invalid job: %w", err)
	}
	tenant = tenantOrDefault(tenant)
	// Idempotency-key dedup: a resubmission of a key we have already
	// accepted (in this incarnation or, via the journal, a previous
	// one) is answered with the original job — the retried batch after
	// a restart must not double-execute. The submission still counts
	// as submitted + a cache hit (it was absorbed without executing
	// anything), keeping the accounting identity intact; deduped
	// attributes it.
	if idemKey != "" {
		s.mu.Lock()
		id, ok := s.idem[idemKey]
		var j *job
		if ok {
			j = s.jobs[id]
		}
		s.mu.Unlock()
		if j != nil {
			s.metrics.inc(&s.metrics.deduped)
			s.metrics.answered(tenant, outHits)
			return j.status(), http.StatusOK, true, nil
		}
	}
	j, err := newJob(s.newID(), spec, s.cfg.Clock)
	if err != nil {
		return Status{}, http.StatusBadRequest, false, fmt.Errorf("invalid job: %w", err)
	}
	j.tenant = tenant
	if res, ok := s.cache.get(j.key); ok {
		s.metrics.answered(tenant, outHits)
		j.finishFromCache(res)
		s.register(j, idemKey)
		// Best-effort journaling: the 200 response already carries the
		// result, so losing this record costs only post-restart dedup.
		s.logEvent(acceptedEvent(j, idemKey))
		s.logEvent(j.terminalEvent())
		return j.status(), http.StatusOK, false, nil
	}
	s.metrics.inc(&s.metrics.cacheMisses)
	// Per-tenant quota: a tenant over its token bucket is shed with
	// 429 + Retry-After before it can occupy queue space. Cache hits
	// and dedups above are free — quotas meter execution capacity.
	if ferr := s.faults.Fire(FaultQuota); ferr != nil {
		s.metrics.inc(&s.metrics.quotaRejects)
		s.metrics.answered(tenant, outRejected)
		return Status{}, http.StatusTooManyRequests, false, &quotaError{tenant: tenant, retryAfter: 1}
	}
	if ok, retry := s.quotas.Take(tenant, s.cfg.Clock.Now()); !ok {
		s.metrics.inc(&s.metrics.quotaRejects)
		s.metrics.answered(tenant, outRejected)
		return Status{}, http.StatusTooManyRequests, false,
			&quotaError{tenant: tenant, retryAfter: int(retry/time.Second) + 1}
	}
	// Brownout sheds queue-bound work while admission is still
	// technically possible — a 429 the client can back off on beats a
	// 503 storm when the queue finally overflows.
	if shedding, retryAfter := s.brownout(); shedding {
		s.metrics.inc(&s.metrics.brownoutRejects)
		s.metrics.answered(tenant, outRejected)
		return Status{}, http.StatusTooManyRequests, false,
			&brownoutError{wait: s.sched.oldestWait(), retryAfter: retryAfter}
	}
	if err := s.faults.Fire(FaultAdmit); err != nil {
		s.metrics.answered(tenant, outRejected)
		return Status{}, http.StatusServiceUnavailable, false, err
	}
	// Classify for the scheduler: the cost predictor's verdict rides on
	// the job into the queue (and into its visible status).
	j.setClass(s.predictor.Predict(j.pkey))
	// Register before journaling: compaction snapshots the job table
	// and truncates the WAL atomically with respect to appends, which
	// is only lossless if the table is never older than the WAL — every
	// event's in-memory state change must happen before its append (see
	// compactMaybe). If the append then fails, the submission is
	// rejected un-acked and the registration is rolled back; if we
	// crash after it, the replay resurrects a job the client may never
	// have seen acked — harmless, since execution is idempotent.
	s.register(j, idemKey)
	if err := s.logEvent(acceptedEvent(j, idemKey)); err != nil {
		s.unregister(j, idemKey)
		s.metrics.answered(tenant, outRejected)
		return Status{}, http.StatusServiceUnavailable, false,
			fmt.Errorf("journal write failed; job not accepted: %w", err)
	}
	// Count the submission before the hand-off: a worker may settle
	// the job before push even returns.
	s.metrics.accepted(tenant)
	if err := s.sched.push(j); err != nil {
		// The acceptance is journaled; record the cancellation so a
		// replay does not resurrect a job the client saw rejected, and
		// roll back the registration so a retry of the same idempotency
		// key re-enqueues instead of deduping to a dead job. No client
		// saw this job, so its acceptance settles here as rejected.
		j.claim(StateQueued, StateCanceled, nil, "queue rejected job")
		s.logEvent(j.terminalEvent())
		j.cancel()
		s.unregister(j, idemKey)
		s.metrics.settled(tenant, outRejected)
		return Status{}, http.StatusServiceUnavailable, false, err
	}
	return j.status(), http.StatusAccepted, false, nil
}

// acceptedEvent renders a job's admission for the journal.
func acceptedEvent(j *job, idemKey string) journal.Event {
	spec, _ := marshalSpec(j.spec)
	return journal.Event{Type: journal.EventAccepted, ID: j.id, Spec: spec, Key: j.key, IdemKey: idemKey, Tenant: j.tenant}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tenant := r.Header.Get(TenantHeader)
	if s.draining.Load() {
		s.metrics.answered(tenantOrDefault(tenant), outRejected)
		httpjson.Error(w, http.StatusServiceUnavailable, "server is draining; not accepting jobs")
		return
	}
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		httpjson.Error(w, http.StatusBadRequest, "bad job payload: %v", err)
		return
	}
	st, code, dedup, err := s.admit(spec, r.Header.Get("Idempotency-Key"), tenant)
	if err != nil {
		setRetryAfter(w, err)
		httpjson.Error(w, code, "%v", err)
		return
	}
	if dedup {
		// Tells a retrying gateway the first attempt of this submission
		// was already acked here — the failover-dedup accounting signal.
		w.Header().Set(DedupHeader, "1")
	}
	s.respond(w, code, st)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		httpjson.Error(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	s.respond(w, http.StatusOK, j.status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		httpjson.Error(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	state, result, errMsg := j.snapshotResult()
	switch state {
	case StateDone:
		if err := s.faults.Fire(FaultRespond); err != nil {
			httpjson.Error(w, http.StatusInternalServerError, "%v", err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(result)
	case StateFailed:
		httpjson.Error(w, http.StatusInternalServerError, "job failed: %s", errMsg)
	case StateCanceled:
		httpjson.Error(w, http.StatusConflict, "job was canceled: %s", errMsg)
	default:
		httpjson.Write(w, http.StatusConflict, j.status())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		httpjson.Error(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	if s.settle(j, StateQueued, StateCanceled, nil, "canceled by client", nil) {
		// Never started; the worker will skip it when popped.
		httpjson.Write(w, http.StatusOK, j.status())
		return
	}
	st := j.status()
	switch st.State {
	case StateRunning:
		// The worker settles the state (and metrics) once the runner
		// observes the canceled context.
		j.cancel()
		httpjson.Write(w, http.StatusOK, st)
	case StateQueued: // a migration's handoff, or another settle, holds it
		httpjson.Error(w, http.StatusConflict, "job %s is being migrated or settled; retry the cancel", st.ID)
	default:
		httpjson.Error(w, http.StatusConflict, "job %s is already %s", st.ID, st.State)
	}
}

// workloadInfo is one GET /v1/workloads entry.
type workloadInfo struct {
	Name       string `json:"name"`
	Group      string `json:"group"`
	WorkingSet uint64 `json:"working_set_bytes"`
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	suite := trace.Suite()
	out := make([]workloadInfo, len(suite))
	for i, p := range suite {
		out[i] = workloadInfo{Name: p.Name, Group: p.Group.String(), WorkingSet: p.WorkingSet}
	}
	httpjson.Write(w, http.StatusOK, out)
}

// configInfo is one GET /v1/configs entry.
type configInfo struct {
	Name           string  `json:"name"`
	ClockGHz       float64 `json:"clock_ghz"`
	ThreeD         bool    `json:"three_d"`
	ThermalHerding bool    `json:"thermal_herding"`
}

func (s *Server) handleConfigs(w http.ResponseWriter, r *http.Request) {
	regs := config.Registry()
	out := make([]configInfo, len(regs))
	for i, m := range regs {
		out[i] = configInfo{Name: m.Name, ClockGHz: m.ClockGHz, ThreeD: m.ThreeD, ThermalHerding: m.ThermalHerding}
	}
	httpjson.Write(w, http.StatusOK, out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	httpjson.Write(w, http.StatusOK, map[string]any{
		"status":  status,
		"workers": s.cfg.Workers,
	})
}

// sinceReason tracks how long the current readiness condition has
// held: when the observed reason differs from the last one, the
// transition is stamped off the clock seam; repeated probes under the
// same reason keep the original timestamp. The returned time is
// machine-readable in the /readyz document so gateway membership can
// tell a freshly-browning node from a long-dead one.
func (s *Server) sinceReason(reason string) time.Time {
	s.readyMu.Lock()
	defer s.readyMu.Unlock()
	if reason != s.readyReason || s.readySince.IsZero() {
		s.readyReason = reason
		s.readySince = s.cfg.Clock.Now()
	}
	return s.readySince
}

// handleReadyz is the load-balancer readiness probe, distinct from the
// /healthz liveness probe: a live daemon stops being ready while it
// drains or sheds load, so rotations pull it before clients see
// rejections. Every document carries a "since" timestamp: when the
// current condition (ready, or the specific not-ready reason) was
// first observed.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	notReady := func(reason string, extra map[string]any) {
		doc := map[string]any{
			"ready":  false,
			"reason": reason,
			"since":  s.sinceReason(reason).Format(time.RFC3339Nano),
		}
		for k, v := range extra {
			doc[k] = v
		}
		httpjson.Write(w, http.StatusServiceUnavailable, doc)
	}
	if s.recovering.Load() {
		notReady("recovering", nil)
		return
	}
	if s.draining.Load() {
		notReady("draining", nil)
		return
	}
	if shedding, retryAfter := s.brownout(); shedding {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
		notReady("brownout", map[string]any{"retry_after_sec": retryAfter})
		return
	}
	httpjson.Write(w, http.StatusOK, map[string]any{
		"ready": true,
		"since": s.sinceReason("").Format(time.RFC3339Nano),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	httpjson.Write(w, http.StatusOK, s.Metrics())
}
