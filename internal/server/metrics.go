package server

import (
	"sync"
	"time"

	"thermalherd/internal/experiments"
	"thermalherd/internal/qos"
	"thermalherd/internal/stats"
)

// metrics aggregates the expvar-style counters served at /metrics.
// One mutex guards everything: updates are a few counter increments
// on job-lifecycle events, far off any hot path.
//
// The accounting identity counters live only per tenant (see
// tenantCounters); the global jobs.* and cache.hits values are their
// sums, so the two views cannot drift apart.
type metrics struct {
	mu sync.Mutex

	// Resilience sub-counters: panicsRecovered and deadlineExceeded
	// jobs are also counted as failed; brownoutRejects and quotaRejects
	// are also counted as rejected. The sub-counters attribute *why*.
	panicsRecovered  stats.Counter
	deadlineExceeded stats.Counter
	brownoutRejects  stats.Counter
	quotaRejects     stats.Counter
	workerRestarts   stats.Counter

	// deduped attributes submissions answered by idempotency-key
	// dedup; each is also counted as submitted and a hit (the
	// submission was absorbed without executing anything).
	deduped stats.Counter

	cacheMisses stats.Counter

	batchRequests stats.Counter
	listRequests  stats.Counter

	// latency histograms per job kind, in milliseconds.
	latency map[Kind]*stats.Histogram
	// qwait histograms attribute queue wait per predicted class — the
	// direct measure of whether the short fast pool is working.
	qwait map[string]*stats.Histogram

	// tenants holds the accounting identity counters per tenant, in
	// first-seen order for deterministic emission. Bounded: beyond
	// maxTenantCounters distinct tenants, new ones fold into "other".
	tenants     map[string]*tenantCounters
	tenantOrder []string
}

// outcome is how a submission settled: one right-hand term of the
// per-tenant accounting identity submitted = hits + completed + failed
// + canceled + rejected + migrated, which loadgen.ChaosCheck reconciles
// fleet-wide (migrated jobs are adopted and re-submitted by the ring
// successor, so it subtracts them). There is no submitted outcome: the
// left side moves only through answered and accepted below.
type outcome int

const (
	outHits outcome = iota
	outCompleted
	outFailed
	outCanceled
	outRejected
	outMigrated
	numOutcomes
)

// outcomeNames are the tenant sub-document's outcome leaf names,
// indexed by outcome; they mirror the global identity counters.
var outcomeNames = [numOutcomes]string{"hits", "completed", "failed", "canceled", "rejected", "migrated"}

// stateOutcome is the outcome each terminal job state counts as.
var stateOutcome = map[State]outcome{
	StateDone:     outCompleted,
	StateFailed:   outFailed,
	StateCanceled: outCanceled,
	StateMigrated: outMigrated,
}

// tenantCounters is one tenant's slice of the accounting identity.
type tenantCounters struct {
	submitted uint64
	outcomes  [numOutcomes]uint64
}

// maxTenantCounters bounds the per-tenant metric map against tenant
// churn; overflow tenants share the "other" bucket.
const maxTenantCounters = 64

// overflowTenant aggregates tenants beyond maxTenantCounters.
const overflowTenant = "other"

func newMetrics() *metrics {
	m := &metrics{
		latency: make(map[Kind]*stats.Histogram),
		qwait:   make(map[string]*stats.Histogram),
		tenants: make(map[string]*tenantCounters),
	}
	for _, k := range Kinds() {
		// 40 × 250 ms buckets span 0–10 s; slower jobs land in the
		// overflow bucket.
		m.latency[k] = stats.NewHistogram(metricLatencyHistPrefix+string(k), 0, 250, 40)
	}
	for c := qos.Class(0); c < qos.NumClasses; c++ {
		// 50 × 100 ms buckets span 0–5 s of queue wait.
		m.qwait[c.String()] = stats.NewHistogram(metricQueueWaitHistPrefix+c.String(), 0, 100, 50)
	}
	return m
}

func (m *metrics) inc(c *stats.Counter) {
	m.mu.Lock()
	c.Inc()
	m.mu.Unlock()
}

// answered counts a submission the server answered itself — a cache
// hit, a dedup, a rejection, or a journaled terminal record — as
// submitted and its outcome in one locked step.
//
//thermlint:callers admit handleSubmit handleSubmitBatch restore
func (m *metrics) answered(tenant string, o outcome) { m.count(tenant, 1, o, 1) }

// accepted counts a submission handed to the scheduler. It must come
// before the hand-off, so no scrape sees the job's outcome first.
//
//thermlint:callers admit restore
func (m *metrics) accepted(tenant string) { m.count(tenant, 1, 0, 0) }

// settled counts the outcome of an accepted submission: once per
// claim in Server.settle, or as rejected when admit's push is refused.
//
//thermlint:callers settle admit
func (m *metrics) settled(tenant string, o outcome) { m.count(tenant, 0, o, 1) }

// count adds submitted submissions and n outcomes o to the counters of
// tenant (already normalized by tenantOrDefault) in one locked step,
// creating its slot on first sight, or folding it into the overflow
// bucket once the map is full.
//
//thermlint:callers answered accepted settled
func (m *metrics) count(tenant string, submitted uint64, o outcome, n uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	tc, ok := m.tenants[tenant]
	if !ok {
		if len(m.tenants) >= maxTenantCounters {
			tenant = overflowTenant
			tc = m.tenants[tenant]
		}
		if tc == nil {
			tc = &tenantCounters{}
			m.tenants[tenant] = tc
			m.tenantOrder = append(m.tenantOrder, tenant)
		}
	}
	tc.submitted += submitted
	tc.outcomes[o] += n
}

// observeQueueWait records one popped job's time in queue under its
// predicted class.
func (m *metrics) observeQueueWait(c qos.Class, d time.Duration) {
	m.mu.Lock()
	if h, ok := m.qwait[c.String()]; ok {
		h.Observe(int(d.Milliseconds()))
	}
	m.mu.Unlock()
}

// observeLatency records one finished job's wall time.
func (m *metrics) observeLatency(k Kind, d time.Duration) {
	m.mu.Lock()
	if h, ok := m.latency[k]; ok {
		h.Observe(int(d.Milliseconds()))
	}
	m.mu.Unlock()
}

// gauges carries the point-in-time values snapshot folds into the
// /metrics document alongside the counters.
type gauges struct {
	queueDepth, queueCap int
	running              int
	cacheLen, cacheCap   int
	workers              int
	brownoutActive       bool
	// schedPolicy is the configured queue discipline; the per-class
	// occupancy gauges below are populated only under the qos policy.
	schedPolicy               string
	predictor                 qos.PredictorStats
	queuedShort, queuedLong   int
	runningShort, runningLong int
	// faultsInjected is the per-fault-point injected count from the
	// fault-injection registry (empty when disarmed).
	faultsInjected map[string]uint64
	// Journal durability gauges; all zero when the journal is disabled
	// (the keys are still emitted so dashboards need no conditionals).
	journalAppends   uint64
	journalFsyncs    uint64
	journalReplayed  uint64
	journalTruncated uint64
	journalRecovered uint64
	// Replication gauges; the policy string is "none" and the counters
	// zero when no streamer is configured (keys always emitted).
	replPolicy        string
	replStreamed      uint64
	replStreamErrors  uint64
	replReplicaEvents uint64
	replAdopted       uint64
	replAliased       uint64
	// memo is the shared simulation memo's counters.
	memo experiments.MemoStats
}

// snapshot renders the metrics as the /metrics JSON document. The
// document is authored flat, keyed by the metricnames registry
// constants, and folded into the nested wire shape by nestMetrics —
// thermlint's metrickeys analyzer verifies every key here against the
// registry.
//
//thermlint:metricsdoc
func (m *metrics) snapshot(g gauges) map[string]any {
	m.mu.Lock()
	defer m.mu.Unlock()
	hists, quants := histDocs(m.latency)
	qhists, qquants := histDocs(m.qwait)
	// The global identity counters are sums over the tenants.
	var total tenantCounters
	tenants := make(map[string]any, len(m.tenantOrder))
	for _, t := range m.tenantOrder {
		tc := m.tenants[t]
		tenants[t] = tc.doc()
		total.submitted += tc.submitted
		for o, n := range tc.outcomes {
			total.outcomes[o] += n
		}
	}
	if g.faultsInjected == nil {
		g.faultsInjected = map[string]uint64{}
	}
	return nestMetrics(map[string]any{
		metricJobsSubmitted:        total.submitted,
		metricJobsRunning:          g.running,
		metricJobsCompleted:        total.outcomes[outCompleted],
		metricJobsFailed:           total.outcomes[outFailed],
		metricJobsCanceled:         total.outcomes[outCanceled],
		metricJobsRejected:         total.outcomes[outRejected],
		metricJobsMigrated:         total.outcomes[outMigrated],
		metricJobsPanicsRecovered:  m.panicsRecovered.Value(),
		metricJobsDeadlineExceeded: m.deadlineExceeded.Value(),
		metricJobsDeduped:          m.deduped.Value(),

		metricJournalAppends:   g.journalAppends,
		metricJournalFsyncs:    g.journalFsyncs,
		metricJournalReplayed:  g.journalReplayed,
		metricJournalTruncated: g.journalTruncated,
		metricJournalRecovered: g.journalRecovered,

		metricReplPolicy:        g.replPolicy,
		metricReplStreamed:      g.replStreamed,
		metricReplStreamErrors:  g.replStreamErrors,
		metricReplReplicaEvents: g.replReplicaEvents,
		metricReplAdopted:       g.replAdopted,
		metricReplAliased:       g.replAliased,

		metricAdmissionBrownoutRejects: m.brownoutRejects.Value(),
		metricAdmissionBrownoutActive:  g.brownoutActive,
		metricAdmissionQuotaRejects:    m.quotaRejects.Value(),

		metricQoSPolicy:         g.schedPolicy,
		metricQoSPredictions:    g.predictor.Predictions,
		metricQoSPredictedShort: g.predictor.PredictedShort,
		metricQoSPredictedLong:  g.predictor.PredictedLong,
		metricQoSMispredicts:    g.predictor.Mispredicts,
		metricQoSDemotions:      g.predictor.Demotions,
		metricQoSQueuedShort:    g.queuedShort,
		metricQoSQueuedLong:     g.queuedLong,
		metricQoSRunningShort:   g.runningShort,
		metricQoSRunningLong:    g.runningLong,

		metricTenants: tenants,

		metricQueueWaitHist:      qhists,
		metricQueueWaitQuantiles: qquants,

		metricWorkersPool:     g.workers,
		metricWorkersRestarts: m.workerRestarts.Value(),

		metricQueueDepth:    g.queueDepth,
		metricQueueCapacity: g.queueCap,

		metricCacheHits:     total.outcomes[outHits],
		metricCacheMisses:   m.cacheMisses.Value(),
		metricCacheEntries:  g.cacheLen,
		metricCacheCapacity: g.cacheCap,

		metricMemoHits:    g.memo.Hits,
		metricMemoMisses:  g.memo.Misses,
		metricMemoEntries: g.memo.Entries,

		metricHTTPBatchRequests: m.batchRequests.Value(),
		metricHTTPListRequests:  m.listRequests.Value(),

		metricFaultsInjected: g.faultsInjected,

		metricLatencyHist:      hists,
		metricLatencyQuantiles: quants,
	})
}

// histDocs snapshots each histogram of hs and, for those holding
// samples, its p50/p95/p99. Caller holds m.mu.
//
//thermlint:metricsdoc
func histDocs[K ~string](hs map[K]*stats.Histogram) (map[string]stats.HistogramSnapshot, map[string]map[string]float64) {
	snaps := make(map[string]stats.HistogramSnapshot, len(hs))
	quants := make(map[string]map[string]float64)
	for k, h := range hs {
		snap := h.Snapshot()
		snaps[string(k)] = snap
		if snap.Total > 0 {
			quants[string(k)] = map[string]float64{
				metricQuantP50: snap.Quantile(0.50),
				metricQuantP95: snap.Quantile(0.95),
				metricQuantP99: snap.Quantile(0.99),
			}
		}
	}
	return snaps, quants
}

// doc renders one tenant's counters as its sub-document under the
// registered "tenants" key. Caller holds m.mu.
func (tc *tenantCounters) doc() map[string]any {
	d := make(map[string]any, 1+numOutcomes)
	d["submitted"] = tc.submitted
	for o, n := range tc.outcomes {
		d[outcomeNames[o]] = n
	}
	return d
}
