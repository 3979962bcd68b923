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

// tenantCounters is one tenant's slice of the accounting identity,
// indexed by tcField.
type tenantCounters [numTCFields]uint64

// tcField selects which tenantCounters counter tinc bumps. The
// identity below is machine-checked: thermlint's acctid analyzer
// proves over the tinc call sites that every tcSubmitted increment is
// settled by exactly one right-hand-side increment on every return
// path (or is explicitly handed off to a later settle), so the
// reconciliation loadgen.ChaosCheck asserts can never drift by
// construction. migrated settles jobs herded to the ring successor
// during drain: locally terminal, adopted (and re-submitted) by the
// successor, so fleet-wide reconciliation subtracts migrations from
// done totals.
//
//thermlint:identity tcField: tcSubmitted = tcHits + tcCompleted + tcFailed + tcCanceled + tcRejected + tcMigrated
type tcField int

const (
	tcSubmitted tcField = iota
	tcHits
	tcCompleted
	tcFailed
	tcCanceled
	tcRejected
	tcMigrated
	numTCFields
)

// tcNames are the tenant sub-document's leaf names, indexed by
// tcField; they mirror the global jobs.* identity counters.
var tcNames = [numTCFields]string{"submitted", "hits", "completed", "failed", "canceled", "rejected", "migrated"}

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

// tinc bumps one of tenant's identity counters, creating the tenant's
// slot on first sight (or folding into the overflow bucket once the
// map is full).
func (m *metrics) tinc(tenant string, f tcField) {
	if tenant == "" {
		tenant = DefaultTenant
	}
	m.mu.Lock()
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
	tc[f]++
	m.mu.Unlock()
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
	hists := make(map[string]stats.HistogramSnapshot, len(m.latency))
	quants := make(map[string]map[string]float64)
	for k, h := range m.latency {
		snap := h.Snapshot()
		hists[string(k)] = snap
		if snap.Total > 0 {
			quants[string(k)] = map[string]float64{
				metricQuantP50: snap.Quantile(0.50),
				metricQuantP95: snap.Quantile(0.95),
				metricQuantP99: snap.Quantile(0.99),
			}
		}
	}
	qhists := make(map[string]stats.HistogramSnapshot, len(m.qwait))
	qquants := make(map[string]map[string]float64)
	for class, h := range m.qwait {
		snap := h.Snapshot()
		qhists[class] = snap
		if snap.Total > 0 {
			qquants[class] = map[string]float64{
				metricQuantP50: snap.Quantile(0.50),
				metricQuantP95: snap.Quantile(0.95),
				metricQuantP99: snap.Quantile(0.99),
			}
		}
	}
	// The global identity counters are sums over the tenants.
	var total tenantCounters
	tenants := make(map[string]any, len(m.tenantOrder))
	for _, t := range m.tenantOrder {
		tc := m.tenants[t]
		tenants[t] = tc.doc()
		for f, n := range tc {
			total[f] += n
		}
	}
	if g.faultsInjected == nil {
		g.faultsInjected = map[string]uint64{}
	}
	return nestMetrics(map[string]any{
		metricJobsSubmitted:        total[tcSubmitted],
		metricJobsRunning:          g.running,
		metricJobsCompleted:        total[tcCompleted],
		metricJobsFailed:           total[tcFailed],
		metricJobsCanceled:         total[tcCanceled],
		metricJobsRejected:         total[tcRejected],
		metricJobsMigrated:         total[tcMigrated],
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

		metricCacheHits:     total[tcHits],
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

// doc renders one tenant's counters as its sub-document under the
// registered "tenants" key. Caller holds m.mu.
func (tc *tenantCounters) doc() map[string]any {
	d := make(map[string]any, len(tc))
	for f, n := range tc {
		d[tcNames[f]] = n
	}
	return d
}
