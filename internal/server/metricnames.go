package server

import "sort"

// The metric-name registry: every key the /metrics document emits is a
// constant here, and thermlint's metrickeys analyzer rejects metric
// sites (histogram construction, the snapshot document) that spell a
// key any other way. Dashboards and the SLO harness key off these
// strings, so a drive-by rename is an outage in a dependency we can't
// see; forcing every emission through a named constant makes the
// registry the single place a name can change — and metricnames_test
// pins the registry to what a live server actually serves.
//
// Keys are dotted paths ("jobs.submitted"); nestMetrics folds them into
// the nested JSON wire shape, which is unchanged.
//
//thermlint:metricnames
const (
	metricJobsSubmitted        = "jobs.submitted"
	metricJobsRunning          = "jobs.running"
	metricJobsCompleted        = "jobs.completed"
	metricJobsFailed           = "jobs.failed"
	metricJobsCanceled         = "jobs.canceled"
	metricJobsRejected         = "jobs.rejected"
	metricJobsPanicsRecovered  = "jobs.panics_recovered"
	metricJobsDeadlineExceeded = "jobs.deadline_exceeded"
	metricJobsDeduped          = "jobs.deduped"
	metricJobsMigrated         = "jobs.migrated"

	// Journal durability metrics: appends/fsyncs count WAL I/O since
	// boot; replayed/truncated_records/recovered_jobs describe the last
	// startup recovery. All zero when -journal-dir is unset.
	metricJournalAppends   = "journal.appends"
	metricJournalFsyncs    = "journal.fsyncs"
	metricJournalReplayed  = "journal.replayed"
	metricJournalTruncated = "journal.truncated_records"
	metricJournalRecovered = "journal.recovered_jobs"

	// Replication metrics: the chain ack policy in force, the streamer's
	// send counters, and the replica store's intake/adoption counters.
	// policy is "none" (and the counters zero) when replication is off.
	metricReplPolicy        = "repl.policy"
	metricReplStreamed      = "repl.streamed"
	metricReplStreamErrors  = "repl.stream_errors"
	metricReplReplicaEvents = "repl.replica_events"
	metricReplAdopted       = "repl.adopted"
	metricReplAliased       = "repl.aliased"

	metricAdmissionBrownoutRejects = "admission.brownout_rejects"
	metricAdmissionBrownoutActive  = "admission.brownout_active"

	metricWorkersPool     = "workers.pool"
	metricWorkersRestarts = "workers.restarts"

	metricQueueDepth    = "queue.depth"
	metricQueueCapacity = "queue.capacity"

	metricCacheHits     = "cache.hits"
	metricCacheMisses   = "cache.misses"
	metricCacheEntries  = "cache.entries"
	metricCacheCapacity = "cache.capacity"

	// Simulation-memo metrics: hits are simulations a job took from the
	// server-wide memo instead of running them, misses the ones it ran,
	// entries the finished results the memo holds. A memo hit is not a
	// result-cache hit: its job still executes and counts as completed.
	metricMemoHits    = "memo.hits"
	metricMemoMisses  = "memo.misses"
	metricMemoEntries = "memo.entries"

	metricHTTPBatchRequests = "http.batch_requests"
	metricHTTPListRequests  = "http.list_requests"

	// metricFaultsInjected holds a sub-document keyed by fault-point
	// name; the points themselves live in the faultpoints registry.
	metricFaultsInjected = "faults.injected"

	// metricLatencyHist and metricLatencyQuantiles hold sub-documents
	// keyed by job kind.
	metricLatencyHist      = "latency_ms"
	metricLatencyQuantiles = "latency_quantiles_ms"

	// metricLatencyHistPrefix names the per-kind histograms themselves
	// ("latency_ms_<kind>"); it is a name prefix, not a document key.
	metricLatencyHistPrefix = "latency_ms_"

	// QoS scheduler metrics. policy is the configured discipline ("fifo"
	// or "qos"); the predictor counters mirror qos.PredictorStats; the
	// queued/running pairs are per-class occupancy gauges (zero under
	// FIFO, where jobs are never classified).
	metricQoSPolicy         = "qos.policy"
	metricQoSPredictions    = "qos.predictions"
	metricQoSPredictedShort = "qos.predicted_short"
	metricQoSPredictedLong  = "qos.predicted_long"
	metricQoSMispredicts    = "qos.mispredicts"
	metricQoSDemotions      = "qos.demotions"
	metricQoSQueuedShort    = "qos.queued_short"
	metricQoSQueuedLong     = "qos.queued_long"
	metricQoSRunningShort   = "qos.running_short"
	metricQoSRunningLong    = "qos.running_long"

	// metricAdmissionQuotaRejects counts submissions bounced by a
	// tenant's token-bucket quota; each is also counted in
	// jobs.rejected.
	metricAdmissionQuotaRejects = "admission.quota_rejects"

	// metricTenants holds a sub-document keyed by tenant id, each tenant
	// carrying its own slice of the accounting identity (submitted ==
	// hits + completed + failed + canceled + rejected).
	metricTenants = "tenants"

	// metricQueueWaitHist and metricQueueWaitQuantiles hold
	// sub-documents keyed by predicted class ("short"/"long").
	metricQueueWaitHist      = "queue_wait_ms"
	metricQueueWaitQuantiles = "queue_wait_quantiles_ms"

	// metricQueueWaitHistPrefix names the per-class queue-wait
	// histograms ("queue_wait_ms_<class>"); a name prefix, not a
	// document key.
	metricQueueWaitHistPrefix = "queue_wait_ms_"

	// Quantile labels inside each latency_quantiles_ms sub-document.
	metricQuantP50 = "p50"
	metricQuantP95 = "p95"
	metricQuantP99 = "p99"
)

// MetricNames returns the registered /metrics document keys, sorted.
// Sub-document keys (per-kind latency, per-point fault counts) are
// dynamic and represented by their registered parent.
func MetricNames() []string {
	names := []string{
		metricJobsSubmitted,
		metricJobsRunning,
		metricJobsCompleted,
		metricJobsFailed,
		metricJobsCanceled,
		metricJobsRejected,
		metricJobsPanicsRecovered,
		metricJobsDeadlineExceeded,
		metricJobsDeduped,
		metricJobsMigrated,
		metricJournalAppends,
		metricJournalFsyncs,
		metricJournalReplayed,
		metricJournalTruncated,
		metricJournalRecovered,
		metricReplPolicy,
		metricReplStreamed,
		metricReplStreamErrors,
		metricReplReplicaEvents,
		metricReplAdopted,
		metricReplAliased,
		metricAdmissionBrownoutRejects,
		metricAdmissionBrownoutActive,
		metricWorkersPool,
		metricWorkersRestarts,
		metricQueueDepth,
		metricQueueCapacity,
		metricCacheHits,
		metricCacheMisses,
		metricCacheEntries,
		metricCacheCapacity,
		metricMemoHits,
		metricMemoMisses,
		metricMemoEntries,
		metricHTTPBatchRequests,
		metricHTTPListRequests,
		metricFaultsInjected,
		metricLatencyHist,
		metricLatencyQuantiles,
		metricQoSPolicy,
		metricQoSPredictions,
		metricQoSPredictedShort,
		metricQoSPredictedLong,
		metricQoSMispredicts,
		metricQoSDemotions,
		metricQoSQueuedShort,
		metricQoSQueuedLong,
		metricQoSRunningShort,
		metricQoSRunningLong,
		metricAdmissionQuotaRejects,
		metricTenants,
		metricQueueWaitHist,
		metricQueueWaitQuantiles,
	}
	sort.Strings(names)
	return names
}

// nestMetrics folds a flat dotted-key document into the nested JSON
// wire shape: "jobs.submitted" → doc["jobs"]["submitted"]. Dotless keys
// stay top-level. The wire format predates the registry and must not
// change under it.
func nestMetrics(flat map[string]any) map[string]any {
	doc := make(map[string]any, len(flat))
	for key, v := range flat {
		dot := -1
		for i := 0; i < len(key); i++ {
			if key[i] == '.' {
				dot = i
				break
			}
		}
		if dot < 0 {
			doc[key] = v
			continue
		}
		group, leaf := key[:dot], key[dot+1:]
		sub, ok := doc[group].(map[string]any)
		if !ok {
			sub = make(map[string]any)
			doc[group] = sub
		}
		sub[leaf] = v
	}
	return doc
}
