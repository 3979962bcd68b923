package gateway

import "sort"

// The gateway's metric-name registry: every key its /metrics document
// adds beyond the aggregated backend counters is a constant here, and
// thermlint's metrickeys analyzer rejects emission sites that spell a
// key any other way (the same contract internal/server keeps — see
// that package's metricnames.go).
//
// The aggregated document's backend-derived sections (jobs.*, cache.*,
// queue.*, ...) keep the backend wire names verbatim: they are summed
// pass-through values, and the fleet-wide accounting identity
// (submitted == hits+completed+failed+canceled+rejected) must
// reconcile against the same keys loadgen.ChaosCheck already reads.
//
// The fleet-wide accounting identity survives aggregation only if the
// merge is a structural sum: every numeric leaf combined with +, no
// key treated specially. thermlint's acctid analyzer enforces exactly
// that over the //thermlint:metricsmerge-marked merge function — the
// declared keys are the identity's leaves as the nested wire documents
// spell them.
//
//thermlint:identity merge: submitted = hits + completed + failed + canceled + rejected + migrated
//thermlint:metricnames
const (
	// metricSectionGateway holds the gateway's own counters.
	metricSectionGateway = "gateway"
	// metricSectionBackends holds the per-backend membership snapshot.
	metricSectionBackends = "backends"
	// metricKeyPartial marks an aggregation that is missing at least
	// one backend's contribution (scatter-gather timeout or error).
	metricKeyPartial = "partial"

	// Leaf keys inside the gateway section.
	metricProxied          = "proxied"
	metricSubmitsRouted    = "submits_routed"
	metricSpills           = "spills"
	metricFailovers        = "failovers"
	metricRetries          = "forward_retries"
	metricBackendErrors    = "backend_errors"
	metricScatterPartials  = "scatter_partials"
	metricProbes           = "probes"
	metricProbeFailures    = "probe_failures"
	metricBackendsTotal    = "backends_total"
	metricBackendsRoutable = "backends_routable"

	// Resilience-layer leaf keys: hedging, the retry budget, circuit
	// breakers, and live ring membership.
	metricHedgesFired     = "hedges_fired"
	metricHedgesWon       = "hedges_won"
	metricHedgesWasted    = "hedges_wasted"
	metricHedgeCancels    = "hedge_cancels"
	metricBudgetExhausted = "retry_budget_exhausted"
	metricRetryBackoffMs  = "retry_backoff_ms"
	metricBreakerOpens    = "breaker_opens"
	metricBreakerDenied   = "breaker_denied"
	metricRingEpoch       = "ring_epoch"
	metricNodesAdded      = "nodes_added"
	metricNodesRemoved    = "nodes_removed"
	metricNodesDrained    = "nodes_drained"

	// Failover-layer leaf keys: successor takeover, drain-time job
	// migration, and the alias table that reroutes adopted job ids.
	metricTakeovers         = "takeovers"
	metricMigrations        = "migrations"
	metricFailoverDedupHits = "failover_dedup_hits"
	metricAliasesActive     = "aliases_active"
)

// MetricNames returns the keys the gateway's aggregated /metrics
// document adds beyond the summed backend keys, in the flattened
// dotted namespace ("gateway.proxied", "backends", "partial"), sorted.
// The top-level backend_errors sub-document is deliberately absent: it
// is emitted only when a scatter-gather came back partial. Together
// with server.MetricNames this is the fleet's complete metric
// namespace, and metricnames_union_test pins the union to a live herd.
func MetricNames() []string {
	leaves := []string{
		metricProxied,
		metricSubmitsRouted,
		metricSpills,
		metricFailovers,
		metricRetries,
		metricBackendErrors,
		metricScatterPartials,
		metricProbes,
		metricProbeFailures,
		metricBackendsTotal,
		metricBackendsRoutable,
		metricHedgesFired,
		metricHedgesWon,
		metricHedgesWasted,
		metricHedgeCancels,
		metricBudgetExhausted,
		metricRetryBackoffMs,
		metricBreakerOpens,
		metricBreakerDenied,
		metricRingEpoch,
		metricNodesAdded,
		metricNodesRemoved,
		metricNodesDrained,
		metricTakeovers,
		metricMigrations,
		metricFailoverDedupHits,
		metricAliasesActive,
	}
	names := []string{metricSectionBackends, metricKeyPartial}
	for _, leaf := range leaves {
		names = append(names, metricSectionGateway+"."+leaf)
	}
	sort.Strings(names)
	return names
}
