package loadgen

import (
	"context"
	"fmt"
	"time"

	"thermalherd/internal/server"
)

// ReconcileAcked is the fleet-wide zero-acked-loss audit: every job id
// the daemon acknowledged during the run is re-polled until it reports
// a terminal state (done, failed, canceled; migrated jobs chase to
// their adopter through the gateway). Ids still unresolved after 30s,
// or when ctx ends, are lost acked jobs: work the fleet took
// responsibility for and then dropped. Under -repl sync that count
// must be zero even across a kill -9; under none it measures exactly
// the loss window the sync ack closes.
func ReconcileAcked(ctx context.Context, c *Client, policy string, ids []string) *FailoverStats {
	fo := &FailoverStats{Policy: policy, Acked: len(ids)}
	//thermlint:wallclock -- reconcile deadline against a live fleet; wall time is the contract
	deadline := time.Now().Add(30 * time.Second)
	pending := ids
	//thermlint:wallclock -- reconcile deadline against a live fleet; wall time is the contract
	for len(pending) > 0 && time.Now().Before(deadline) && ctx.Err() == nil {
		still := pending[:0:0]
		for _, id := range pending {
			st, err := c.JobStatus(ctx, id)
			if err != nil {
				still = append(still, id) // 404 or unreachable: retry until deadline
				continue
			}
			switch st.State {
			case server.StateDone, server.StateFailed, server.StateCanceled:
				fo.Resolved++
			default:
				still = append(still, id) // queued/running on the adopter; keep polling
			}
		}
		pending = still
		if len(pending) == 0 {
			break
		}
		select {
		case <-ctx.Done():
		//thermlint:timer -- reconcile-poll against a live fleet; wall time is the contract
		case <-time.After(100 * time.Millisecond):
		}
	}
	fo.Lost = len(pending)
	return fo
}

// ChaosStats is what a passing ChaosCheck saw on the daemon.
type ChaosStats struct {
	Submitted       float64
	PanicsRecovered float64
	WorkerRestarts  float64
	BrownoutRejects float64
}

// ChaosCheck is the post-run resilience verdict: the daemon is still
// alive, every admitted job reached a terminal state, and the daemon's
// /metrics accounting identity (each submission settled exactly once)
// reconciles with the client-side report. A report carrying a failover
// reconciliation must have lost no acked job.
func ChaosCheck(ctx context.Context, c *Client, rep *Report) (ChaosStats, error) {
	var cs ChaosStats
	status, err := c.Healthz(ctx)
	if err != nil {
		return cs, fmt.Errorf("daemon not alive after run: %w", err)
	}
	if status != "ok" {
		return cs, fmt.Errorf("daemon health = %q after run, want ok", status)
	}

	// Jobs the generator stopped tracking (timeouts) may still be in
	// flight; give them a bounded window to settle.
	//thermlint:wallclock -- settle deadline against a live daemon; wall time is the contract
	deadline := time.Now().Add(30 * time.Second)
	for {
		queued, err := c.CountJobs(ctx, "queued")
		if err != nil {
			return cs, err
		}
		running, err := c.CountJobs(ctx, "running")
		if err != nil {
			return cs, err
		}
		if queued == 0 && running == 0 {
			break
		}
		//thermlint:wallclock -- settle deadline against a live daemon; wall time is the contract
		if time.Now().After(deadline) {
			return cs, fmt.Errorf("%d queued + %d running jobs never settled", queued, running)
		}
		select {
		case <-ctx.Done():
			return cs, ctx.Err()
		//thermlint:timer -- settle-poll against a live daemon; wall time is the contract
		case <-time.After(50 * time.Millisecond):
		}
	}

	doc, err := c.Metrics(ctx)
	if err != nil {
		return cs, err
	}
	jc := func(section, name string) (float64, error) {
		sec, ok := doc[section].(map[string]any)
		if !ok {
			return 0, fmt.Errorf("metrics missing section %q", section)
		}
		v, ok := sec[name].(float64)
		if !ok {
			return 0, fmt.Errorf("metrics %s missing %q", section, name)
		}
		return v, nil
	}
	var vals [7]float64
	for i, key := range []struct{ section, name string }{
		{"jobs", "submitted"}, {"cache", "hits"}, {"jobs", "completed"},
		{"jobs", "failed"}, {"jobs", "canceled"}, {"jobs", "rejected"},
		{"jobs", "migrated"},
	} {
		if vals[i], err = jc(key.section, key.name); err != nil {
			return cs, err
		}
	}
	submitted, terminal := vals[0], vals[1]+vals[2]+vals[3]+vals[4]+vals[5]+vals[6]
	if submitted != terminal {
		return cs, fmt.Errorf("accounting identity broken: submitted %.0f != hits+completed+failed+canceled+rejected+migrated %.0f",
			submitted, terminal)
	}
	// A hedged herd run reaps losing submit attempts by canceling them
	// gateway-side; those cancels never belonged to the generator, so
	// reconcile them out of the fleet's canceled count. Single-node runs
	// have no gateway section in the merged document — zero there.
	var hedgeCancels float64
	if gwsec, ok := doc["gateway"].(map[string]any); ok {
		if v, ok := gwsec["hedge_cancels"].(float64); ok {
			hedgeCancels = v
		}
	}
	// When the generator saw every job through (no timeouts or transport
	// errors), its failure counts must agree with the daemon's exactly.
	if rep.Achieved.Timeouts == 0 && rep.Achieved.Errors == 0 {
		if vals[3] != float64(rep.Achieved.Failed) || vals[4] != float64(rep.Achieved.Canceled)+hedgeCancels {
			return cs, fmt.Errorf("error accounting mismatch: daemon failed=%.0f canceled=%.0f, report failed=%d canceled=%d (+%.0f hedge cancels)",
				vals[3], vals[4], rep.Achieved.Failed, rep.Achieved.Canceled, hedgeCancels)
		}
	}
	// The failover reconciliation is part of the chaos verdict: acked
	// work the fleet dropped is the one loss the replication chain
	// exists to prevent.
	if rep.Failover != nil && rep.Failover.Lost > 0 {
		return cs, fmt.Errorf("acked-job loss: %d of %d acked jobs never reached a terminal state (repl=%s)",
			rep.Failover.Lost, rep.Failover.Acked, rep.Failover.Policy)
	}
	cs.Submitted = submitted
	cs.PanicsRecovered, _ = jc("jobs", "panics_recovered")
	cs.WorkerRestarts, _ = jc("workers", "restarts")
	cs.BrownoutRejects, _ = jc("admission", "brownout_rejects")
	return cs, nil
}
