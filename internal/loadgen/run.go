package loadgen

import (
	"context"
	"fmt"
	"sync"
	"time"

	"thermalherd/internal/clock"
	"thermalherd/internal/server"
	"thermalherd/internal/stats"
)

// RunConfig parameterizes one open-loop run against a daemon.
type RunConfig struct {
	// Client targets the daemon (required).
	Client *Client
	// Schedule holds the arrival offsets and Specs one pre-sampled job
	// per arrival; they must be the same length.
	Schedule []time.Duration
	Specs    []server.Spec
	// Tenants optionally attributes each arrival to a tenant (parallel
	// to Specs; empty strings fall to the daemon's default tenant). Nil
	// runs everything untenanted.
	Tenants []string
	// MaxInFlight bounds concurrently tracked requests; an arrival
	// finding no free slot is dropped and counted. 0 means 64.
	MaxInFlight int
	// Timeout is each request's end-to-end budget, submission through
	// terminal state, measured from its arrival. 0 means 30s.
	Timeout time.Duration
	// PollInterval spaces status polls for in-flight jobs. 0 means 10ms.
	PollInterval time.Duration
	// BatchSize > 1 groups consecutive arrivals into POST /v1/jobs:batch
	// submissions: a batch is flushed when full or when the schedule
	// ends, so N arrivals cost at most ceil(N/BatchSize) submit
	// requests (plus retries). 0 or 1 submits singly.
	BatchSize int
	// SLO is the pass/fail contract evaluated into the report.
	SLO SLO
	// Mode and Seed annotate the report (the schedule is already
	// materialized; these record where it came from). Seed also derives
	// each arrival's Idempotency-Key ("lg-<seed>-<index>"), so a rerun
	// of the same schedule against a journaling daemon dedupes instead
	// of double-executing.
	Mode Mode
	Seed int64
	// StartIndex skips arrivals before it and re-anchors the remaining
	// offsets to fire immediately; thermload -resume continues a
	// partially completed run with it. Skipped arrivals are not counted
	// as drops.
	StartIndex int
	// OnAcked, when set, is called with an arrival's schedule index and
	// daemon-assigned job id after the daemon acknowledges its
	// submission. It may be called concurrently and out of order; the
	// caller is responsible for any ordering (thermload advances its
	// resume frontier only over a contiguous prefix, and collects the
	// ids for its post-run acked-loss audit). Arrivals whose submission
	// errors are never reported through either callback — they remain
	// unsettled.
	OnAcked func(index int, id string)
	// OnShed, when set, is called with the schedule index of an arrival
	// dropped by the open-loop in-flight bound. A shed is a deliberate,
	// final disposition (the run counts it as a drop and never sends
	// it), so thermload treats it like an ack when advancing its resume
	// frontier rather than replaying it.
	OnShed func(index int)
	// Clock supplies the run's time source; nil means the wall clock.
	// Tests inject a clock.Fake to drive the schedule synchronously.
	Clock clock.Clock
}

// arrival is one scheduled request: its pre-sampled spec, its schedule
// index (which derives its idempotency key), and the time it was
// fired, which anchors its latency and timeout.
type arrival struct {
	spec   server.Spec
	tenant string
	idx    int
	at     time.Time
}

// idemKey derives the deterministic Idempotency-Key for schedule index
// idx of a run seeded with seed.
func idemKey(seed int64, idx int) string {
	return fmt.Sprintf("lg-%d-%d", seed, idx)
}

// Run executes the schedule open-loop: arrivals fire at their offsets
// regardless of response times, excess arrivals beyond MaxInFlight are
// dropped, and every submitted job is polled to a terminal state (or
// its timeout). It blocks until all in-flight work settles and returns
// the aggregated report. A canceled ctx stops the schedule early;
// already-fired requests still settle.
func Run(ctx context.Context, cfg RunConfig) (*Report, error) {
	if cfg.Client == nil {
		return nil, fmt.Errorf("loadgen: RunConfig.Client is required")
	}
	if len(cfg.Schedule) == 0 || len(cfg.Schedule) != len(cfg.Specs) {
		return nil, fmt.Errorf("loadgen: schedule (%d) and specs (%d) must be equal-length and non-empty",
			len(cfg.Schedule), len(cfg.Specs))
	}
	if cfg.Tenants != nil && len(cfg.Tenants) != len(cfg.Specs) {
		return nil, fmt.Errorf("loadgen: tenants (%d) and specs (%d) must be equal-length",
			len(cfg.Tenants), len(cfg.Specs))
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 64
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 10 * time.Millisecond
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 1
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real()
	}

	rec := newRecorder(cfg.Clock)
	sem := make(chan struct{}, cfg.MaxInFlight)
	var wg sync.WaitGroup
	var pending []arrival
	flush := func() {
		if len(pending) == 0 {
			return
		}
		batch := pending
		pending = nil
		wg.Add(1)
		go func() {
			defer wg.Done()
			fireBatch(ctx, cfg, rec, sem, batch)
		}()
	}

	if cfg.StartIndex < 0 || cfg.StartIndex >= len(cfg.Schedule) {
		return nil, fmt.Errorf("loadgen: StartIndex %d out of range for %d arrivals", cfg.StartIndex, len(cfg.Schedule))
	}
	// Resume re-anchors the remaining offsets so the first unfinished
	// arrival fires immediately instead of waiting out the original
	// schedule position.
	base := cfg.Schedule[cfg.StartIndex]

	start := cfg.Clock.Now()
schedule:
	for i := cfg.StartIndex; i < len(cfg.Schedule); i++ {
		if wait := start.Add(cfg.Schedule[i] - base).Sub(cfg.Clock.Now()); wait > 0 {
			select {
			case <-ctx.Done():
				rec.dropN(len(cfg.Schedule) - i)
				break schedule
			case <-cfg.Clock.After(wait):
			}
		}
		select {
		case sem <- struct{}{}:
			a := arrival{spec: cfg.Specs[i], idx: i, at: cfg.Clock.Now()}
			if cfg.Tenants != nil {
				a.tenant = cfg.Tenants[i]
			}
			if cfg.BatchSize == 1 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					fireOne(ctx, cfg, rec, sem, a)
				}()
			} else {
				pending = append(pending, a)
				if len(pending) >= cfg.BatchSize {
					flush()
				}
			}
		default:
			rec.dropN(1) // open loop: saturation sheds, never queues
			if cfg.OnShed != nil {
				cfg.OnShed(i)
			}
		}
	}
	flush()
	wg.Wait()
	wall := cfg.Clock.Since(start)
	return rec.report(cfg, wall), nil
}

// fireOne submits a's spec and tracks it to a terminal state.
func fireOne(ctx context.Context, cfg RunConfig, rec *recorder, sem chan struct{}, a arrival) {
	defer func() { <-sem }()
	rctx, cancel := context.WithDeadline(ctx, a.at.Add(cfg.Timeout))
	defer cancel()
	st, err := cfg.Client.Submit(rctx, a.spec, idemKey(cfg.Seed, a.idx), a.tenant)
	if err != nil {
		rec.submitError(rctx)
		return
	}
	rec.submitted()
	if cfg.OnAcked != nil {
		cfg.OnAcked(a.idx, st.ID)
	}
	track(rctx, cfg, rec, a, st)
}

// fireBatch submits one POST /v1/jobs:batch for the buffered arrivals
// and tracks each admitted job under its own arrival-anchored
// deadline.
func fireBatch(ctx context.Context, cfg RunConfig, rec *recorder, sem chan struct{}, batch []arrival) {
	// The batch deadline is anchored to the oldest buffered arrival so
	// buffering time cannot extend any item's budget.
	bctx, cancel := context.WithDeadline(ctx, batch[0].at.Add(cfg.Timeout))
	specs := make([]server.Spec, len(batch))
	keys := make([]string, len(batch))
	var tenants []string
	if cfg.Tenants != nil {
		tenants = make([]string, len(batch))
	}
	for i, a := range batch {
		specs[i] = a.spec
		keys[i] = idemKey(cfg.Seed, a.idx)
		if tenants != nil {
			tenants[i] = a.tenant
		}
	}
	items, err := cfg.Client.SubmitBatch(bctx, specs, keys, tenants)
	cancel()
	if err != nil {
		rec.batchError(bctx, len(batch))
		for range batch {
			//thermlint:blocking -- releasing our own tokens from a buffered semaphore; the matching sends already happened
			<-sem
		}
		return
	}
	var wg sync.WaitGroup
	for i, item := range items {
		a := batch[i]
		if item.Status == nil {
			rec.itemError()
			//thermlint:blocking -- releasing our own token from a buffered semaphore; the matching send already happened
			<-sem
			continue
		}
		rec.submitted()
		if cfg.OnAcked != nil {
			cfg.OnAcked(a.idx, item.Status.ID)
		}
		wg.Add(1)
		go func(a arrival, st server.Status) {
			defer wg.Done()
			defer func() { <-sem }()
			rctx, cancel := context.WithDeadline(ctx, a.at.Add(cfg.Timeout))
			defer cancel()
			track(rctx, cfg, rec, a, st)
		}(a, *item.Status)
	}
	wg.Wait()
}

// track polls st's job until it settles, recording the outcome.
func track(ctx context.Context, cfg RunConfig, rec *recorder, a arrival, st server.Status) {
	for {
		switch st.State {
		case server.StateDone:
			rec.done(a, st)
			return
		case server.StateFailed:
			rec.failed()
			return
		case server.StateCanceled:
			rec.canceled()
			return
		}
		select {
		case <-ctx.Done():
			rec.timeout()
			return
		case <-cfg.Clock.After(cfg.PollInterval):
		}
		var err error
		st, err = cfg.Client.JobStatus(ctx, st.ID)
		if err != nil {
			if ctx.Err() != nil {
				rec.timeout()
			} else {
				rec.pollError()
			}
			return
		}
	}
}

// recorder aggregates one run's observations. Latencies land in
// millisecond-resolution histograms (0–60s, overflow beyond) so the
// report's quantiles interpolate within 1 ms.
type recorder struct {
	mu            sync.Mutex
	clk           clock.Clock
	latency       *stats.Histogram
	queueWait     *stats.Histogram
	latencySumMs  float64
	latencyMaxMs  float64
	nSubmitted    int
	nDone         int
	nCacheHits    int
	nFailed       int
	nCanceled     int
	nErrors       int
	nTimeouts     int
	nDrops        int
	nQueueWaitObs int

	// Per-tenant completion latencies, keyed by the tenant the arrival
	// was submitted as ("" never appears: untenanted runs record
	// nothing here).
	tenantLat map[string]*stats.Histogram
	tenantN   map[string]int
}

func newRecorder(clk clock.Clock) *recorder {
	return &recorder{
		clk:       clk,
		latency:   stats.NewHistogram(metricE2ELatency, 0, 1, 60_000),
		queueWait: stats.NewHistogram(metricQueueWait, 0, 1, 60_000),
		tenantLat: make(map[string]*stats.Histogram),
		tenantN:   make(map[string]int),
	}
}

func (r *recorder) submitted() {
	r.mu.Lock()
	r.nSubmitted++
	r.mu.Unlock()
}

func (r *recorder) dropN(n int) {
	r.mu.Lock()
	r.nDrops += n
	r.mu.Unlock()
}

// submitError distinguishes a deadline-bounded submit from a hard
// transport/protocol error.
func (r *recorder) submitError(ctx context.Context) {
	r.mu.Lock()
	if ctx.Err() != nil {
		r.nTimeouts++
	} else {
		r.nErrors++
	}
	r.mu.Unlock()
}

func (r *recorder) batchError(ctx context.Context, n int) {
	r.mu.Lock()
	if ctx.Err() != nil {
		r.nTimeouts += n
	} else {
		r.nErrors += n
	}
	r.mu.Unlock()
}

func (r *recorder) itemError() {
	r.mu.Lock()
	r.nErrors++
	r.mu.Unlock()
}

func (r *recorder) pollError() {
	r.mu.Lock()
	r.nErrors++
	r.mu.Unlock()
}

func (r *recorder) failed() {
	r.mu.Lock()
	r.nFailed++
	r.mu.Unlock()
}

func (r *recorder) canceled() {
	r.mu.Lock()
	r.nCanceled++
	r.mu.Unlock()
}

func (r *recorder) timeout() {
	r.mu.Lock()
	r.nTimeouts++
	r.mu.Unlock()
}

// done records a completed job: end-to-end latency from its arrival,
// and server-side queue wait from the status timestamps.
func (r *recorder) done(a arrival, st server.Status) {
	e2eMs := float64(r.clk.Since(a.at)) / float64(time.Millisecond)
	waitMs, waitOK := queueWaitMs(st)
	r.mu.Lock()
	r.nDone++
	if st.FromCache {
		r.nCacheHits++
	}
	r.latency.Observe(int(e2eMs))
	r.latencySumMs += e2eMs
	if e2eMs > r.latencyMaxMs {
		r.latencyMaxMs = e2eMs
	}
	if waitOK {
		r.queueWait.Observe(int(waitMs))
		r.nQueueWaitObs++
	}
	if a.tenant != "" {
		h, ok := r.tenantLat[a.tenant]
		if !ok {
			h = stats.NewHistogram(metricTenantLatencyPrefix+a.tenant, 0, 1, 60_000)
			r.tenantLat[a.tenant] = h
		}
		h.Observe(int(e2eMs))
		r.tenantN[a.tenant]++
	}
	r.mu.Unlock()
}

// queueWaitMs derives the server-side queue wait from a terminal
// status's submitted/started timestamps.
func queueWaitMs(st server.Status) (float64, bool) {
	if st.SubmittedAt == "" || st.StartedAt == "" {
		return 0, false
	}
	sub, err1 := time.Parse(time.RFC3339Nano, st.SubmittedAt)
	sta, err2 := time.Parse(time.RFC3339Nano, st.StartedAt)
	if err1 != nil || err2 != nil || sta.Before(sub) {
		return 0, false
	}
	return float64(sta.Sub(sub)) / float64(time.Millisecond), true
}
