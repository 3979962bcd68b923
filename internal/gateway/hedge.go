package gateway

import (
	"sort"
	"sync"
	"time"
)

// Route classes for the hedge-delay estimator: each keeps its own
// latency distribution, because a submit (runs a simulation) and a
// status poll (reads a map) have nothing in common tail-wise.
const (
	hedgeClassSubmit  = "submit"
	hedgeClassStatus  = "status"
	hedgeClassScatter = "scatter"
)

// latEstimator is an online latency-quantile estimator: a fixed-size
// sliding window of recent samples, quantiled by copy-and-sort on
// demand. 128 samples bounds both memory and the cost of a quantile
// read; the window slides so the estimate tracks regime changes (a
// backend recovering, the cache warming) within ~a hundred requests.
type latEstimator struct {
	mu   sync.Mutex
	buf  [128]time.Duration
	n    int // filled slots, <= len(buf)
	next int // ring write position
}

// hedgeMinSamples gates hedging until the estimator has seen enough
// traffic that its p95 means something.
const hedgeMinSamples = 16

func (e *latEstimator) observe(d time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.buf[e.next] = d
	e.next = (e.next + 1) % len(e.buf)
	if e.n < len(e.buf) {
		e.n++
	}
}

// p95 returns the window's 95th-percentile latency; ok is false until
// hedgeMinSamples have been observed.
func (e *latEstimator) p95() (time.Duration, bool) {
	e.mu.Lock()
	n := e.n
	samples := make([]time.Duration, n)
	copy(samples, e.buf[:n])
	e.mu.Unlock()
	if n < hedgeMinSamples {
		return 0, false
	}
	sort.Slice(samples, func(i, k int) bool { return samples[i] < samples[k] })
	return samples[(n-1)*95/100], true
}

// The hedge delay's clamp. The max clamp matters when a straggler is
// common enough to drag the p95 itself — the hedge then fires at the
// clamp instead of chasing the inflated quantile, and the retry budget
// caps the amplification either way.
const (
	hedgeDelayMin = 5 * time.Millisecond
	hedgeDelayMax = 100 * time.Millisecond
)

// hedger decides when a second attempt is worth firing: per-route-class
// p95 estimators clamped into [hedgeDelayMin, hedgeDelayMax].
type hedger struct {
	mu      sync.Mutex
	classes map[string]*latEstimator
}

func newHedger() *hedger {
	return &hedger{classes: make(map[string]*latEstimator)}
}

func (h *hedger) estimator(class string) *latEstimator {
	h.mu.Lock()
	defer h.mu.Unlock()
	e, ok := h.classes[class]
	if !ok {
		e = &latEstimator{}
		h.classes[class] = e
	}
	return e
}

func (h *hedger) observe(class string, d time.Duration) {
	h.estimator(class).observe(d)
}

// delay returns how long to wait before hedging a request of this
// class; ok is false while the class has too few samples to estimate.
func (h *hedger) delay(class string) (time.Duration, bool) {
	p, ok := h.estimator(class).p95()
	if !ok {
		return 0, false
	}
	if p < hedgeDelayMin {
		p = hedgeDelayMin
	}
	if p > hedgeDelayMax {
		p = hedgeDelayMax
	}
	return p, true
}

// retryBudget is the Finagle-style global token bucket that bounds
// retry+hedge amplification: every base request deposits ratio tokens,
// every retry or hedge withdraws one, so extra load can never exceed
// ~ratio of base traffic no matter how many backends melt at once. The
// bucket starts full (burst) so isolated failovers on a cold gateway
// still work; a storm drains it and further retries are refused.
type retryBudget struct {
	mu     sync.Mutex
	ratio  float64
	burst  float64
	tokens float64
}

func newRetryBudget(ratio, burst float64) *retryBudget {
	if ratio <= 0 {
		ratio = 0.1
	}
	if burst <= 0 {
		burst = 10
	}
	return &retryBudget{ratio: ratio, burst: burst, tokens: burst}
}

func (b *retryBudget) deposit(n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tokens += b.ratio * float64(n)
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
}

// take withdraws one retry/hedge token, reporting false when the
// budget is exhausted.
func (b *retryBudget) take() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// refund returns a token taken for an attempt that was then never
// sent.
func (b *retryBudget) refund() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tokens = min(b.tokens+1, b.burst)
}

// sendGate serializes a racing submit attempt's "about to hit the
// wire" moment against its abort. The straggler chaos fault (and any
// FaultForward delay) fires gateway-side before the request is sent,
// so when the hedge wins during that window the primary attempt can
// still be stopped pre-send — no job is admitted, nothing to cancel.
// Once the request is on the wire the attempt must be allowed to
// finish: cancelling it mid-flight would orphan a job whose id we
// never learned.
type sendGate struct {
	mu      sync.Mutex
	sent    bool
	aborted bool
}

// tryBegin marks the attempt as sent unless it was already aborted.
func (sg *sendGate) tryBegin() bool {
	sg.mu.Lock()
	defer sg.mu.Unlock()
	if sg.aborted {
		return false
	}
	sg.sent = true
	return true
}

// abort requests the attempt stop; it reports true when the attempt
// had not yet hit the wire (the caller may drop it on the floor) and
// false when it is in flight (the caller must reap its result).
func (sg *sendGate) abort() bool {
	sg.mu.Lock()
	defer sg.mu.Unlock()
	sg.aborted = true
	return !sg.sent
}
