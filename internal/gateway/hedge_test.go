package gateway

import (
	"testing"
	"time"
)

// TestLatEstimatorMinSamples: the p95 is withheld until the window has
// enough samples to mean anything.
func TestLatEstimatorMinSamples(t *testing.T) {
	var e latEstimator
	for i := 0; i < hedgeMinSamples-1; i++ {
		e.observe(10 * time.Millisecond)
		if _, ok := e.p95(); ok {
			t.Fatalf("p95 available after %d samples, want gated until %d", i+1, hedgeMinSamples)
		}
	}
	e.observe(10 * time.Millisecond)
	if _, ok := e.p95(); !ok {
		t.Fatalf("p95 unavailable at %d samples", hedgeMinSamples)
	}
}

// TestLatEstimatorP95: with a known distribution the p95 lands on the
// tail, and the sliding window forgets an old regime.
func TestLatEstimatorP95(t *testing.T) {
	var e latEstimator
	// 94 fast samples and a 6-sample slow tail: the p95 (index 94 of
	// the sorted 100) must surface the tail.
	for i := 0; i < 94; i++ {
		e.observe(time.Millisecond)
	}
	for i := 0; i < 6; i++ {
		e.observe(200 * time.Millisecond)
	}
	p, ok := e.p95()
	if !ok || p != 200*time.Millisecond {
		t.Fatalf("p95 = %v ok=%v, want 200ms from the 6%% tail", p, ok)
	}
	// The window slides: 128 fast samples push every slow one out.
	for i := 0; i < 128; i++ {
		e.observe(2 * time.Millisecond)
	}
	p, ok = e.p95()
	if !ok || p != 2*time.Millisecond {
		t.Fatalf("p95 after regime change = %v ok=%v, want 2ms", p, ok)
	}
}

// TestHedgerDelayClamps: the estimator-driven delay is clamped into
// [min, max] — the max clamp is what keeps hedging useful when a
// straggler drags the p95 itself.
func TestHedgerDelayClamps(t *testing.T) {
	h := newHedger()
	if _, ok := h.delay(hedgeClassSubmit); ok {
		t.Fatal("delay available with no samples")
	}
	for i := 0; i < hedgeMinSamples; i++ {
		h.observe(hedgeClassSubmit, time.Microsecond)
	}
	if d, ok := h.delay(hedgeClassSubmit); !ok || d != 5*time.Millisecond {
		t.Fatalf("fast-class delay = %v ok=%v, want the 5ms min clamp", d, ok)
	}
	for i := 0; i < 128; i++ {
		h.observe(hedgeClassSubmit, 250*time.Millisecond)
	}
	if d, ok := h.delay(hedgeClassSubmit); !ok || d != 100*time.Millisecond {
		t.Fatalf("straggler-class delay = %v ok=%v, want the 100ms max clamp", d, ok)
	}
	// Classes are independent: the untouched status class stays gated.
	if _, ok := h.delay(hedgeClassStatus); ok {
		t.Fatal("status class shares samples with submit class")
	}
}

// TestRetryBudget: the bucket starts full (so a cold gateway can still
// fail over), deposits accrue at the ratio, the burst caps the balance,
// and an empty bucket refuses withdrawals.
func TestRetryBudget(t *testing.T) {
	b := newRetryBudget(0.1, 3)
	for i := 0; i < 3; i++ {
		if !b.take() {
			t.Fatalf("take %d refused from a full bucket of 3", i+1)
		}
	}
	if b.take() {
		t.Fatal("take succeeded from an empty bucket")
	}
	// 10 base requests at ratio 0.1 fund exactly one retry.
	b.deposit(10)
	if !b.take() {
		t.Fatal("take refused after 10 deposits at ratio 0.1")
	}
	if b.take() {
		t.Fatal("10 deposits at ratio 0.1 funded a second retry")
	}
	// The burst caps accrual: a quiet period cannot bank unlimited retries.
	b.deposit(1_000_000)
	for i := 0; i < 3; i++ {
		if !b.take() {
			t.Fatalf("take %d refused after a huge deposit (burst 3)", i+1)
		}
	}
	if b.take() {
		t.Fatal("burst cap did not bound the bucket")
	}
}

// TestSendGate: the pre-send abort window. An abort before tryBegin
// stops the attempt on the floor; one after tryBegin reports in-flight
// so the caller knows to reap.
func TestSendGate(t *testing.T) {
	var early sendGate
	if !early.abort() {
		t.Fatal("abort before send did not report pre-send")
	}
	if early.tryBegin() {
		t.Fatal("tryBegin succeeded after abort")
	}

	var late sendGate
	if !late.tryBegin() {
		t.Fatal("tryBegin refused on a fresh gate")
	}
	if late.abort() {
		t.Fatal("abort after send claimed the attempt never hit the wire")
	}
}
