package qos

import (
	"testing"
	"time"
)

func TestPredictorDefaultsShort(t *testing.T) {
	p := NewPredictor(0)
	if got := p.Predict("timing/gcc/default"); got != ClassShort {
		t.Fatalf("unseen key predicted %v, want short", got)
	}
	st := p.Stats()
	if st.Predictions != 1 || st.PredictedShort != 1 {
		t.Fatalf("stats = %+v, want 1 prediction, 1 short", st)
	}
}

func TestPredictorSaturationAndHysteresis(t *testing.T) {
	p := NewPredictor(0)
	const key = "thermal/mesa/hot"

	// Weakly short (1) + one overrun observation -> 2 -> predicts long.
	p.Observe(key, ClassShort, true)
	if got := p.Predict(key); got != ClassLong {
		t.Fatalf("after one overrun, predict = %v, want long", got)
	}

	// Saturate toward long: many overruns stick at 3 ...
	for i := 0; i < 10; i++ {
		p.Observe(key, ClassLong, true)
	}
	// ... so one fast run (3 -> 2) must NOT flip the prediction back:
	// that is the hysteresis the 2-bit counter buys over a 1-bit one.
	p.Observe(key, ClassLong, false)
	if got := p.Predict(key); got != ClassLong {
		t.Fatalf("hysteresis broken: one fast run flipped long -> %v", got)
	}
	// A second consecutive fast run (2 -> 1) does flip it.
	p.Observe(key, ClassLong, false)
	if got := p.Predict(key); got != ClassShort {
		t.Fatalf("after two fast runs, predict = %v, want short", got)
	}

	// Saturate toward short and check the same hysteresis on the way up.
	for i := 0; i < 10; i++ {
		p.Observe(key, ClassShort, false)
	}
	p.Observe(key, ClassShort, true) // 0 -> 1, still short
	if got := p.Predict(key); got != ClassShort {
		t.Fatalf("hysteresis broken: one overrun flipped short -> %v", got)
	}
	p.Observe(key, ClassShort, true) // 1 -> 2, now long
	if got := p.Predict(key); got != ClassLong {
		t.Fatalf("after two overruns, predict = %v, want long", got)
	}
}

func TestPredictorDemoteRetrains(t *testing.T) {
	p := NewPredictor(0)
	const key = "experiment/vortex/sweep"
	// Unseen key is weakly short: a single mid-flight demotion must be
	// enough to flip the next prediction to long.
	if got := p.Predict(key); got != ClassShort {
		t.Fatalf("predict = %v, want short", got)
	}
	p.Demote(key)
	if got := p.Predict(key); got != ClassLong {
		t.Fatalf("after demotion, predict = %v, want long", got)
	}
	st := p.Stats()
	if st.Demotions != 1 {
		t.Fatalf("demotions = %d, want 1", st.Demotions)
	}
	// A strongly-short key keeps one notch of hysteresis: two demotions
	// needed.
	const key2 = "timing/gzip/default"
	p.Observe(key2, ClassShort, false) // 1 -> 0
	p.Demote(key2)                     // 0 -> 1
	if got := p.Predict(key2); got != ClassShort {
		t.Fatalf("strongly-short key flipped after one demotion")
	}
	p.Demote(key2) // 1 -> 2
	if got := p.Predict(key2); got != ClassLong {
		t.Fatalf("strongly-short key still short after two demotions")
	}
}

func TestPredictorMispredictAccounting(t *testing.T) {
	p := NewPredictor(0)
	p.Observe("k", ClassShort, true)  // predicted short, ran long: mispredict
	p.Observe("k", ClassLong, true)   // correct
	p.Observe("k", ClassLong, false)  // predicted long, ran short: mispredict
	p.Observe("k", ClassShort, false) // correct
	if st := p.Stats(); st.Mispredicts != 2 {
		t.Fatalf("mispredicts = %d, want 2", st.Mispredicts)
	}
}

func TestPredictorBounded(t *testing.T) {
	p := NewPredictor(2)
	p.Observe("a", ClassShort, true)
	p.Observe("b", ClassShort, true)
	// Table full: "c" cannot materialize, so training it is dropped and
	// it keeps predicting the default.
	p.Observe("c", ClassShort, true)
	p.Observe("c", ClassShort, true)
	if p.Len() != 2 {
		t.Fatalf("len = %d, want 2", p.Len())
	}
	if got := p.Predict("c"); got != ClassShort {
		t.Fatalf("overflow key predicted %v, want default short", got)
	}
}

func TestFairQueueRoundRobin(t *testing.T) {
	fq := NewFairQueue[string](nil)
	fq.Push("a", ClassShort, "a1")
	fq.Push("a", ClassShort, "a2")
	fq.Push("a", ClassShort, "a3")
	fq.Push("b", ClassShort, "b1")
	fq.Push("b", ClassShort, "b2")
	fq.Push("c", ClassShort, "c1")
	var got []string
	for {
		it, ok := fq.Pop(ClassShort)
		if !ok {
			break
		}
		got = append(got, it)
	}
	want := []string{"a1", "b1", "c1", "a2", "b2", "a3"}
	if len(got) != len(want) {
		t.Fatalf("popped %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("popped %v, want %v", got, want)
		}
	}
	if fq.Len() != 0 {
		t.Fatalf("len = %d after drain, want 0", fq.Len())
	}
}

func TestFairQueueWeights(t *testing.T) {
	fq := NewFairQueue[string](map[string]int{"big": 2})
	for i := 0; i < 4; i++ {
		fq.Push("big", ClassShort, "B")
		fq.Push("small", ClassShort, "s")
	}
	var got string
	for {
		it, ok := fq.Pop(ClassShort)
		if !ok {
			break
		}
		got += it
	}
	// big gets 2 dequeues per turn, small gets 1.
	if want := "BBsBBsss"; got != want {
		t.Fatalf("weighted order = %q, want %q", got, want)
	}
}

func TestFairQueueClassesIsolated(t *testing.T) {
	fq := NewFairQueue[int](nil)
	fq.Push("t", ClassShort, 1)
	fq.Push("t", ClassLong, 2)
	if n := fq.LenClass(ClassLong); n != 1 {
		t.Fatalf("long len = %d, want 1", n)
	}
	if _, ok := fq.Pop(ClassLong); !ok {
		t.Fatal("long pop failed")
	}
	if _, ok := fq.Pop(ClassLong); ok {
		t.Fatal("long pop returned short-class item")
	}
	if v, ok := fq.Pop(ClassShort); !ok || v != 1 {
		t.Fatalf("short pop = %v %v, want 1 true", v, ok)
	}
}

func TestFairQueueDrain(t *testing.T) {
	fq := NewFairQueue[string](nil)
	fq.Push("t", ClassShort, "x")
	fq.Push("u", ClassLong, "l1")
	fq.Push("t", ClassShort, "s1")
	out := fq.Drain()
	if len(out) != 3 || fq.Len() != 0 {
		t.Fatalf("drain = %v (len %d), want 3 items and empty queue", out, fq.Len())
	}
	if out[0] != "x" && out[0] != "s1" {
		t.Fatalf("drain should emit shorts first, got %v", out)
	}
}

func TestFairQueueHeads(t *testing.T) {
	fq := NewFairQueue[int](nil)
	fq.Push("a", ClassShort, 10)
	fq.Push("a", ClassShort, 11)
	fq.Push("b", ClassLong, 20)
	var heads []int
	fq.Heads(func(it int) { heads = append(heads, it) })
	if len(heads) != 2 || heads[0] != 10 || heads[1] != 20 {
		t.Fatalf("heads = %v, want [10 20]", heads)
	}
}

func TestBucketsTakeAndRefill(t *testing.T) {
	now := time.Unix(1000, 0)
	b := NewBuckets(2, 2) // 2 tokens/sec, burst 2
	if ok, _ := b.Take("t", now); !ok {
		t.Fatal("first take refused")
	}
	if ok, _ := b.Take("t", now); !ok {
		t.Fatal("second take refused (burst 2)")
	}
	ok, retry := b.Take("t", now)
	if ok {
		t.Fatal("third take admitted with empty bucket")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retryAfter = %v, want (0, 1s]", retry)
	}
	// At 2 tokens/sec, 500ms refills exactly the one token needed.
	if ok, _ := b.Take("t", now.Add(500*time.Millisecond)); !ok {
		t.Fatal("take refused after refill window")
	}
	// Tenants are independent.
	if ok, _ := b.Take("u", now); !ok {
		t.Fatal("fresh tenant refused")
	}
}

func TestBucketsDisabled(t *testing.T) {
	var b *Buckets
	if ok, _ := b.Take("t", time.Unix(0, 0)); !ok {
		t.Fatal("nil buckets must admit")
	}
	if NewBuckets(0, 5) != nil {
		t.Fatal("rate 0 should disable quotas")
	}
}
