package predictor

import (
	"math/rand"
	"reflect"
	"testing"
)

// drive runs one step of branch traffic through every predictor
// structure and returns what each predicted.
func drive(h *Hybrid, b *BTB, ib *IndirectBTB, r *RAS, rng *rand.Rand) [5]uint64 {
	pc := 0x40_0000 + uint64(rng.Intn(1<<14))*4
	target := uint64(rng.Intn(1 << 20))
	if rng.Intn(4) == 0 {
		target |= 0x7000_0000_0000 // a far target
	}
	taken := rng.Intn(3) != 0
	pred := h.Predict(pc)
	h.Update(pc, taken, pred)
	lr := b.Lookup(pc)
	b.Update(pc, target)
	it, iok := ib.Predict(pc)
	ib.Update(pc, target, it, iok)
	r.Push(pc + 4)
	var ret uint64
	if rng.Intn(2) == 0 {
		ret, _ = r.Pop()
	}
	return [5]uint64{b2u(pred), lr.Target, b2u(lr.NeedsFullRead), it, ret}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// TestResetMatchesNew trains every predictor structure on random
// traffic, resets it, and checks that it equals a new one and answers a
// scripted sequence as a new one does.
func TestResetMatchesNew(t *testing.T) {
	h, b, ib, r := NewHybrid(), NewBTB(2048, 4), NewIndirectBTB(512, 4), NewRAS(16)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100_000; i++ {
		drive(h, b, ib, r, rng)
	}
	h.Reset()
	b.Reset()
	ib.Reset()
	r.Reset()
	nh, nb, nib, nr := NewHybrid(), NewBTB(2048, 4), NewIndirectBTB(512, 4), NewRAS(16)
	for _, c := range []struct {
		name       string
		reset, new any
	}{{"Hybrid", h, nh}, {"BTB", b, nb}, {"IndirectBTB", ib, nib}, {"RAS", r, nr}} {
		if !reflect.DeepEqual(c.reset, c.new) {
			t.Errorf("%s after Reset differs from a new one", c.name)
		}
	}
	script, nscript := rand.New(rand.NewSource(4)), rand.New(rand.NewSource(4))
	for i := 0; i < 100_000; i++ {
		if got, want := drive(h, b, ib, r, script), drive(nh, nb, nib, nr, nscript); got != want {
			t.Fatalf("step %d: reset structures predicted %v, new ones %v", i, got, want)
		}
	}
	if h.Accuracy() != nh.Accuracy() || b.HitRate() != nb.HitRate() || ib.Accuracy() != nib.Accuracy() {
		t.Error("statistics after the script differ")
	}
}
