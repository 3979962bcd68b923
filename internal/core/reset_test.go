package core

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestResetMatchesNew drives the width predictor, the herding allocator
// and the address memo with random traffic, resets them (the allocator
// to another policy, as a reused core's is for another machine), and
// checks that each equals a new one and answers a scripted sequence as
// a new one does.
func TestResetMatchesNew(t *testing.T) {
	w, a, m := NewWidthPredictor(1024), NewHerdingAllocator(32, AllocRoundRobin), NewAddressMemo()
	var held []Entry
	step := func(w *WidthPredictor, a *HerdingAllocator, m *AddressMemo, held *[]Entry, rng *rand.Rand) [4]uint64 {
		pc := uint64(rng.Intn(1<<13)) * 4
		pred := w.Predict(pc)
		unsafe := w.Resolve(pc, pred, rng.Intn(4) != 0)
		var e Entry
		if rng.Intn(2) == 0 || len(*held) == 0 {
			if got, ok := a.Allocate(); ok {
				e = got
				*held = append(*held, got)
			}
		} else {
			i := rng.Intn(len(*held))
			a.Release((*held)[i])
			*held = append((*held)[:i], (*held)[i+1:]...)
		}
		dies := a.Broadcast()
		a.ObserveOccupancy()
		r := m.Broadcast(0x7fff_0000_0000+uint64(rng.Intn(1<<20)), rng.Intn(2) == 0)
		return [4]uint64{uint64(b2i(pred)) | uint64(b2i(unsafe))<<1, uint64(e.Die<<8 | e.Slot), uint64(dies), uint64(r.DiesActivated)}
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50_000; i++ {
		step(w, a, m, &held, rng)
	}
	w.Reset()
	a.Reset(AllocHerded)
	m.Reset()
	held = held[:0]
	nw, na, nm := NewWidthPredictor(1024), NewHerdingAllocator(32, AllocHerded), NewAddressMemo()
	for _, c := range []struct {
		name       string
		reset, new any
	}{{"WidthPredictor", w, nw}, {"HerdingAllocator", a, na}, {"AddressMemo", m, nm}} {
		if !reflect.DeepEqual(c.reset, c.new) {
			t.Errorf("%s after Reset differs from a new one", c.name)
		}
	}
	var nheld []Entry
	script, nscript := rand.New(rand.NewSource(6)), rand.New(rand.NewSource(6))
	for i := 0; i < 50_000; i++ {
		if got, want := step(w, a, m, &held, script), step(nw, na, nm, &nheld, nscript); got != want {
			t.Fatalf("step %d: reset structures gave %v, new ones %v", i, got, want)
		}
	}
	if w.Accuracy() != nw.Accuracy() || a.TopDieAllocShare() != na.TopDieAllocShare() || m.HitRate() != nm.HitRate() {
		t.Error("statistics after the script differ")
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
