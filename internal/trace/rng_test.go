package trace

import (
	"math/rand"
	"slices"
	"testing"
)

// rngTestSeeds covers seed reduction (0 maps to 89482311, negatives
// wrap, seeds ≥ 1<<31 reduce mod 1<<31-1) and every suite workload's
// seed.
func rngTestSeeds() []int64 {
	seeds := []int64{0, -5, 1 << 31, 1<<40 + 12345, -(1 << 45), 89482311, 42}
	for _, p := range Suite() {
		seeds = append(seeds, p.Seed)
	}
	return seeds
}

// intnBounds exercises Intn's three paths: n = 1, powers of two (mask),
// and non-powers (rejection), including bounds whose rejection rate is
// near one half and the largest bound the port serves.
var intnBounds = []int{
	1, 2, 32, 64, 1 << 20, 1 << 30,
	3, 7, 43, 45, 48, 1000, 4096 + 1, 12288, 1<<30 + 1, 1<<31 - 1,
}

// TestRNGMatchesMathRand checks the port draw for draw against
// rand.New(rand.NewSource(seed)), interleaving every ported method.
func TestRNGMatchesMathRand(t *testing.T) {
	const draws = 200_000
	for _, seed := range rngTestSeeds() {
		ref := rand.New(rand.NewSource(seed))
		got := newRNGSource(seed)
		for i := 0; i < draws; i++ {
			switch i % 3 {
			case 0:
				if w, g := ref.Float64(), got.Float64(); w != g {
					t.Fatalf("seed %d draw %d: Float64 = %v, want %v", seed, i, g, w)
				}
			case 1:
				n := intnBounds[(i/3)%len(intnBounds)]
				if w, g := ref.Intn(n), got.Intn(n); w != g {
					t.Fatalf("seed %d draw %d: Intn(%d) = %d, want %d", seed, i, n, g, w)
				}
			case 2:
				if w, g := ref.Uint64(), got.Uint64(); w != g {
					t.Fatalf("seed %d draw %d: Uint64 = %#x, want %#x", seed, i, g, w)
				}
			}
		}
	}
}

func TestRNGIntnPanicsOutsidePortedRange(t *testing.T) {
	// 1<<31 is the least bound rand.Rand serves from the unported
	// Int63n path (it wraps negative where int is 32 bits).
	for _, n := range []int{0, -1, int(int64(int32max) + 1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			rng := newRNGSource(1)
			rng.Intn(n)
		}()
	}
}

// coinProbabilities returns 0, 1 and every probability the generator
// flips through a threshold, deduplicated.
func coinProbabilities() []float64 {
	ps := []float64{0, 1, 0.98, 0.995, 0.02}
	for _, p := range Suite() {
		ps = append(ps, 1-1/p.DepDistMean, p.HotFrac)
	}
	slices.Sort(ps)
	return slices.Compact(ps)
}

// scriptedSource returns a source whose next Int63 draws are xs (at most
// two, non-negative). Each Uint64 adds vec[feed] and vec[tap] after
// stepping both back by one; the first two draws read four distinct
// slots, so zeroing the tap slots and storing xs in the feed slots
// scripts them.
func scriptedSource(xs ...int64) rngSource {
	rng := newRNGSource(1)
	tap, feed := rng.tap, rng.feed
	for _, x := range xs {
		tap = (tap - 1 + rngLen) % rngLen
		feed = (feed - 1 + rngLen) % rngLen
		rng.vec[tap] = 0
		rng.vec[feed] = x
	}
	return rng
}

// scriptedRand is a math/rand Source replaying xs.
type scriptedRand []int64

func (s *scriptedRand) Int63() int64 {
	x := (*s)[0]
	*s = (*s)[1:]
	return x
}

func (s *scriptedRand) Seed(int64) {}

// TestFlipBoundaries pins each threshold from both sides and the
// resample bound from both sides, against math/rand's Float64 fed the
// same draws: a threshold or resample bound off by one fails here.
func TestFlipBoundaries(t *testing.T) {
	// Float64 keeps floatOneFrom-1 and rounds floatOneFrom up to 1.0.
	if f := float64(int64(floatOneFrom-1)) / (1 << 63); f >= 1 {
		t.Errorf("float64(floatOneFrom-1)/(1<<63) = %v, want < 1", f)
	}
	if f := float64(int64(floatOneFrom)) / (1 << 63); f != 1 {
		t.Errorf("float64(floatOneFrom)/(1<<63) = %v, want 1", f)
	}
	const after = 12345 // a draw following a resample
	for _, p := range coinProbabilities() {
		th := thresholdFor(p)
		var cases [][]int64
		if th > 0 {
			cases = append(cases, []int64{int64(th) - 1})
		}
		if th < floatOneFrom {
			cases = append(cases, []int64{int64(th)})
		}
		cases = append(cases,
			[]int64{floatOneFrom - 1, after},
			[]int64{floatOneFrom, after},
			[]int64{rngMask, after},
		)
		for _, xs := range cases {
			ref := scriptedRand(slices.Clone(xs))
			want := rand.New(&ref).Float64() < p
			rng := scriptedSource(xs...)
			if got := rng.flip(th); got != want {
				t.Errorf("p=%v draws %d: flip = %v, want %v", p, xs, got, want)
			}
			// A fresh source's tap starts at 0 and steps back one per draw.
			used, wantUsed := (rngLen-rng.tap)%rngLen, len(xs)-len(ref)
			if used != wantUsed {
				t.Errorf("p=%v draws %d: flip consumed %d draws, want %d", p, xs, used, wantUsed)
			}
		}
	}
}

// TestFlipMatchesFloat64 compares flip against Float64() < p over long
// seeded streams for every probability the generator uses.
func TestFlipMatchesFloat64(t *testing.T) {
	const draws = 100_000
	for i, p := range coinProbabilities() {
		seed := int64(1000 + i)
		ref := rand.New(rand.NewSource(seed))
		got := newRNGSource(seed)
		th := thresholdFor(p)
		for j := 0; j < draws; j++ {
			if w, g := ref.Float64() < p, got.flip(th); w != g {
				t.Fatalf("p=%v draw %d: flip = %v, want %v", p, j, g, w)
			}
		}
		if ref.Uint64() != got.Uint64() {
			t.Fatalf("p=%v: streams out of step after %d flips", p, draws)
		}
	}
}
