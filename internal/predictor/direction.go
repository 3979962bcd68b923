// Package predictor implements the control-flow prediction substrate of
// the simulated machine: the 10KB bimodal/local/global hybrid direction
// predictor of Table 1, the branch target buffers with the paper's 3D
// target memoization, and a return address stack.
//
// For the 3D configurations, the direction predictor models the paper's
// Section 3.7 organization: the two-bit counters are split into a
// direction-bit array (placed on the top two die, accessed at predict and
// update) and a hysteresis-bit array (bottom two die, accessed only at
// update).
//
// Declared deterministic to thermlint: predictor state is part of the
// simulated machine, so identical traces must give identical outcomes.
//
//thermlint:deterministic
package predictor

// twoBitTable is a table of 2-bit saturating counters.
type twoBitTable struct {
	c    []uint8
	mask uint64
}

func newTwoBitTable(entries int) twoBitTable {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("predictor: table entries must be a positive power of two")
	}
	t := twoBitTable{c: make([]uint8, entries), mask: uint64(entries - 1)}
	t.reset()
	return t
}

// reset sets every counter to weakly not-taken.
func (t *twoBitTable) reset() {
	for i := range t.c {
		t.c[i] = 1
	}
}

func (t *twoBitTable) taken(idx uint64) bool { return t.c[idx&t.mask] >= 2 }

func (t *twoBitTable) update(idx uint64, taken bool) {
	i := idx & t.mask
	if taken {
		if t.c[i] < 3 {
			t.c[i]++
		}
	} else if t.c[i] > 0 {
		t.c[i]--
	}
}

// Hybrid is the bimodal/local/global hybrid predictor. A meta (chooser)
// table of 2-bit counters selects between the global (gshare) component
// and the better of the bimodal/local pair, which are themselves fused by
// a second chooser. Sizing approximates the paper's 10KB budget:
//
//	bimodal 4K × 2b = 1KB, local history 1K × 10b + 4K × 2b ≈ 2.25KB,
//	gshare 8K × 2b = 2KB, choosers 2 × 8K × 2b = 4KB  → ≈ 9.3KB.
type Hybrid struct {
	bimodal twoBitTable
	localPT twoBitTable
	localH  []uint16
	global  twoBitTable
	ghist   uint64
	meta    twoBitTable // global vs. (bimodal/local)
	metaBL  twoBitTable // bimodal vs. local

	preds   uint64
	correct uint64

	// Per-die activity of the 3D split organization: direction bits on
	// die {0,1}, hysteresis bits on die {2,3}. Predictions touch only
	// the direction array; updates touch both.
	dieReads  [4]uint64
	dieWrites [4]uint64
}

const (
	localHistBits    = 10
	localHistEntries = 1024
)

// NewHybrid builds the Table 1 predictor.
func NewHybrid() *Hybrid {
	return &Hybrid{
		bimodal: newTwoBitTable(4096),
		localPT: newTwoBitTable(4096),
		localH:  make([]uint16, localHistEntries),
		global:  newTwoBitTable(8192),
		meta:    newTwoBitTable(8192),
		metaBL:  newTwoBitTable(8192),
	}
}

// Reset untrains every table, clears the histories and zeroes the
// statistics: the state NewHybrid builds.
func (h *Hybrid) Reset() {
	for _, t := range []*twoBitTable{&h.bimodal, &h.localPT, &h.global, &h.meta, &h.metaBL} {
		t.reset()
	}
	clear(h.localH)
	h.ghist = 0
	h.preds, h.correct = 0, 0
	h.dieReads, h.dieWrites = [4]uint64{}, [4]uint64{}
}

func (h *Hybrid) localIdx(pc uint64) uint64 {
	hist := uint64(h.localH[(pc>>2)%localHistEntries])
	return hist ^ (pc >> 2 << localHistBits)
}

func (h *Hybrid) globalIdx(pc uint64) uint64 {
	return (pc >> 2) ^ h.ghist
}

// Predict returns the predicted direction for the branch at pc.
func (h *Hybrid) Predict(pc uint64) bool {
	h.preds++
	// A prediction reads direction bits only: top two die.
	h.dieReads[0]++
	h.dieReads[1]++
	b := h.bimodal.taken(pc >> 2)
	l := h.localPT.taken(h.localIdx(pc))
	g := h.global.taken(h.globalIdx(pc))
	bl := b
	if h.metaBL.taken(pc >> 2) {
		bl = l
	}
	if h.meta.taken(h.globalIdx(pc)) {
		return g
	}
	return bl
}

// Update trains all components with the resolved outcome. predicted must
// be the value Predict returned for this branch instance.
func (h *Hybrid) Update(pc uint64, taken, predicted bool) {
	if predicted == taken {
		h.correct++
	}
	// Update touches direction and hysteresis arrays: all four die.
	for d := 0; d < 4; d++ {
		h.dieWrites[d]++
	}
	b := h.bimodal.taken(pc >> 2)
	l := h.localPT.taken(h.localIdx(pc))
	g := h.global.taken(h.globalIdx(pc))

	// Choosers train toward whichever component was right.
	if b != l {
		h.metaBL.update(pc>>2, l == taken)
	}
	bl := b
	if h.metaBL.taken(pc >> 2) {
		bl = l
	}
	if g != bl {
		h.meta.update(h.globalIdx(pc), g == taken)
	}

	h.bimodal.update(pc>>2, taken)
	h.localPT.update(h.localIdx(pc), taken)
	h.global.update(h.globalIdx(pc), taken)

	// Histories.
	lh := &h.localH[(pc>>2)%localHistEntries]
	*lh = (*lh<<1 | boolBit(taken)) & (1<<localHistBits - 1)
	h.ghist = (h.ghist<<1 | uint64(boolBit(taken))) & 0x1fff
}

func boolBit(b bool) uint16 {
	if b {
		return 1
	}
	return 0
}

// ResetStats zeroes prediction statistics and die-activity counters,
// preserving all trained predictor state.
func (h *Hybrid) ResetStats() {
	h.preds, h.correct = 0, 0
	h.dieReads, h.dieWrites = [4]uint64{}, [4]uint64{}
}

// Accuracy returns the fraction of correct predictions so far, or 1 when
// no branches have resolved.
func (h *Hybrid) Accuracy() float64 {
	if h.preds == 0 {
		return 1
	}
	return float64(h.correct) / float64(h.preds)
}

// Predictions returns the number of Predict calls.
func (h *Hybrid) Predictions() uint64 { return h.preds }

// DieActivity returns per-die (reads, writes) of the split direction/
// hysteresis organization. Die 0-1 hold direction bits (read every
// prediction), die 2-3 hysteresis bits (written at update only).
func (h *Hybrid) DieActivity() (reads, writes [4]uint64) {
	return h.dieReads, h.dieWrites
}
