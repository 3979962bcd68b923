package predictor

// IndirectBTB is the 512-entry indirect-branch target buffer of Table 1
// (iBTB). Indirect jumps whose targets are not returns (so the RAS
// cannot supply them) are predicted from a small target cache indexed by
// the branch PC hashed with recent global target history, which lets it
// distinguish call-site-dependent targets of the same indirect branch.
type IndirectBTB struct {
	btb  *BTB
	hist uint64

	lookups uint64
	correct uint64
}

// NewIndirectBTB builds an iBTB with the given entries and ways.
func NewIndirectBTB(entries, ways int) *IndirectBTB {
	return &IndirectBTB{btb: NewBTB(entries, ways)}
}

func (i *IndirectBTB) index(pc uint64) uint64 {
	return pc ^ (i.hist << 2)
}

// Predict returns the predicted target for the indirect branch at pc.
func (i *IndirectBTB) Predict(pc uint64) (target uint64, ok bool) {
	i.lookups++
	r := i.btb.Lookup(i.index(pc))
	return r.Target, r.Hit
}

// Update trains the iBTB with the resolved target and folds it into the
// path history. predicted/ok must be Predict's output for this instance.
func (i *IndirectBTB) Update(pc, actual uint64, predicted uint64, ok bool) {
	if ok && predicted == actual {
		i.correct++
	}
	i.btb.Update(i.index(pc), actual)
	i.hist = (i.hist<<4 ^ actual>>2) & 0xffff
}

// Accuracy returns the fraction of lookups whose prediction matched.
func (i *IndirectBTB) Accuracy() float64 {
	if i.lookups == 0 {
		return 1
	}
	return float64(i.correct) / float64(i.lookups)
}

// Reset forgets every target and the path history and zeroes the
// statistics: the state NewIndirectBTB builds.
func (i *IndirectBTB) Reset() {
	i.btb.Reset()
	i.hist, i.lookups, i.correct = 0, 0, 0
}

// ResetStats zeroes statistics, preserving learned targets.
func (i *IndirectBTB) ResetStats() {
	i.lookups, i.correct = 0, 0
	i.btb.ResetStats()
}
