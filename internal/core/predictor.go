package core

// WidthPredictor is the PC-indexed table of two-bit saturating counters
// that predicts, for each instruction, whether its result (and operand
// usage) will be low-width (≤16 bits) or full-width. The paper cites the
// scheme of Loh (reference [13]) and reports 97% of fetched instructions
// correctly predicted.
//
// Counter semantics: values 0..1 predict full-width, 2..3 predict
// low-width. The counter trains toward the observed width on every
// resolution. An "unsafe" misprediction — predicted low, actually full —
// costs pipeline stalls; a "safe" misprediction — predicted full,
// actually low — merely forgoes gating.
type WidthPredictor struct {
	counters []uint8
	mask     uint64

	// Statistics.
	predictions uint64
	correct     uint64
	unsafeMiss  uint64
	safeMiss    uint64
}

// widthCounterInit biases new counters toward predicting low-width (the
// common case in integer code) without being fully confident.
const widthCounterInit = 2

// NewWidthPredictor creates a predictor with the given number of entries,
// which must be a power of two.
func NewWidthPredictor(entries int) *WidthPredictor {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("core: width predictor entries must be a positive power of two")
	}
	p := &WidthPredictor{
		counters: make([]uint8, entries),
		mask:     uint64(entries - 1),
	}
	p.Reset()
	return p
}

func (p *WidthPredictor) index(pc uint64) uint64 {
	// Instructions are 4-byte aligned; drop the alignment bits so
	// adjacent instructions map to distinct counters.
	return (pc >> 2) & p.mask
}

// Predict returns true if the instruction at pc is predicted low-width.
func (p *WidthPredictor) Predict(pc uint64) bool {
	p.predictions++
	return p.counters[p.index(pc)] >= 2
}

// Resolve trains the predictor with the actual outcome for pc and records
// accuracy statistics. predictedLow must be the value Predict returned
// for this dynamic instance; actualLow is the resolved width class.
// It reports whether the misprediction (if any) was unsafe.
func (p *WidthPredictor) Resolve(pc uint64, predictedLow, actualLow bool) (unsafe bool) {
	i := p.index(pc)
	c := p.counters[i]
	if actualLow {
		if c < 3 {
			p.counters[i] = c + 1
		}
	} else {
		if c > 0 {
			p.counters[i] = c - 1
		}
	}
	switch {
	case predictedLow == actualLow:
		p.correct++
		return false
	case predictedLow && !actualLow:
		p.unsafeMiss++
		return true
	default:
		p.safeMiss++
		return false
	}
}

// CorrectOverride forces the entry for pc to predict full-width. The
// paper's register file "corrects the instruction's width prediction to
// prevent any further stalls in the rest of the pipeline" on an unsafe
// misprediction; this models that in-flight correction.
func (p *WidthPredictor) CorrectOverride(pc uint64) {
	p.counters[p.index(pc)] = 0
}

// Accuracy returns the fraction of resolved predictions that were
// correct, or 1 if nothing has resolved yet.
func (p *WidthPredictor) Accuracy() float64 {
	resolved := p.correct + p.unsafeMiss + p.safeMiss
	if resolved == 0 {
		return 1
	}
	return float64(p.correct) / float64(resolved)
}

// Stats returns (predictions made, correct, unsafe mispredictions, safe
// mispredictions).
func (p *WidthPredictor) Stats() (predictions, correct, unsafeMiss, safeMiss uint64) {
	return p.predictions, p.correct, p.unsafeMiss, p.safeMiss
}

// UnsafeRate returns the fraction of resolved predictions that were
// unsafe mispredictions.
func (p *WidthPredictor) UnsafeRate() float64 {
	resolved := p.correct + p.unsafeMiss + p.safeMiss
	if resolved == 0 {
		return 0
	}
	return float64(p.unsafeMiss) / float64(resolved)
}

// ResetStats zeroes accuracy statistics while preserving the trained
// counters.
func (p *WidthPredictor) ResetStats() {
	p.predictions, p.correct, p.unsafeMiss, p.safeMiss = 0, 0, 0, 0
}

// Reset clears counters to their initial bias and zeroes statistics.
func (p *WidthPredictor) Reset() {
	for i := range p.counters {
		p.counters[i] = widthCounterInit
	}
	p.predictions, p.correct, p.unsafeMiss, p.safeMiss = 0, 0, 0, 0
}

// OraclePolicy enumerates width-prediction policies for the ablation
// study: the real two-bit predictor, a perfect oracle, and the two
// degenerate static policies.
type OraclePolicy uint8

// Width prediction policies.
const (
	PolicyTwoBit OraclePolicy = iota
	PolicyOracle              // always predicts the actual width
	PolicyAlwaysLow
	PolicyAlwaysFull
)

// String names the policy.
func (p OraclePolicy) String() string {
	switch p {
	case PolicyTwoBit:
		return "2bit"
	case PolicyOracle:
		return "oracle"
	case PolicyAlwaysLow:
		return "always-low"
	case PolicyAlwaysFull:
		return "always-full"
	}
	return "unknown"
}
