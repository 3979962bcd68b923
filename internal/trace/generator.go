package trace

import (
	"fmt"
	"math"

	"thermalherd/internal/isa"
)

// Profile parameterizes a synthetic workload. Each of the paper's 106
// application traces is represented by one Profile (see suites.go) whose
// parameters encode the workload dimensions the evaluation is sensitive
// to: instruction mix, value-width behaviour, memory footprint and
// locality, branch predictability, and instruction-level parallelism.
type Profile struct {
	// Name and Group identify the workload ("mcf", SPECint2000, ...).
	Name  string
	Group Group
	// Seed makes the stream deterministic.
	Seed int64

	// Instruction mix (fractions of the dynamic stream; the remainder
	// is plain ALU work).
	FracLoad   float64
	FracStore  float64
	FracBranch float64
	FracJump   float64
	FracShift  float64
	FracMulDiv float64
	FracFPAdd  float64
	FracFPMul  float64
	FracFPDiv  float64

	// LowWidthStaticFrac is the fraction of static integer producers
	// biased toward low-width (≤16-bit) results. Biased producers emit
	// low-width values 99.5% of the time; unbiased ones 2%.
	LowWidthStaticFrac float64

	// Load value composition (fractions of 64-bit load results):
	// PtrLoadFrac return pointers into the same region (PVAddr case),
	// NegValFrac return small negatives (PVOnes case); the remaining
	// loads follow the producer width model.
	PtrLoadFrac float64
	NegValFrac  float64

	// Memory behaviour. WorkingSet is the data footprint in bytes;
	// HotFrac is the probability an access falls in the hot subset
	// (≤16KB) of the working set; StackFrac is the fraction of memory
	// operations addressing the stack region.
	WorkingSet uint64
	HotFrac    float64
	StackFrac  float64

	// HardBranchFrac is the fraction of static branches with
	// history-independent ~50/50 outcomes (mispredict-prone); the rest
	// are ~95% biased.
	HardBranchFrac float64

	// FarTargetFrac is the fraction of static jumps whose target lies
	// in a different upper-48-bit region than the branch PC (forcing
	// BTB full-target reads).
	FarTargetFrac float64

	// DepDistMean is the mean register dependency distance in
	// instructions (higher = more ILP).
	DepDistMean float64

	// StaticInsts is the static code size in instructions (power of
	// two not required, at most 1<<31-1); controls I-cache and
	// predictor pressure.
	StaticInsts int
}

// Group is a benchmark suite grouping, mirroring the paper's Figure 8
// benchmark classes.
type Group uint8

// The seven workload groups of the paper's evaluation.
const (
	GroupSPECint Group = iota
	GroupSPECfp
	GroupMediaBench
	GroupMiBench
	GroupPointer
	GroupGraphics
	GroupBio
	NumGroups
)

// String names the group as the paper's figures do.
func (g Group) String() string {
	switch g {
	case GroupSPECint:
		return "SPECint2000"
	case GroupSPECfp:
		return "SPECfp2000"
	case GroupMediaBench:
		return "MediaBench"
	case GroupMiBench:
		return "MiBench"
	case GroupPointer:
		return "Pointer"
	case GroupGraphics:
		return "Graphics"
	case GroupBio:
		return "Bio"
	}
	return fmt.Sprintf("group(%d)", uint8(g))
}

// Validate checks profile parameters for consistency.
func (p *Profile) Validate() error {
	mix := p.FracLoad + p.FracStore + p.FracBranch + p.FracJump +
		p.FracShift + p.FracMulDiv + p.FracFPAdd + p.FracFPMul + p.FracFPDiv
	if mix > 1.0+1e-9 {
		return fmt.Errorf("trace: %s: instruction mix sums to %.3f > 1", p.Name, mix)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"LowWidthStaticFrac", p.LowWidthStaticFrac},
		{"PtrLoadFrac", p.PtrLoadFrac},
		{"NegValFrac", p.NegValFrac},
		{"HotFrac", p.HotFrac},
		{"StackFrac", p.StackFrac},
		{"HardBranchFrac", p.HardBranchFrac},
		{"FarTargetFrac", p.FarTargetFrac},
	} {
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("trace: %s: %s = %g outside [0,1]", p.Name, f.name, f.v)
		}
	}
	if p.WorkingSet < 4096 {
		return fmt.Errorf("trace: %s: working set %d too small", p.Name, p.WorkingSet)
	}
	if p.StaticInsts < 16 {
		return fmt.Errorf("trace: %s: static program too small (%d)", p.Name, p.StaticInsts)
	}
	if p.StaticInsts > math.MaxInt32 {
		return fmt.Errorf("trace: %s: static program too large (%d)", p.Name, p.StaticInsts)
	}
	if p.DepDistMean < 1 {
		return fmt.Errorf("trace: %s: DepDistMean %g < 1", p.Name, p.DepDistMean)
	}
	return nil
}

// Address space layout for synthetic streams. The bases have non-zero
// upper-48 bits, like real user-space addresses, so PAM and the BTB
// target memoization see realistic behaviour.
const (
	codeBase  = 0x0000_0040_0000
	farBase   = 0x0000_7000_0000_0000 // far call targets (different upper 48)
	heapBase  = 0x0000_2000_0000_0000
	stackBase = 0x0000_7fff_f000_0000
	hotSetMax = 16 << 10
)

type staticKind uint8

const (
	kindALU staticKind = iota
	kindShift
	kindMulDiv
	kindLoad
	kindStore
	kindBranch
	kindJump
	kindFPAdd
	kindFPMul
	kindFPDiv
)

// staticInst is one instruction of the synthesized static program.
// Every simulation allocates and zeroes StaticInsts of them, so the
// fields are sized and ordered to pack into 40 bytes.
type staticInst struct {
	kind    staticKind
	lowBias bool // integer producer biased toward low-width results

	// Memory behaviour (loads/stores).
	stack   bool
	ptrLoad bool
	negLoad bool
	stride  uint8 // 0 = random within working set, else strided

	// Branch behaviour.
	far      bool // jump to a far (different upper-48) region
	backward bool

	// Strided accessors stream through a bounded buffer (streamBase,
	// Generator.streamLen) inside the working set, wrapping — a media
	// kernel re-traversing its frame buffer — rather than crawling the
	// whole working set, which would manufacture compulsory misses
	// forever. cursor is the per-static-instruction position in it.
	cursor     uint32
	targetIdx  int32 // branch/jump: static index of the taken target
	streamBase uint64

	takenProb float64 // branch/jump
	// tripsLeft is the loop-iteration state of a backward branch: a
	// fresh entry draws a trip count (geometric in takenProb); the
	// branch is then taken until the count drains, and falls through
	// exactly once — real loop behaviour, which keeps the program walk
	// drifting forward instead of sinking toward index 0.
	tripsLeft int32
}

// Generator emits a deterministic synthetic dynamic instruction stream
// for a Profile. It implements Source.
type Generator struct {
	prof Profile
	rng  rngSource
	// pCont is the threshold of the per-step continuation probability
	// of the geometric dependency distance, whose mean is
	// prof.DepDistMean; pHot that of prof.HotFrac.
	pCont, pHot threshold
	// streamLen is the length of every strided accessor's buffer.
	streamLen uint64
	code      []staticInst

	idx int // current static instruction index
	// Call/return state: jumps model calls; after a callee runs for a
	// few instructions, control returns to the call's fall-through.
	retStack   []int
	calleeLeft int

	destRR int // round-robin destination register allocator
	// recent is a ring of the last producerWindow producers; noted
	// counts every producer ever noted, so the newest is at
	// (noted-1) mod producerWindow. newestInt[low] is the noted count
	// just after the newest integer producer of that width class (0:
	// none yet).
	recent    [producerWindow]producer
	noted     uint64
	newestInt [2]uint64
	regVal    [64]uint64
	emitted   uint64
}

// producerWindow bounds how far back pickSource looks for a producer.
const producerWindow = 64

// producer records a recently written register and the width class of
// the value it holds, so consumers can exhibit the width locality real
// dataflow has (low-width pipelines feed low-width consumers).
type producer struct {
	reg int16
	low bool
}

// NewGenerator builds the static program for prof and returns a stream
// generator. It panics if the profile fails validation (profiles are
// authored in suites.go; a bad one is a programming error).
func NewGenerator(prof Profile) *Generator {
	if err := prof.Validate(); err != nil {
		panic(err)
	}
	g := &Generator{
		prof:      prof,
		rng:       newRNGSource(prof.Seed),
		pCont:     thresholdFor(1 - 1/prof.DepDistMean),
		pHot:      thresholdFor(prof.HotFrac),
		streamLen: min(prof.WorkingSet, 128<<10),
	}
	g.synthesize()
	return g
}

// Thresholds of the generator's constant probabilities: an integer
// producer's result is low-width with probability pLowBiased (biased
// producers) or pLowUnbiased (the rest), and a consumer prefers a
// producer of its own width class with probability pWidthLocal.
var (
	pLowBiased   = thresholdFor(0.995)
	pLowUnbiased = thresholdFor(0.02)
	pWidthLocal  = thresholdFor(0.98)
)

// Profile returns the generator's workload profile.
func (g *Generator) Profile() Profile { return g.prof }

// synthesize builds the static program: a linear code layout where every
// basic block ends in a branch whose taken target is usually backward
// (forming loops) and occasionally forward.
func (g *Generator) synthesize() {
	p := &g.prof
	n := p.StaticInsts
	g.code = make([]staticInst, n)

	// First decide which slots are control-flow, spreading them evenly
	// at the configured density.
	ctrlEvery := 1.0 / (p.FracBranch + p.FracJump + 1e-12)
	if ctrlEvery > float64(n) {
		ctrlEvery = float64(n)
	}
	period := int(ctrlEvery + 0.5)
	jumpShare := p.FracJump / (p.FracBranch + p.FracJump + 1e-12)
	lastBack := -1 // slot of the most recent loop back edge
	for i := range g.code {
		si := &g.code[i]
		isCtrlSlot := ctrlEvery <= 1 || (i > 0 && i%period == period-1)
		if isCtrlSlot && i != n-1 {
			if g.rng.Float64() < jumpShare {
				si.kind = kindJump
				si.takenProb = 1
				si.far = g.rng.Float64() < p.FarTargetFrac
				si.targetIdx = int32(g.rng.Intn(n))
			} else {
				si.kind = kindBranch
				// Loop bodies are kept >= minBody instructions so the
				// dynamic instruction mix inside hot loops matches the
				// static mix (tiny loops would skew it), and loops are
				// disjoint (a back edge never reaches behind the
				// previous back edge) so trip counts cannot compound
				// multiplicatively through accidental nesting.
				const minBody, maxBody = 12, 56
				makeLoop := false
				loopLo, loopHi := 0, 0
				if r := g.rng.Float64(); r >= p.HardBranchFrac &&
					r < p.HardBranchFrac+(1-p.HardBranchFrac)*0.5 {
					loopLo = max(i-maxBody, lastBack+1)
					loopHi = i - minBody
					makeLoop = loopHi >= loopLo
				}
				switch {
				case makeLoop:
					// Loop back edge: iterates per a geometric trip
					// count (mean takenProb/(1-takenProb)), then exits.
					si.takenProb = 0.88 + 0.07*g.rng.Float64()
					si.backward = true
					si.targetIdx = int32(loopLo + g.rng.Intn(loopHi-loopLo+1))
					si.tripsLeft = -1
					lastBack = i
				case g.rng.Float64() < p.HardBranchFrac*2:
					// Hard data-dependent branch: ~50/50, forward so it
					// cannot trap the walk.
					si.takenProb = 0.35 + 0.3*g.rng.Float64()
					si.targetIdx = int32(min(i+minBody+g.rng.Intn(maxBody-minBody+1), n-1))
				default:
					// Guard branch, rarely taken, forward.
					si.takenProb = 0.02 + 0.05*g.rng.Float64()
					si.targetIdx = int32(min(i+minBody+g.rng.Intn(maxBody-minBody+1), n-1))
				}
			}
			continue
		}
		// Non-control slot: draw the kind from the remaining mix.
		rem := 1 - p.FracBranch - p.FracJump
		u := g.rng.Float64() * rem
		switch {
		case u < p.FracLoad:
			si.kind = kindLoad
			si.ptrLoad = g.rng.Float64() < p.PtrLoadFrac
			si.negLoad = !si.ptrLoad && g.rng.Float64() < p.NegValFrac
			g.assignMemBehaviour(si)
		case u < p.FracLoad+p.FracStore:
			si.kind = kindStore
			g.assignMemBehaviour(si)
		case u < p.FracLoad+p.FracStore+p.FracShift:
			si.kind = kindShift
		case u < p.FracLoad+p.FracStore+p.FracShift+p.FracMulDiv:
			si.kind = kindMulDiv
		case u < p.FracLoad+p.FracStore+p.FracShift+p.FracMulDiv+p.FracFPAdd:
			si.kind = kindFPAdd
		case u < p.FracLoad+p.FracStore+p.FracShift+p.FracMulDiv+p.FracFPAdd+p.FracFPMul:
			si.kind = kindFPMul
		case u < p.FracLoad+p.FracStore+p.FracShift+p.FracMulDiv+p.FracFPAdd+p.FracFPMul+p.FracFPDiv:
			si.kind = kindFPDiv
		default:
			si.kind = kindALU
		}
		si.lowBias = g.rng.Float64() < p.LowWidthStaticFrac
	}
	// The last instruction wraps the walk back to the start (the
	// outermost loop of the program).
	last := &g.code[n-1]
	last.kind = kindBranch
	last.takenProb = 0.999
	last.targetIdx = 0
}

func (g *Generator) assignMemBehaviour(si *staticInst) {
	p := &g.prof
	si.stack = g.rng.Float64() < p.StackFrac
	// Half of heap accessors are strided (streaming), half random.
	if !si.stack && g.rng.Float64() < 0.5 {
		si.stride = 8 << uint(g.rng.Intn(3)) // 8, 16, or 32 bytes
		if p.WorkingSet > g.streamLen {
			si.streamBase = (g.rng.Uint64() % (p.WorkingSet - g.streamLen)) &^ 63
		}
	}
}

// Next implements Source. The stream is unbounded; callers cap it.
func (g *Generator) Next() (Inst, bool) {
	// A pending return from a callee emits an explicit return jump so
	// the dynamic stream stays control-flow consistent (and the return
	// address stack has something to predict).
	if len(g.retStack) > 0 && g.calleeLeft <= 0 {
		ret := g.retStack[len(g.retStack)-1]
		g.retStack = g.retStack[:len(g.retStack)-1]
		g.calleeLeft = 8 + g.rng.Intn(32)
		in := Inst{
			PC: g.pcOf(g.idx), Op: isa.OpJalr, Class: isa.ClassJump,
			Dest: RegNone, Src1: 31, Src2: RegNone,
			Taken: true, Target: g.pcOf(ret),
		}
		g.idx = ret
		g.emitted++
		return in, true
	}
	si := &g.code[g.idx]
	pc := g.pcOf(g.idx)

	in := Inst{PC: pc, Dest: RegNone, Src1: RegNone, Src2: RegNone}
	nextIdx := g.idx + 1

	switch si.kind {
	case kindALU, kindShift, kindMulDiv:
		in.Op, in.Class = opForKind(si.kind)
		in.Result = g.intResult(si)
		low := in.Result>>16 == 0
		in.Src1 = g.pickSource(false, low)
		in.Src2 = g.pickSource(false, low)
		in.Dest = g.pickDest(false)
		g.regVal[in.Dest] = in.Result

	case kindFPAdd, kindFPMul, kindFPDiv:
		in.Op, in.Class = opForKind(si.kind)
		in.Src1 = g.pickSource(true, false)
		in.Src2 = g.pickSource(true, false)
		in.Dest = g.pickDest(true)
		// FP bit patterns are full-width essentially always.
		in.Result = 0x4000_0000_0000_0000 | g.rng.Uint64()>>2
		g.regVal[in.Dest] = in.Result

	case kindLoad:
		in.Op, in.Class = isa.OpLd, isa.ClassLoad
		in.Src1 = g.pickSource(false, false) // address register: full-width pointer
		in.Dest = g.pickDest(false)
		in.MemAddr, in.MemSize = g.memAddr(si), 8
		in.Result = g.loadValue(si, in.MemAddr)
		g.regVal[in.Dest] = in.Result

	case kindStore:
		in.Op, in.Class = isa.OpSt, isa.ClassStore
		in.Src1 = g.pickSource(false, false)      // address register
		in.Src2 = g.pickSource(false, si.lowBias) // data register
		in.MemAddr, in.MemSize = g.memAddr(si), 8
		if in.Src2 != RegNone {
			in.StoreVal = g.regVal[in.Src2]
		}

	case kindBranch:
		in.Op, in.Class = isa.OpBne, isa.ClassBranch
		in.Src1 = g.pickSource(false, true)
		in.Src2 = g.pickSource(false, true)
		var taken bool
		if si.backward {
			// Structured loop: fresh entry draws a trip count, then the
			// branch is taken until the count drains and falls through
			// exactly once.
			if si.tripsLeft < 0 {
				trips := int32(0)
				for g.rng.Float64() < si.takenProb {
					trips++
				}
				si.tripsLeft = trips
			}
			if si.tripsLeft > 0 {
				taken = true
				si.tripsLeft--
			} else {
				taken = false
				si.tripsLeft = -1
			}
		} else {
			taken = g.rng.Float64() < si.takenProb
		}
		in.Taken = taken
		in.Target = g.pcOf(int(si.targetIdx))
		if taken {
			nextIdx = int(si.targetIdx)
		}

	case kindJump:
		// Jumps model calls: control transfers to the (static) callee
		// and returns to the fall-through after a few instructions.
		in.Op, in.Class = isa.OpJal, isa.ClassJump
		in.Dest = g.pickDest(false)
		in.Taken = true
		in.Target = g.pcOf(int(si.targetIdx))
		if si.far {
			// A far callee (shared library, distant text): the target
			// address lies in a different upper-48-bit region, forcing
			// a BTB full-target read under 3D target memoization.
			in.Target = farBase | in.Target
		}
		in.Result = pc + 4
		g.regVal[in.Dest] = in.Result
		if len(g.retStack) < 16 {
			g.retStack = append(g.retStack, g.idx+1)
		}
		g.calleeLeft = 8 + g.rng.Intn(32)
		nextIdx = int(si.targetIdx)
	}

	// Tick down the current callee's remaining length; the return
	// itself is emitted by the next Next call.
	if si.kind != kindJump && len(g.retStack) > 0 {
		g.calleeLeft--
	}

	if nextIdx == len(g.code) {
		nextIdx = 0
	}
	g.idx = nextIdx
	g.emitted++
	if in.Dest != RegNone {
		low := in.Dest < FPBase && in.Result>>16 == 0
		g.noteDest(in.Dest, low)
	}
	return in, true
}

func (g *Generator) pcOf(idx int) uint64 { return codeBase + uint64(4*idx) }

func opForKind(k staticKind) (isa.Opcode, isa.Class) {
	switch k {
	case kindALU:
		return isa.OpAdd, isa.ClassALU
	case kindShift:
		return isa.OpSll, isa.ClassShift
	case kindMulDiv:
		return isa.OpMul, isa.ClassMulDiv
	case kindFPAdd:
		return isa.OpFAdd, isa.ClassFPAdd
	case kindFPMul:
		return isa.OpFMul, isa.ClassFPMul
	case kindFPDiv:
		return isa.OpFDiv, isa.ClassFPDiv
	}
	return isa.OpNop, isa.ClassNop
}

// pickDest allocates destination registers round-robin, avoiding r0.
func (g *Generator) pickDest(fp bool) int16 {
	g.destRR = (g.destRR + 1) % 30
	d := int16(g.destRR + 1)
	if fp {
		d += FPBase
	}
	return d
}

// pickSource draws a source register at a geometric dependency distance
// over recent producers, modelling the profile's ILP. preferLow biases
// the choice toward producers whose value matches the consumer's width
// class: real code exhibits strong width locality (a 16-bit media
// pipeline consumes 16-bit values), which is precisely what makes the
// paper's per-PC width prediction accurate.
func (g *Generator) pickSource(fp, preferLow bool) int16 {
	if g.noted == 0 {
		if fp {
			return FPBase + 1
		}
		return 1
	}
	// Geometric distance with mean DepDistMean.
	dist := 0
	window := int(min(g.noted, producerWindow))
	for dist < window-1 && g.rng.flip(g.pCont) {
		dist++
	}
	r := g.producerBack(dist)
	if !fp && r.low != preferLow && g.rng.flip(pWidthLocal) {
		// Width-locality: take the newest integer producer in the
		// window of the matching width class, if there is one.
		if at := g.newestInt[b2i(preferLow)]; at > 0 && g.noted-at < producerWindow {
			r = g.producerBack(int(g.noted - at))
		}
	}
	if fp != (r.reg >= FPBase) {
		// Wrong file: fall back to a fixed register of the right kind.
		if fp {
			return FPBase + 1
		}
		return 1
	}
	return r.reg
}

func (g *Generator) noteDest(d int16, low bool) {
	g.recent[g.noted%producerWindow] = producer{reg: d, low: low}
	g.noted++
	if d < FPBase {
		g.newestInt[b2i(low)] = g.noted
	}
}

// producerBack returns the producer back places before the newest one.
func (g *Generator) producerBack(back int) producer {
	return g.recent[(g.noted-1-uint64(back))%producerWindow]
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// intResult draws a result value honouring the static instruction's
// width bias.
func (g *Generator) intResult(si *staticInst) uint64 {
	t := pLowUnbiased
	if si.lowBias {
		t = pLowBiased
	}
	low := g.rng.flip(t)
	if low {
		return g.rng.Uint64() & 0xffff
	}
	// Full-width: random magnitude between 17 and 64 significant bits.
	bits := 17 + g.rng.Intn(48)
	return g.rng.Uint64()>>(64-uint(bits)) | 1<<uint(bits-1)
}

// loadValue draws a loaded value per the profile's composition, with the
// PVAddr pointer case tied to the load address's region.
func (g *Generator) loadValue(si *staticInst, addr uint64) uint64 {
	switch {
	case si.ptrLoad:
		// A pointer to a nearby object: same upper 48 bits.
		return (addr &^ 0xffff) | (g.rng.Uint64() & 0xffff)
	case si.negLoad:
		return ^(g.rng.Uint64() & 0x7fff) // small negative
	default:
		return g.intResult(si)
	}
}

// memAddr produces the effective address for a memory static instruction.
func (g *Generator) memAddr(si *staticInst) uint64 {
	if si.stack {
		// Stack frame accesses: a small window below the stack base.
		return stackBase - uint64(8*(1+g.rng.Intn(64)))
	}
	ws := g.prof.WorkingSet
	if si.stride != 0 {
		cursor := (uint64(si.cursor) + uint64(si.stride)) % g.streamLen
		si.cursor = uint32(cursor)
		return heapBase + si.streamBase + cursor&^7
	}
	hot := ws
	if hot > hotSetMax {
		hot = hotSetMax
	}
	if g.rng.flip(g.pHot) {
		return heapBase + (g.rng.Uint64()%hot)&^7
	}
	return heapBase + (g.rng.Uint64()%ws)&^7
}

// Emitted returns the number of instructions generated so far.
func (g *Generator) Emitted() uint64 { return g.emitted }
