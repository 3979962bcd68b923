package trace

import (
	"math"
	"strconv"
	"testing"
	"unsafe"

	"thermalherd/internal/core"
	"thermalherd/internal/isa"
)

func testProfile() Profile {
	p := baseProfile(GroupSPECint)
	p.Name = "test"
	p.Seed = 42
	return p
}

func TestGeneratorDeterministic(t *testing.T) {
	p := testProfile()
	a := Collect(NewGenerator(p), 5000)
	b := Collect(NewGenerator(p), 5000)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestGeneratorSeedsDiffer(t *testing.T) {
	p1 := testProfile()
	p2 := testProfile()
	p2.Seed = 43
	a := Collect(NewGenerator(p1), 1000)
	b := Collect(NewGenerator(p2), 1000)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical streams")
	}
}

func TestGeneratorInstructionMix(t *testing.T) {
	p := testProfile()
	insts := Collect(NewGenerator(p), 200000)
	counts := map[isa.Class]int{}
	for i := range insts {
		counts[insts[i].Class]++
	}
	n := float64(len(insts))
	check := func(name string, got float64, want, tol float64) {
		if math.Abs(got-want) > tol {
			t.Errorf("%s fraction = %.3f, want %.3f ± %.3f", name, got, want, tol)
		}
	}
	check("load", float64(counts[isa.ClassLoad])/n, p.FracLoad, 0.05)
	check("store", float64(counts[isa.ClassStore])/n, p.FracStore, 0.05)
	ctrl := float64(counts[isa.ClassBranch]+counts[isa.ClassJump]) / n
	check("control", ctrl, p.FracBranch+p.FracJump, 0.05)
}

func TestGeneratorPCsWithinCode(t *testing.T) {
	p := testProfile()
	insts := Collect(NewGenerator(p), 50000)
	limit := uint64(codeBase + 4*p.StaticInsts)
	for i := range insts {
		pc := insts[i].PC
		if pc < codeBase || pc >= limit {
			t.Fatalf("inst %d at pc %#x outside code segment", i, pc)
		}
		if pc%4 != 0 {
			t.Fatalf("misaligned pc %#x", pc)
		}
	}
}

func TestGeneratorControlFlowConsistency(t *testing.T) {
	p := testProfile()
	insts := Collect(NewGenerator(p), 50000)
	for i := 0; i < len(insts)-1; i++ {
		cur, next := &insts[i], &insts[i+1]
		// Far-region excursions synthesize PCs outside the code
		// segment mapping; skip those transitions.
		if next.PC >= farBase || cur.PC >= farBase {
			continue
		}
		if cur.IsCtrl() && cur.Taken {
			if cur.Target >= farBase {
				continue
			}
			if next.PC != cur.Target {
				t.Fatalf("inst %d taken to %#x but next pc is %#x", i, cur.Target, next.PC)
			}
		} else if next.PC != cur.PC+4 {
			t.Fatalf("inst %d (class %v, taken=%v) fell through to %#x, want %#x",
				i, cur.Class, cur.Taken, next.PC, cur.PC+4)
		}
	}
}

func TestGeneratorWidthBiasResponds(t *testing.T) {
	lowFrac := func(staticFrac float64) float64 {
		p := testProfile()
		p.LowWidthStaticFrac = staticFrac
		insts := Collect(NewGenerator(p), 100000)
		var results, low int
		for i := range insts {
			if insts[i].HasIntDest() && insts[i].Class != isa.ClassJump {
				results++
				if core.IsLowWidth(insts[i].Result) {
					low++
				}
			}
		}
		return float64(low) / float64(results)
	}
	hi := lowFrac(0.9)
	lo := lowFrac(0.2)
	if hi <= lo {
		t.Errorf("low-width fraction did not respond to bias: %.3f (0.9) vs %.3f (0.2)", hi, lo)
	}
	if hi < 0.75 {
		t.Errorf("at 0.9 static bias, dynamic low fraction = %.3f, want >= 0.75", hi)
	}
}

func TestGeneratorPointerLoadsClassifyAsPVAddr(t *testing.T) {
	p := testProfile()
	p.PtrLoadFrac = 0.5
	insts := Collect(NewGenerator(p), 100000)
	var stats core.PVStats
	for i := range insts {
		if insts[i].Class == isa.ClassLoad {
			stats.Observe(core.ClassifyPartialValue(insts[i].Result, insts[i].MemAddr))
		}
	}
	if frac := float64(stats.Counts[core.PVAddr]) / float64(stats.Total()); frac < 0.3 {
		t.Errorf("PVAddr fraction = %.3f, want >= 0.3 with PtrLoadFrac=0.5", frac)
	}
}

func TestGeneratorMemoryFootprintRespondsToWorkingSet(t *testing.T) {
	unique := func(wsBytes uint64) int {
		p := testProfile()
		p.WorkingSet = wsBytes
		p.HotFrac = 0 // pure uniform over the working set
		insts := Collect(NewGenerator(p), 50000)
		seen := map[uint64]bool{}
		for i := range insts {
			if insts[i].IsMem() && insts[i].MemAddr >= heapBase {
				seen[insts[i].MemAddr&^63] = true // cache-line granularity
			}
		}
		return len(seen)
	}
	small := unique(64 << 10)
	big := unique(32 << 20)
	if big <= small {
		t.Errorf("footprint did not grow with working set: %d vs %d lines", small, big)
	}
}

func TestGeneratorStackAccessesShareUpperBits(t *testing.T) {
	p := testProfile()
	p.StackFrac = 1.0
	insts := Collect(NewGenerator(p), 20000)
	memo := core.NewAddressMemo()
	for i := range insts {
		if insts[i].IsMem() {
			memo.Broadcast(insts[i].MemAddr, insts[i].Class == isa.ClassStore)
		}
	}
	if memo.Broadcasts() == 0 {
		t.Fatal("no memory operations")
	}
	if hr := memo.HitRate(); hr < 0.95 {
		t.Errorf("all-stack PAM hit rate = %.3f, want >= 0.95", hr)
	}
}

func TestGeneratorBranchBiasAffectsPredictability(t *testing.T) {
	mispredictRate := func(hardFrac float64) float64 {
		p := testProfile()
		p.HardBranchFrac = hardFrac
		insts := Collect(NewGenerator(p), 100000)
		// A simple last-taken predictor per PC approximates bimodal
		// behaviour for this check.
		lastTaken := map[uint64]bool{}
		var branches, miss int
		for i := range insts {
			if insts[i].Class != isa.ClassBranch {
				continue
			}
			branches++
			if pred, ok := lastTaken[insts[i].PC]; ok && pred != insts[i].Taken {
				miss++
			}
			lastTaken[insts[i].PC] = insts[i].Taken
		}
		return float64(miss) / float64(branches)
	}
	easy := mispredictRate(0.0)
	hardR := mispredictRate(0.5)
	if hardR <= easy {
		t.Errorf("mispredict rate did not grow with hard branches: %.3f vs %.3f", easy, hardR)
	}
}

func TestGeneratorFarJumpsProduceFarTargets(t *testing.T) {
	p := testProfile()
	p.FarTargetFrac = 1.0
	p.FracJump = 0.10
	insts := Collect(NewGenerator(p), 50000)
	var far int
	for i := range insts {
		if insts[i].Class == isa.ClassJump && core.TargetNeedsFullRead(insts[i].PC, insts[i].Target) {
			far++
		}
	}
	if far == 0 {
		t.Error("no far jump targets with FarTargetFrac=1")
	}
}

func TestProfileValidation(t *testing.T) {
	bad := testProfile()
	bad.FracLoad = 0.9 // pushes the mix over 1.0
	if err := bad.Validate(); err == nil {
		t.Error("overfull instruction mix not rejected")
	}
	bad = testProfile()
	bad.HotFrac = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range fraction not rejected")
	}
	bad = testProfile()
	bad.WorkingSet = 100
	if err := bad.Validate(); err == nil {
		t.Error("tiny working set not rejected")
	}
	bad = testProfile()
	bad.DepDistMean = 0.5
	if err := bad.Validate(); err == nil {
		t.Error("sub-1 dependency distance not rejected")
	}
	bad = testProfile()
	bad.StaticInsts = 4
	if err := bad.Validate(); err == nil {
		t.Error("tiny static program not rejected")
	}
	if strconv.IntSize == 64 {
		bad = testProfile()
		bad.StaticInsts = int(int64(math.MaxInt32) + 1) // beyond an int32 target index
		if err := bad.Validate(); err == nil {
			t.Error("static program too large for an int32 target not rejected")
		}
	}
}

// TestStaticInstPacked holds staticInst to the 40 bytes its comment
// promises: every simulation allocates StaticInsts of them.
func TestStaticInstPacked(t *testing.T) {
	if got := unsafe.Sizeof(staticInst{}); got != 40 {
		t.Errorf("staticInst is %d bytes, want 40", got)
	}
}

func TestSliceSource(t *testing.T) {
	src := NewSliceSource([]Inst{{PC: 4}, {PC: 8}})
	a, ok := src.Next()
	if !ok || a.PC != 4 {
		t.Fatalf("first = (%v, %v)", a.PC, ok)
	}
	b, _ := src.Next()
	if b.PC != 8 {
		t.Fatalf("second PC = %d", b.PC)
	}
	if _, ok := src.Next(); ok {
		t.Error("exhausted source returned ok")
	}
	src.Reset()
	if c, ok := src.Next(); !ok || c.PC != 4 {
		t.Error("Reset did not rewind")
	}
}

func TestCollectCaps(t *testing.T) {
	g := NewGenerator(testProfile())
	insts := Collect(g, 123)
	if len(insts) != 123 {
		t.Errorf("Collect returned %d, want 123", len(insts))
	}
	if g.Emitted() != 123 {
		t.Errorf("Emitted = %d, want 123", g.Emitted())
	}
}
