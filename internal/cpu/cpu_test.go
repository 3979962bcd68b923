package cpu

import (
	"math"
	"testing"

	"thermalherd/internal/asm"
	"thermalherd/internal/config"
	"thermalherd/internal/core"
	"thermalherd/internal/emu"
	"thermalherd/internal/floorplan"
	"thermalherd/internal/isa"
	"thermalherd/internal/trace"
)

// aluStream builds n independent low-width ALU instructions walking a
// small loop of PCs.
func aluStream(n int) []trace.Inst {
	insts := make([]trace.Inst, n)
	for i := range insts {
		insts[i] = trace.Inst{
			PC:     0x1000 + uint64(4*(i%64)),
			Op:     isa.OpAdd,
			Class:  isa.ClassALU,
			Dest:   int16(1 + (i % 8)),
			Src1:   trace.RegNone,
			Src2:   trace.RegNone,
			Result: uint64(i % 100),
		}
	}
	return insts
}

// chainStream builds a serial dependence chain: each instruction reads
// the previous result.
func chainStream(n int) []trace.Inst {
	insts := make([]trace.Inst, n)
	for i := range insts {
		insts[i] = trace.Inst{
			PC:     0x1000 + uint64(4*i),
			Op:     isa.OpAdd,
			Class:  isa.ClassALU,
			Dest:   1,
			Src1:   1,
			Src2:   trace.RegNone,
			Result: uint64(i % 50),
		}
	}
	return insts
}

func runStream(t *testing.T, cfg config.Machine, insts []trace.Inst) *Stats {
	t.Helper()
	c, err := New(cfg, trace.NewSliceSource(insts))
	if err != nil {
		t.Fatal(err)
	}
	return c.Run(uint64(len(insts)))
}

func TestIndependentALUStreamHighIPC(t *testing.T) {
	s := runStream(t, config.Baseline(), aluStream(20000))
	if s.Insts != 20000 {
		t.Fatalf("committed %d, want 20000", s.Insts)
	}
	if ipc := s.IPC(); ipc < 2.5 {
		t.Errorf("independent ALU IPC = %.2f, want >= 2.5 (commit-width bound 4)", ipc)
	}
	if ipc := s.IPC(); ipc > 4.0 {
		t.Errorf("IPC = %.2f exceeds commit width", ipc)
	}
}

func TestDependentChainIPCNearOne(t *testing.T) {
	s := runStream(t, config.Baseline(), chainStream(10000))
	ipc := s.IPC()
	if ipc < 0.7 || ipc > 1.2 {
		t.Errorf("serial chain IPC = %.2f, want ~1.0", ipc)
	}
}

func TestAllInstsCommitExactlyOnce(t *testing.T) {
	for _, n := range []int{1, 7, 100, 5000} {
		s := runStream(t, config.Baseline(), aluStream(n))
		if s.Insts != uint64(n) {
			t.Errorf("n=%d: committed %d", n, s.Insts)
		}
	}
}

func TestBranchMispredictionsHurtIPC(t *testing.T) {
	mkBranches := func(pattern func(i int) bool) []trace.Inst {
		insts := make([]trace.Inst, 20000)
		for i := range insts {
			if i%4 == 3 {
				taken := pattern(i)
				target := uint64(0x1000 + 4*((i+1)%256))
				insts[i] = trace.Inst{
					PC: 0x1000 + uint64(4*(i%256)), Op: isa.OpBne, Class: isa.ClassBranch,
					Dest: trace.RegNone, Src1: 1, Src2: trace.RegNone,
					Taken: taken, Target: target,
				}
			} else {
				insts[i] = trace.Inst{
					PC: 0x1000 + uint64(4*(i%256)), Op: isa.OpAdd, Class: isa.ClassALU,
					Dest: int16(1 + i%8), Src1: trace.RegNone, Src2: trace.RegNone,
					Result: 5,
				}
			}
		}
		return insts
	}
	// Note: these streams are synthetic; control-flow consistency with
	// PCs is not required by the model (it consumes resolved outcomes).
	predictable := runStream(t, config.Baseline(), mkBranches(func(i int) bool { return true }))
	rng := uint32(12345)
	random := runStream(t, config.Baseline(), mkBranches(func(i int) bool {
		rng = rng*1664525 + 1013904223
		return (rng>>13)&1 == 0
	}))
	if random.IPC() >= predictable.IPC() {
		t.Errorf("random branches IPC (%.2f) not below predictable (%.2f)",
			random.IPC(), predictable.IPC())
	}
	if random.BranchMispred == 0 {
		t.Error("random branch stream had no mispredictions")
	}
}

// memStream builds loads sweeping a working set.
func memStream(n int, ws uint64) []trace.Inst {
	insts := make([]trace.Inst, n)
	rng := uint64(99)
	for i := range insts {
		rng = rng*6364136223846793005 + 1442695040888963407
		if i%3 == 0 {
			insts[i] = trace.Inst{
				PC: 0x1000 + uint64(4*(i%256)), Op: isa.OpLd, Class: isa.ClassLoad,
				Dest: int16(1 + i%8), Src1: trace.RegNone, Src2: trace.RegNone,
				MemAddr: 0x2000_0000_0000 + (rng % ws &^ 7), MemSize: 8,
				Result: 7,
			}
		} else {
			insts[i] = trace.Inst{
				PC: 0x1000 + uint64(4*(i%256)), Op: isa.OpAdd, Class: isa.ClassALU,
				Dest: int16(1 + i%8), Src1: trace.RegNone, Src2: trace.RegNone,
				Result: uint64(i),
			}
		}
	}
	return insts
}

func TestMemoryBoundStreamsSlower(t *testing.T) {
	small := runStream(t, config.Baseline(), memStream(20000, 8<<10))
	big := runStream(t, config.Baseline(), memStream(20000, 64<<20))
	if big.IPC() >= small.IPC() {
		t.Errorf("64MB working set IPC (%.2f) not below 8KB (%.2f)", big.IPC(), small.IPC())
	}
	if big.DRAMAccesses == 0 {
		t.Error("big working set generated no DRAM accesses")
	}
	if small.L1DMissRate > 0.1 {
		t.Errorf("8KB working set L1D miss rate = %.3f, want small", small.L1DMissRate)
	}
}

func TestFastConfigLosesIPCOnlyWhenMemoryBound(t *testing.T) {
	// Fast raises the clock, which only shows up as more DRAM cycles.
	cpuBound := aluStream(20000)
	base := runStream(t, config.Baseline(), cpuBound)
	fast := runStream(t, config.Fast(), cpuBound)
	if diff := base.IPC() - fast.IPC(); diff > 0.01 {
		t.Errorf("Fast lost %.3f IPC on a CPU-bound stream, want ~0", diff)
	}
	memBound := memStream(20000, 64<<20)
	baseM := runStream(t, config.Baseline(), memBound)
	fastM := runStream(t, config.Fast(), memBound)
	if fastM.IPC() >= baseM.IPC() {
		t.Errorf("Fast IPC (%.3f) not below Base (%.3f) on memory-bound stream",
			fastM.IPC(), baseM.IPC())
	}
}

func TestTHConfigRunsAndTracksWidthEvents(t *testing.T) {
	// A stream mixing low- and full-width producers per PC.
	insts := make([]trace.Inst, 20000)
	for i := range insts {
		full := i%64 >= 48 // PCs 48..63 produce full-width values
		res := uint64(5)
		if full {
			res = 1 << 40
		}
		insts[i] = trace.Inst{
			PC: 0x1000 + uint64(4*(i%64)), Op: isa.OpAdd, Class: isa.ClassALU,
			Dest: int16(1 + i%8), Src1: int16(1 + (i+1)%8), Src2: trace.RegNone,
			Result: res,
		}
	}
	s := runStream(t, config.TH(), insts)
	if s.WidthPredictions == 0 {
		t.Fatal("TH config made no width predictions")
	}
	if s.WidthAccuracy < 0.9 {
		t.Errorf("width accuracy = %.3f on biased stream, want >= 0.9", s.WidthAccuracy)
	}
}

func TestTHWidthStallsOccurOnAdversarialStream(t *testing.T) {
	// Alternate low/full per PC so the two-bit counters keep
	// mispredicting unsafely.
	insts := make([]trace.Inst, 20000)
	for i := range insts {
		res := uint64(3)
		if (i/64)%2 == 1 {
			res = 1 << 40
		}
		insts[i] = trace.Inst{
			PC: 0x1000 + uint64(4*(i%64)), Op: isa.OpAdd, Class: isa.ClassALU,
			Dest: int16(1 + i%8), Src1: int16(1 + (i+1)%8), Src2: trace.RegNone,
			Result: res,
		}
	}
	s := runStream(t, config.TH(), insts)
	if s.RFGroupStalls == 0 && s.ALUInputStalls == 0 && s.ALUReexecutes == 0 {
		t.Error("adversarial width stream caused no width-misprediction penalties")
	}
	base := runStream(t, config.Baseline(), insts)
	if s.IPC() > base.IPC() {
		t.Errorf("TH IPC (%.3f) above Base (%.3f) on adversarial stream", s.IPC(), base.IPC())
	}
}

func TestPipeConfigImprovesMispredictHeavyStream(t *testing.T) {
	insts := make([]trace.Inst, 30000)
	rng := uint32(7)
	for i := range insts {
		if i%5 == 4 {
			rng = rng*1664525 + 1013904223
			insts[i] = trace.Inst{
				PC: 0x1000 + uint64(4*(i%1024)), Op: isa.OpBne, Class: isa.ClassBranch,
				Dest: trace.RegNone, Src1: 1, Src2: trace.RegNone,
				Taken: (rng>>13)&1 == 0, Target: 0x1000 + uint64(4*((i+1)%1024)),
			}
		} else {
			insts[i] = trace.Inst{
				PC: 0x1000 + uint64(4*(i%1024)), Op: isa.OpAdd, Class: isa.ClassALU,
				Dest: int16(1 + i%8), Src1: trace.RegNone, Src2: trace.RegNone, Result: 2,
			}
		}
	}
	base := runStream(t, config.Baseline(), insts)
	pipe := runStream(t, config.Pipe(), insts)
	if pipe.IPC() <= base.IPC() {
		t.Errorf("Pipe IPC (%.3f) not above Base (%.3f) on mispredict-heavy stream",
			pipe.IPC(), base.IPC())
	}
}

func TestThreeDActivityIsHerded(t *testing.T) {
	p, err := trace.ProfileByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	run := func(cfg config.Machine) *Stats {
		c, err := New(cfg, trace.NewGenerator(p))
		if err != nil {
			t.Fatal(err)
		}
		return c.Run(60000)
	}
	th := run(config.ThreeD())
	noTH := run(config.ThreeDNoTH())

	// Herding must concentrate integer-execution activity on the top die.
	thShare := th.BlockDie[floorplan.BlkIntExec].TopDieShare()
	noTHShare := noTH.BlockDie[floorplan.BlkIntExec].TopDieShare()
	if thShare <= noTHShare {
		t.Errorf("TH int-exec top-die share (%.3f) not above no-TH (%.3f)", thShare, noTHShare)
	}
	if noTHShare > 0.26 {
		t.Errorf("no-TH top-die share = %.3f, want ~0.25 (uniform)", noTHShare)
	}
	// The scheduler allocator must herd.
	if th.RSTopDieShare < 0.5 {
		t.Errorf("RS top-die allocation share = %.3f, want >= 0.5", th.RSTopDieShare)
	}
	// ROB: the paper reports many more low-width than full-width reads.
	if th.RegLowReads <= th.RegFullReads {
		t.Errorf("low-width reg reads (%d) not above full-width (%d)",
			th.RegLowReads, th.RegFullReads)
	}
}

func TestWidthAccuracyOnSuiteWorkload(t *testing.T) {
	// The paper reports 97% width prediction accuracy overall.
	p, err := trace.ProfileByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(config.TH(), trace.NewGenerator(p))
	if err != nil {
		t.Fatal(err)
	}
	c.Warmup(100000)
	s := c.Run(100000)
	if s.WidthAccuracy < 0.9 {
		t.Errorf("width accuracy on gzip = %.3f, want >= 0.9", s.WidthAccuracy)
	}
}

func TestRunsOnEmulatorSource(t *testing.T) {
	prog := asm.MustAssemble(`
		addi r1, r0, 200
		addi r2, r0, 0
	loop:
		add  r2, r2, r1
		addi r1, r1, -1
		bne  r1, r0, loop
		halt
	`)
	m := emu.New(prog)
	c, err := New(config.ThreeD(), emu.NewSource(m, 0))
	if err != nil {
		t.Fatal(err)
	}
	s := c.Run(10000)
	if s.Insts == 0 {
		t.Fatal("no instructions committed from emulator source")
	}
	if s.IPC() <= 0 {
		t.Error("non-positive IPC")
	}
	// Short loop, highly predictable: good branch accuracy expected.
	if s.DirAccuracy < 0.9 {
		t.Errorf("direction accuracy on counted loop = %.3f, want >= 0.9", s.DirAccuracy)
	}
}

func TestSourceExhaustionTerminates(t *testing.T) {
	s := runStream(t, config.Baseline(), aluStream(10))
	if s.Insts != 10 {
		t.Errorf("committed %d, want 10 (source exhaustion)", s.Insts)
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	cfg := config.Baseline()
	cfg.RSSize = 30 // not divisible by 4 dies
	if _, err := New(cfg, trace.NewSliceSource(nil)); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestStoreCommitPath(t *testing.T) {
	insts := make([]trace.Inst, 1000)
	for i := range insts {
		insts[i] = trace.Inst{
			PC: 0x1000 + uint64(4*(i%32)), Op: isa.OpSt, Class: isa.ClassStore,
			Dest: trace.RegNone, Src1: 1, Src2: 2,
			MemAddr: 0x7fff_0000_0000 + uint64(8*(i%16)), MemSize: 8,
			StoreVal: uint64(i),
		}
	}
	s := runStream(t, config.TH(), insts)
	if s.StoreCount != 1000 {
		t.Errorf("stores committed = %d, want 1000", s.StoreCount)
	}
	if s.PAMHitRate < 0.9 {
		t.Errorf("PAM hit rate on same-region stores = %.3f, want >= 0.9", s.PAMHitRate)
	}
}

func TestBlockActivityRecorded(t *testing.T) {
	s := runStream(t, config.ThreeD(), memStream(5000, 64<<10))
	for _, b := range []floorplan.BlockID{
		floorplan.BlkICache, floorplan.BlkDecode, floorplan.BlkROB,
		floorplan.BlkRS, floorplan.BlkIntExec, floorplan.BlkDCache,
		floorplan.BlkLSQ, floorplan.BlkDTLB,
	} {
		if s.BlockAccesses[b] == 0 {
			t.Errorf("block %v recorded no accesses", b)
		}
	}
}

func TestOccupancyStatsBounded(t *testing.T) {
	s := runStream(t, config.Baseline(), chainStream(5000))
	if s.MeanROBOcc <= 0 || s.MeanROBOcc > 96 {
		t.Errorf("mean ROB occupancy = %.1f out of range", s.MeanROBOcc)
	}
	if s.MeanRSOcc < 0 || s.MeanRSOcc > 32 {
		t.Errorf("mean RS occupancy = %.1f out of range", s.MeanRSOcc)
	}
}

func TestOracleWidthPolicyNoUnsafeStalls(t *testing.T) {
	cfg := config.TH()
	cfg.WidthPolicy = core.PolicyOracle
	insts := make([]trace.Inst, 10000)
	for i := range insts {
		res := uint64(3)
		if i%3 == 0 {
			res = 1 << 30
		}
		insts[i] = trace.Inst{
			PC: 0x1000 + uint64(4*(i%64)), Op: isa.OpAdd, Class: isa.ClassALU,
			Dest: int16(1 + i%8), Src1: int16(1 + (i+1)%8), Src2: trace.RegNone,
			Result: res,
		}
	}
	c, err := New(cfg, trace.NewSliceSource(insts))
	if err != nil {
		t.Fatal(err)
	}
	s := c.Run(uint64(len(insts)))
	if s.ALUReexecutes != 0 {
		t.Errorf("oracle policy caused %d re-executions, want 0", s.ALUReexecutes)
	}
}

// TestRunAllocatesNothingWarm checks that the cycle loop is
// allocation-free in steady state. The caches allocate a set on its
// first miss, so the working set is shrunk to fit the L1: once warm, no
// access reaches a set that has never been touched.
func TestRunAllocatesNothingWarm(t *testing.T) {
	prof, err := trace.ProfileByName("bitcount")
	if err != nil {
		t.Fatal(err)
	}
	prof.WorkingSet = 16 << 10
	for _, cfg := range config.Registry() {
		c, err := New(cfg, trace.NewGenerator(prof))
		if err != nil {
			t.Fatal(err)
		}
		c.FastForward(100_000)
		c.Warmup(10_000)
		if allocs := testing.AllocsPerRun(5, func() { c.Run(2_000) }); allocs != 0 {
			t.Errorf("%s: Run allocated %.1f times per 2000 instructions, want 0", cfg.Name, allocs)
		}
	}
}

// TestAllocatorSamplesEveryCycle checks that the allocator's per-die
// occupancy samples cover every simulated cycle, skipped idle cycles
// included: their per-die means must add up to the core's mean RS
// occupancy.
func TestAllocatorSamplesEveryCycle(t *testing.T) {
	prof, err := trace.ProfileByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(config.ThreeD(), trace.NewGenerator(prof))
	if err != nil {
		t.Fatal(err)
	}
	c.FastForward(20_000)
	c.Warmup(5_000)
	s := c.Run(20_000)
	var sum float64
	for d := 0; d < core.NumDies; d++ {
		sum += c.rsAlloc.MeanOccupancy(d)
	}
	if s.MeanRSOcc == 0 || math.Abs(sum-s.MeanRSOcc) > 1e-9*s.MeanRSOcc {
		t.Errorf("allocator per-die occupancy sums to %.12g, core mean RS occupancy %.12g", sum, s.MeanRSOcc)
	}
}
