// Package cpu is a trace-driven, cycle-level timing model of the Table 1
// out-of-order superscalar processor, standing in for the paper's
// SimpleScalar/MASE infrastructure. It models fetch (branch prediction,
// BTB, I-cache/ITLB), in-order dispatch into a ROB and reservation
// stations, out-of-order issue constrained by functional units and memory
// ports, the cache hierarchy, and in-order commit.
//
// When the configuration enables Thermal Herding, the model adds the
// paper's Section 3 mechanisms and their costs: width prediction with
// register-file group stalls, ALU input-width stalls and output-width
// re-execution, data-cache partial-value stalls, BTB full-target-read
// bubbles, the herded scheduler allocator, and partial address
// memoization — while accounting switching activity per die for the
// power and thermal models.
//
// Inside its cycle loop the model is event-driven. Dispatched
// instructions wait in an age-ordered wait list (the reservation-station
// contents, at most RSSize entries), and issue examines only that list,
// oldest first. Issued instructions sit in a min-heap keyed by the cycle
// their result arrives, from which writeback pops exactly those finishing
// this cycle. When no stage can act — typically while a cache miss is
// outstanding — the loop jumps straight to the next cycle in which one
// can, charging the skipped cycles to the occupancy statistics. None of
// this changes a result: every Stats field is bit-identical to stepping
// each cycle and scanning the whole ROB, which TestStatsDigestsPinned
// checks against digests taken from that original model.
package cpu

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"thermalherd/internal/cache"
	"thermalherd/internal/config"
	"thermalherd/internal/core"
	"thermalherd/internal/floorplan"
	"thermalherd/internal/isa"
	"thermalherd/internal/predictor"
	"thermalherd/internal/trace"
)

const numArchRegs = 64 // 32 int + 32 fp in the shared rename space

type fetchSlot struct {
	inst         trace.Inst
	predictedLow bool
	hasWidthPred bool
	opAnyFull    bool // an integer operand was full-width (program order)
	srcFull      [2]bool
	resultLow    bool
	mispredicted bool // branch direction/target misprediction
}

// robEntry is one in-flight instruction. Until it issues it is listed in
// Core.waiting; until its result arrives, in Core.inflight.
type robEntry struct {
	fetchSlot
	rs     core.Entry
	done   bool // result written back; the entry may commit
	fpLoad bool
}

// inflightEntry is one issued instruction in the completion heap.
type inflightEntry struct {
	complete uint64 // cycle the result is available
	rob      int
}

// Core is one simulated processor core.
type Core struct {
	cfg config.Machine
	src trace.Source
	// shape is what cfg sized the storage to; released is set between
	// Release and the New that reuses the core.
	shape    shape
	released bool

	bpred *predictor.Hybrid
	btb   *predictor.BTB
	ibtb  *predictor.IndirectBTB
	ras   *predictor.RAS
	il1   *cache.Cache
	itlb  *cache.TLB
	dtlb  *cache.TLB
	dmem  *cache.Hierarchy

	wpred   *core.WidthPredictor
	rsAlloc *core.HerdingAllocator
	pam     *core.AddressMemo

	rob      []robEntry
	robHead  int
	robTail  int
	robCount int
	// waiting holds the ROB indices of the dispatched, not yet issued
	// instructions, oldest first; its length is the reservation-station
	// occupancy.
	waiting []int
	// inflight is a min-heap on complete of the issued instructions
	// whose results have not arrived.
	inflight []inflightEntry

	// ifq is the fetch queue: a ring of IFQSize slots holding ifqLen
	// instructions from ifqHead on.
	ifq     []fetchSlot
	ifqHead int
	ifqLen  int

	regReady [numArchRegs]uint64
	// regIsLow tracks, in program order at fetch time, whether each
	// architectural register's latest value is low-width — the state
	// the width memoization bits of the renamed physical registers
	// would expose to each instruction's register read.
	regIsLow [numArchRegs]bool

	lqUsed, sqUsed int
	// sq holds the 8-byte-aligned addresses of the in-flight stores
	// (dispatched, not yet committed) for store-to-load forwarding: a
	// ring of SQSize slots holding sqUsed addresses, oldest at sqHead.
	sq     []uint64
	sqHead int

	cycle            uint64
	fetchResumeAt    uint64
	dispatchBlockedU uint64
	redirectPending  bool // a mispredicted branch is in flight; fetch stalled
	srcDone          bool

	// Non-pipelined units.
	mulDivFree uint64
	fpDivFree  uint64

	stats         Stats
	statCycleBase uint64
}

// Stats aggregates everything the experiments need from one run.
type Stats struct {
	Cycles uint64
	Insts  uint64

	// Front end.
	BranchCount   uint64
	BranchMispred uint64
	BTBFullStalls uint64
	ICacheMisses  uint64
	DirAccuracy   float64
	BTBHitRate    float64

	// Thermal Herding events.
	WidthPredictions uint64
	WidthAccuracy    float64
	WidthUnsafeRate  float64
	RFGroupStalls    uint64
	ALUInputStalls   uint64
	ALUReexecutes    uint64
	DCacheUnsafe     uint64
	PAMHitRate       float64
	PV               core.PVStats
	RSTopDieShare    float64
	MeanBroadcastDie float64

	// Memory system.
	L1DMissRate  float64
	L2MissRate   float64
	DRAMAccesses uint64
	LoadCount    uint64
	StoreCount   uint64
	// ForwardedLoads counts loads satisfied by store-to-load forwarding
	// from an in-flight older store in the store queue.
	ForwardedLoads uint64

	// Register (ROB/physical register) width behaviour (Section 5.3).
	RegLowReads   uint64
	RegFullReads  uint64
	RegLowWrites  uint64
	RegFullWrites uint64

	// WidthWords[w] counts integer results needing w 16-bit words
	// (w in 1..4) — the paper's Section 3 premise that most 64-bit
	// integer values need 16 or fewer bits.
	WidthWords [5]uint64

	// Per-block activity for the power model: access counts and, for 3D
	// configurations, the per-die word activity of each block.
	BlockAccesses [floorplan.NumBlocks]uint64
	BlockDie      [floorplan.NumBlocks]core.DieActivity

	// Occupancy (averaged over cycles).
	MeanROBOcc float64
	MeanRSOcc  float64
}

// IPC returns committed instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Insts) / float64(s.Cycles)
}

// IPns returns instructions per nanosecond at the given clock.
func (s *Stats) IPns(clockGHz float64) float64 { return s.IPC() * clockGHz }

// New builds a core for cfg consuming instructions from src. It reuses
// the storage of a core handed back with Release when one of the same
// shape is free, and allocates otherwise; either way the core starts in
// the same state.
func New(cfg config.Machine, src trace.Source) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := freeCores.take(shapeOf(cfg))
	if c == nil {
		c = alloc(cfg)
	}
	c.reset(cfg, src)
	return c, nil
}

// alloc allocates the storage of a core shaped for cfg. reset, not
// alloc, gives it its state.
func alloc(cfg config.Machine) *Core {
	l1d := cache.New(cache.Config{Name: "l1d", Size: cfg.L1Size, Ways: cfg.L1Ways, LineSize: cfg.LineSize})
	l2 := cache.New(cache.Config{Name: "l2", Size: cfg.L2Size, Ways: cfg.L2Ways, LineSize: cfg.LineSize})
	return &Core{
		shape:    shapeOf(cfg),
		bpred:    predictor.NewHybrid(),
		btb:      predictor.NewBTB(cfg.BTBEntries, cfg.BTBWays),
		ibtb:     predictor.NewIndirectBTB(cfg.IBTBEntries, cfg.IBTBWays),
		ras:      predictor.NewRAS(cfg.RASDepth),
		il1:      cache.New(cache.Config{Name: "l1i", Size: cfg.L1Size, Ways: cfg.L1Ways, LineSize: cfg.LineSize}),
		itlb:     cache.NewTLB("itlb", cfg.ITLBEntries, cfg.TLBWays),
		dtlb:     cache.NewTLB("dtlb", cfg.DTLBEntries, cfg.TLBWays),
		dmem:     cache.NewHierarchy(l1d, l2, cfg.L1Latency, cfg.L2Latency, cfg.DRAMCycles()),
		wpred:    core.NewWidthPredictor(cfg.WidthPredEntries),
		rsAlloc:  core.NewHerdingAllocator(cfg.RSSize, cfg.AllocPolicy),
		pam:      core.NewAddressMemo(),
		rob:      make([]robEntry, cfg.ROBSize),
		waiting:  make([]int, 0, cfg.RSSize),
		inflight: make([]inflightEntry, 0, cfg.ROBSize),
		ifq:      make([]fetchSlot, cfg.IFQSize),
		sq:       make([]uint64, cfg.SQSize),
	}
}

// reset puts the core, whatever it last ran, into the state in which a
// simulation of cfg over src starts: every structure empty or untrained,
// every counter zero. cfg must have the core's shape.
func (c *Core) reset(cfg config.Machine, src trace.Source) {
	*c = Core{
		cfg: cfg, src: src, shape: c.shape,
		bpred: c.bpred, btb: c.btb, ibtb: c.ibtb, ras: c.ras,
		il1: c.il1, itlb: c.itlb, dtlb: c.dtlb, dmem: c.dmem,
		wpred: c.wpred, rsAlloc: c.rsAlloc, pam: c.pam,
		rob: c.rob, waiting: c.waiting[:0], inflight: c.inflight[:0],
		ifq: c.ifq, sq: c.sq,
	}
	c.bpred.Reset()
	c.btb.Reset()
	c.ibtb.Reset()
	c.ras.Reset()
	c.il1.Reset()
	c.itlb.Reset()
	c.dtlb.Reset()
	c.dmem.Reset(cfg.L1Latency, cfg.L2Latency, cfg.DRAMCycles())
	c.wpred.Reset()
	c.rsAlloc.Reset(cfg.AllocPolicy)
	c.pam.Reset()
	clear(c.rob)
	clear(c.ifq)
	clear(c.sq)
	for i := range c.regIsLow {
		c.regIsLow[i] = true
	}
}

// Release hands the core's storage back for a later New to reuse. The
// core must not be used afterwards, and neither may a *Stats its Run
// returned: copy the statistics first. Release drops the core's
// reference to its source, which the caller may then release too.
func (c *Core) Release() {
	if c.released {
		panic("cpu: Release of a released core")
	}
	c.src = nil
	c.released = true
	freeCores.put(c)
}

// shape holds the Machine fields that size a core's storage. A core can
// run any machine of its own shape once reset.
type shape struct {
	l1Size, l1Ways, l2Size, l2Ways, lineSize int
	itlbEntries, dtlbEntries, tlbWays        int
	btbEntries, btbWays                      int
	ibtbEntries, ibtbWays, rasDepth          int
	widthPredEntries                         int
	robSize, rsSize, ifqSize, sqSize         int
}

func shapeOf(m config.Machine) shape {
	return shape{
		m.L1Size, m.L1Ways, m.L2Size, m.L2Ways, m.LineSize,
		m.ITLBEntries, m.DTLBEntries, m.TLBWays,
		m.BTBEntries, m.BTBWays,
		m.IBTBEntries, m.IBTBWays, m.RASDepth,
		m.WidthPredEntries,
		m.ROBSize, m.RSSize, m.IFQSize, m.SQSize,
	}
}

// freeCores holds released cores until New reuses them: at most
// GOMAXPROCS, one for each simulation that can run at a time.
var freeCores freeList

type freeList struct {
	mu    sync.Mutex
	cores []*Core // oldest first
}

// take removes and returns the most recently released core of shape s,
// or nil if none is free.
func (l *freeList) take(s shape) *Core {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := len(l.cores) - 1; i >= 0; i-- {
		if c := l.cores[i]; c.shape == s {
			l.cores = slices.Delete(l.cores, i, i+1)
			return c
		}
	}
	return nil
}

// put adds c, dropping the oldest core when the list is full.
func (l *freeList) put(c *Core) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.cores) + 1 - runtime.GOMAXPROCS(0); n > 0 {
		l.cores = slices.Delete(l.cores, 0, min(n, len(l.cores)))
	}
	l.cores = append(l.cores, c)
}

// Run simulates until maxInsts further instructions commit or the
// source is exhausted, and returns the statistics. Call Warmup first to
// exclude cold-start effects from the measurement. The result aliases
// the core: later calls update it, holding it keeps the whole core
// alive, and Release ends it (a later New may reuse the core and
// overwrite it), so copy it (st := *c.Run(n)) to keep it past the core.
func (c *Core) Run(maxInsts uint64) *Stats {
	occROB, occRS := c.runLoop(c.stats.Insts + maxInsts)
	c.finalizeStats(occROB, occRS)
	return &c.stats
}

// Warmup runs n instructions through the full cycle-level model to warm
// the caches, branch predictors, width predictor, and memoization state,
// then discards all statistics so that measurement starts from a hot
// microarchitectural state — the role SimPoint warmup plays in the
// paper's methodology.
func (c *Core) Warmup(n uint64) {
	c.runLoop(c.stats.Insts + n)
	c.ResetStats()
}

// FastForward functionally warms the microarchitectural state — caches,
// TLBs, branch predictors, BTB, width predictor, PAM — by streaming n
// instructions without cycle-level timing, the counterpart of
// SimpleScalar's fast-forward mode. Statistics are discarded afterwards.
// Follow with a short Warmup to also settle pipeline-occupancy state
// before measuring.
func (c *Core) FastForward(n uint64) {
	for i := uint64(0); i < n && !c.srcDone; i++ {
		in, ok := c.src.Next()
		if !ok {
			c.srcDone = true
			break
		}
		c.il1.Access(in.PC, false)
		c.itlb.Access(in.PC)
		if in.IsCtrl() {
			c.predictControl(&in)
		}
		if in.HasIntDest() && in.Class != isa.ClassJump {
			low := core.IsLowWidth(in.Result)
			if in.Class != isa.ClassLoad {
				low = low && !c.operandFull(in.Src1) && !c.operandFull(in.Src2)
			}
			pred := c.wpred.Predict(in.PC)
			if c.cfg.WidthPolicy == core.PolicyTwoBit {
				c.wpred.Resolve(in.PC, pred, low)
			}
		}
		if in.Dest != trace.RegNone {
			c.regIsLow[in.Dest] = in.Dest < trace.FPBase && core.IsLowWidth(in.Result)
		}
		switch in.Class {
		case isa.ClassLoad:
			c.dtlb.Access(in.MemAddr)
			c.dmem.Access(in.MemAddr, false)
			c.pam.Broadcast(in.MemAddr, false)
		case isa.ClassStore:
			c.dtlb.Access(in.MemAddr)
			c.dmem.Access(in.MemAddr, true)
			c.pam.Broadcast(in.MemAddr, true)
		}
	}
	c.ResetStats()
}

// ResetStats zeroes all statistics (including component counters) while
// preserving every piece of learned microarchitectural state.
func (c *Core) ResetStats() {
	c.stats = Stats{}
	c.statCycleBase = c.cycle
	c.bpred.ResetStats()
	c.btb.ResetStats()
	c.ibtb.ResetStats()
	c.il1.ResetStats()
	c.itlb.ResetStats()
	c.dtlb.ResetStats()
	c.dmem.ResetStats()
	c.wpred.ResetStats()
	c.rsAlloc.ResetStats()
	c.pam.ResetStats()
}

func (c *Core) runLoop(targetInsts uint64) (occROB, occRS uint64) {
	startCycle := c.cycle
	for c.stats.Insts < targetInsts {
		// Jump over the cycles in which no stage can act. Nothing
		// changes during them, so each adds the same occupancy sample.
		next, ok := c.nextEvent()
		if !ok && !c.drained() {
			c.wedged()
		}
		if k := next - c.cycle; ok && k > 0 {
			occROB += k * uint64(c.robCount)
			occRS += k * uint64(len(c.waiting))
			c.rsAlloc.ObserveOccupancyN(k)
			c.cycle = next
		}

		c.commit()
		c.issue()
		c.dispatch()
		c.fetch()
		occROB += uint64(c.robCount)
		occRS += uint64(len(c.waiting))
		c.rsAlloc.ObserveOccupancy()
		c.cycle++
		if c.drained() {
			break
		}
		// Safety valve: a stuck pipeline is a bug, not a result.
		if c.cycle-startCycle > 1000*targetInsts+1_000_000 {
			c.wedged()
		}
	}
	return occROB, occRS
}

// drained reports whether the source is exhausted and every fetched
// instruction has committed.
func (c *Core) drained() bool { return c.srcDone && c.robCount == 0 && c.ifqLen == 0 }

func (c *Core) wedged() {
	panic(fmt.Sprintf("cpu: pipeline wedged at cycle %d with %d insts committed",
		c.cycle, c.stats.Insts))
}

// nextEvent returns the first cycle, from the current one on, in which
// some stage can change state; ok is false if none ever can. Every
// time-dependent condition of commit, issue, writeback, dispatch and
// fetch compares the cycle with one of the times below, and only those
// stages move the times, so every stage idles in each earlier cycle.
func (c *Core) nextEvent() (next uint64, ok bool) {
	now := c.cycle
	if c.robCount > 0 && c.rob[c.robHead].done {
		return now, true // commit
	}
	next = math.MaxUint64
	if !c.redirectPending && !c.srcDone && c.ifqLen < c.cfg.IFQSize {
		next = c.fetchResumeAt
	}
	if c.ifqLen > 0 && c.ifqHeadFits() {
		next = min(next, c.dispatchBlockedU)
	}
	if len(c.inflight) > 0 {
		next = min(next, c.inflight[0].complete) // writeback
	}
	for i := 0; i < len(c.waiting) && next > now; i++ {
		in := &c.rob[c.waiting[i]].inst
		t := c.operandsReadyAt(in)
		switch in.Class {
		case isa.ClassMulDiv:
			t = max(t, c.mulDivFree)
		case isa.ClassFPDiv:
			t = max(t, c.fpDivFree)
		}
		next = min(next, t)
	}
	return max(next, now), next != math.MaxUint64
}

func (c *Core) finalizeStats(occROB, occRS uint64) {
	s := &c.stats
	s.Cycles = c.cycle - c.statCycleBase
	if s.Cycles > 0 {
		s.MeanROBOcc = float64(occROB) / float64(s.Cycles)
		s.MeanRSOcc = float64(occRS) / float64(s.Cycles)
	}
	s.DirAccuracy = c.bpred.Accuracy()
	s.BTBHitRate = c.btb.HitRate()
	s.WidthPredictions, _, _, _ = c.wpred.Stats()
	s.WidthAccuracy = c.wpred.Accuracy()
	s.WidthUnsafeRate = c.wpred.UnsafeRate()
	s.PAMHitRate = c.pam.HitRate()
	s.L1DMissRate = c.dmem.L1.MissRate()
	s.L2MissRate = c.dmem.L2.MissRate()
	s.DRAMAccesses = c.dmem.Served(cache.LevelMem)
	s.RSTopDieShare = c.rsAlloc.TopDieAllocShare()
	s.MeanBroadcastDie = c.rsAlloc.MeanBroadcastDies()
	// Merge allocator broadcast activity into the RS block activity.
	s.BlockDie[floorplan.BlkRS].Add(c.rsAlloc.Activity())
}

// threeDPartitioned reports whether the configuration's structures are
// physically partitioned across four die.
func (c *Core) threeDPartitioned() bool { return c.cfg.ThreeD }

// herding reports whether Thermal Herding gating is active.
func (c *Core) herding() bool { return c.cfg.ThermalHerding }

// recordActivity charges one access to a block. dies is the number of
// die activated counting from the top (ignored for planar
// configurations, which record everything on die 0).
func (c *Core) recordActivity(b floorplan.BlockID, dies int) {
	c.stats.BlockAccesses[b]++
	if c.threeDPartitioned() {
		c.stats.BlockDie[b].RecordAccess(dies)
	} else {
		c.stats.BlockDie[b].RecordAccess(1)
	}
}

// predictWidth applies the configured width-prediction policy.
func (c *Core) predictWidth(pc uint64, actualLow bool) bool {
	switch c.cfg.WidthPolicy {
	case core.PolicyOracle:
		return actualLow
	case core.PolicyAlwaysLow:
		return true
	case core.PolicyAlwaysFull:
		return false
	default:
		return c.wpred.Predict(pc)
	}
}

// ---------------------------------------------------------------------
// Fetch
// ---------------------------------------------------------------------

func (c *Core) fetch() {
	if c.redirectPending || c.cycle < c.fetchResumeAt || c.srcDone {
		return
	}
	for fetched := 0; fetched < c.cfg.FetchWidth && c.ifqLen < c.cfg.IFQSize; fetched++ {
		next, ok := c.src.Next()
		if !ok {
			c.srcDone = true
			return
		}
		slot := &c.ifq[(c.ifqHead+c.ifqLen)%c.cfg.IFQSize]
		*slot = fetchSlot{inst: next}
		c.ifqLen++
		in := &slot.inst

		// I-cache and ITLB.
		c.recordActivity(floorplan.BlkICache, core.NumDies)
		if !c.itlb.Access(in.PC) {
			c.fetchResumeAt = c.cycle + uint64(c.cfg.TLBMissPenalty)
		}
		c.recordActivity(floorplan.BlkITLB, core.NumDies)
		if hit, _ := c.il1.Access(in.PC, false); !hit {
			c.stats.ICacheMisses++
			// Fetch stalls for the L2 round trip.
			c.fetchResumeAt = c.cycle + uint64(c.cfg.L2Latency)
		}
		c.recordActivity(floorplan.BlkIFQ, core.NumDies)
		// Decode dependence-check herding (Section 3.7, Figure 6(b)):
		// within a fetch group, instruction i must compare against the
		// i earlier instructions' destinations; the instruction with
		// the most comparators is placed on the top die. The resulting
		// activity gradient leans toward the heat sink.
		if c.herding() {
			c.recordActivity(floorplan.BlkDecode, c.cfg.FetchWidth-fetched)
		} else {
			c.recordActivity(floorplan.BlkDecode, core.NumDies)
		}

		// Operand widths are resolved in program order: this is exactly
		// the state the width memoization bits of the renamed physical
		// registers expose.
		slot.srcFull[0] = c.operandFull(in.Src1)
		slot.srcFull[1] = c.operandFull(in.Src2)
		slot.opAnyFull = slot.srcFull[0] || slot.srcFull[1]
		slot.resultLow = in.Dest != trace.RegNone && in.Dest < trace.FPBase &&
			core.IsLowWidth(in.Result)
		if in.HasIntDest() {
			c.stats.WidthWords[core.Width(in.Result)]++
		}

		// Width prediction happens in the front end so gating control
		// reaches the register file ahead of the access.
		if actualLow, relevant := c.actualWidthClass(slot); relevant {
			slot.hasWidthPred = true
			slot.predictedLow = c.predictWidth(in.PC, actualLow)
			if c.cfg.WidthPolicy == core.PolicyTwoBit {
				c.wpred.Resolve(in.PC, slot.predictedLow, actualLow)
			}
		}

		// Advance the program-order width state past this instruction.
		if in.Dest != trace.RegNone {
			c.regIsLow[in.Dest] = slot.resultLow
		}

		// Control flow.
		if in.IsCtrl() {
			mispred, extraBubble := c.predictControl(in)
			slot.mispredicted = mispred
			if mispred {
				// Fetch stops until the branch resolves.
				c.redirectPending = true
				return
			}
			if in.Taken {
				// Correctly predicted taken: fetch discontinuity ends
				// the fetch group; a full-target BTB read adds a
				// bubble cycle.
				c.fetchResumeAt = c.cycle + 1 + extraBubble
				return
			}
		}
	}
}

// predictControl runs the branch predictors for a control instruction,
// trains them, and reports whether the front end mispredicted, plus any
// extra fetch-bubble cycles (BTB full-target reads under 3D herding).
func (c *Core) predictControl(in *trace.Inst) (mispred bool, extraBubble uint64) {
	c.recordActivity(floorplan.BlkBPred, core.NumDies)
	c.stats.BranchCount++

	if in.Class == isa.ClassJump {
		// Jumps are always taken; the question is the target. Returns
		// come from the RAS; other indirect jumps from the iBTB; direct
		// jumps from the BTB.
		btbRes := c.btb.Lookup(in.PC)
		c.recordBTBActivity(btbRes)
		var predTarget uint64
		havePred := false
		if in.Op == isa.OpJalr {
			if t, ok := c.ras.Pop(); ok {
				predTarget, havePred = t, true
			} else {
				iTarget, iOK := c.ibtb.Predict(in.PC)
				c.ibtb.Update(in.PC, in.Target, iTarget, iOK)
				if iOK {
					predTarget, havePred = iTarget, true
				}
			}
		}
		if !havePred && btbRes.Hit {
			predTarget, havePred = btbRes.Target, true
		}
		if in.Op == isa.OpJal {
			c.ras.Push(in.PC + 4)
		}
		c.btb.Update(in.PC, in.Target)
		if !havePred || predTarget != in.Target {
			c.stats.BranchMispred++
			return true, 0
		}
		if c.herding() && btbRes.Hit && btbRes.NeedsFullRead {
			c.stats.BTBFullStalls++
			extraBubble = 1
		}
		return false, extraBubble
	}

	// Conditional branch.
	predTaken := c.bpred.Predict(in.PC)
	btbRes := c.btb.Lookup(in.PC)
	c.recordBTBActivity(btbRes)
	c.bpred.Update(in.PC, in.Taken, predTaken)
	if in.Taken {
		c.btb.Update(in.PC, in.Target)
	}
	if predTaken != in.Taken {
		c.stats.BranchMispred++
		return true, 0
	}
	if in.Taken {
		if !btbRes.Hit || btbRes.Target != in.Target {
			// Right direction, wrong/unknown target.
			c.stats.BranchMispred++
			return true, 0
		}
		if c.herding() && btbRes.NeedsFullRead {
			c.stats.BTBFullStalls++
			extraBubble = 1
		}
	}
	return false, extraBubble
}

func (c *Core) recordBTBActivity(r predictor.LookupResult) {
	dies := 1
	if !c.herding() || (r.Hit && r.NeedsFullRead) {
		dies = core.NumDies
	}
	c.recordActivity(floorplan.BlkBTB, dies)
}

// actualWidthClass returns whether the instruction is a low-width
// instruction — the paper predicts whether an instruction "uses"
// low-width values, covering both operands and result — and whether
// width prediction applies to it at all. Loads are classified by their
// loaded value alone (their address registers are handled by PAM, not by
// width prediction); ALU-class instructions are low only if their result
// and all integer operands are low.
func (c *Core) actualWidthClass(slot *fetchSlot) (low, relevant bool) {
	in := &slot.inst
	if !in.HasIntDest() || in.Class == isa.ClassJump {
		return false, false
	}
	low = slot.resultLow
	if in.Class != isa.ClassLoad {
		low = low && !slot.opAnyFull
	}
	return low, true
}

// ---------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------

func (c *Core) dispatch() {
	if c.cycle < c.dispatchBlockedU {
		return
	}
	groupHadUnsafe := false
	for n := 0; n < c.cfg.DecodeWidth && c.ifqLen > 0; n++ {
		if !c.ifqHeadFits() {
			break
		}
		slot := &c.ifq[c.ifqHead]
		in := &slot.inst
		rsEntry, _ := c.rsAlloc.Allocate() // ifqHeadFits saw a free entry

		// Register file read with width prediction (TH only): an
		// operand whose architectural value is full-width read under a
		// low prediction is unsafe; the group pays one stall cycle and
		// the prediction is corrected in place, so the instruction
		// proceeds with its execution unit fully enabled (no second
		// stall at the ALU for the same misprediction).
		// Loads are exempt: their prediction concerns the loaded value
		// (gating the D-cache); the address-register read is performed
		// full-width, as load/store addresses almost always are
		// (Section 3.5 — PAM, not width prediction, covers them).
		if c.herding() && slot.hasWidthPred && slot.predictedLow && slot.opAnyFull &&
			in.Class != isa.ClassLoad {
			groupHadUnsafe = true
			slot.predictedLow = false
			c.wpred.CorrectOverride(in.PC)
		}
		c.chargeRegisterRead(slot, slot.predictedLow && c.herding())
		c.recordActivity(floorplan.BlkRename, core.NumDies)

		c.rob[c.robTail] = robEntry{
			fetchSlot: *slot,
			rs:        rsEntry,
			fpLoad:    in.Class == isa.ClassLoad && in.Dest >= trace.FPBase,
		}
		c.waiting = append(c.waiting, c.robTail)
		c.robTail = (c.robTail + 1) % c.cfg.ROBSize
		c.robCount++
		// RS entry write: with herding, a low-width instruction's
		// operand/tag state is confined to its entry's die; the entry
		// itself lives on one die, so dispatch touches that die only.
		// Without partitioning this is a full-structure access.
		if c.threeDPartitioned() {
			c.stats.BlockAccesses[floorplan.BlkRS]++
			c.stats.BlockDie[floorplan.BlkRS].Words[rsEntry.Die]++
		} else {
			c.recordActivity(floorplan.BlkRS, 1)
		}

		switch in.Class {
		case isa.ClassLoad:
			c.lqUsed++
		case isa.ClassStore:
			c.sq[(c.sqHead+c.sqUsed)%c.cfg.SQSize] = in.MemAddr &^ 7
			c.sqUsed++
		}
		c.ifqHead = (c.ifqHead + 1) % c.cfg.IFQSize
		c.ifqLen--
	}
	if groupHadUnsafe {
		// The whole group stalls one cycle (at most one per group
		// regardless of how many operands mispredicted), and the
		// predictions are corrected in place.
		c.stats.RFGroupStalls++
		c.dispatchBlockedU = c.cycle + 2
	}
}

// ifqHeadFits reports whether the instruction at the head of the fetch
// queue has room to dispatch: a ROB entry, an RS entry, and an LQ or SQ
// entry if it is a load or store.
func (c *Core) ifqHeadFits() bool {
	if c.robCount == c.cfg.ROBSize || c.rsAlloc.Free() == 0 {
		return false
	}
	switch c.ifq[c.ifqHead].inst.Class {
	case isa.ClassLoad:
		return c.lqUsed < c.cfg.LQSize
	case isa.ClassStore:
		return c.sqUsed < c.cfg.SQSize
	}
	return true
}

// operandFull reports whether the architectural register's latest
// program-order value (as of the current fetch point) is full-width.
// Only valid during fetch, where state advances in program order.
func (c *Core) operandFull(r int16) bool {
	if r == trace.RegNone || r >= trace.FPBase {
		return false // FP operands are not width-predicted
	}
	return !c.regIsLow[r]
}

// chargeRegisterRead accounts ROB/physical-register-file read activity
// for an instruction's operands, with die gating when herded.
func (c *Core) chargeRegisterRead(slot *fetchSlot, herdedLow bool) {
	in := &slot.inst
	for i, r := range [2]int16{in.Src1, in.Src2} {
		if r == trace.RegNone {
			continue
		}
		low := r < trace.FPBase && !slot.srcFull[i]
		if low {
			c.stats.RegLowReads++
		} else {
			c.stats.RegFullReads++
		}
		dies := core.NumDies
		if herdedLow && low {
			dies = 1
		}
		c.recordActivity(floorplan.BlkROB, dies)
	}
}

// ---------------------------------------------------------------------
// Issue / execute
// ---------------------------------------------------------------------

// fu tracks per-cycle functional unit budgets.
type fuBudget struct {
	alu, shift, mulDiv  int
	fpAdd, fpMul, fpDiv int
	memPorts, loadPorts int
}

func (c *Core) issue() {
	budget := fuBudget{
		alu: c.cfg.IntALU, shift: c.cfg.IntShift, mulDiv: c.cfg.IntMulDiv,
		fpAdd: c.cfg.FPAdd, fpMul: c.cfg.FPMul, fpDiv: c.cfg.FPDiv,
		memPorts: c.cfg.MemPorts, loadPorts: c.cfg.LoadPorts,
	}
	issued := 0
	// Walk the wait list oldest first, compacting it in place: issue
	// order matters, since executeLatency drives the TLB, caches and PAM.
	kept := c.waiting[:0]
	for i, idx := range c.waiting {
		if issued == c.cfg.IssueWidth {
			kept = append(kept, c.waiting[i:]...)
			break
		}
		e := &c.rob[idx]
		if c.operandsReadyAt(&e.inst) > c.cycle || !c.takeFU(&budget, &e.inst) {
			kept = append(kept, idx)
			continue
		}
		lat, ok := c.executeLatency(e)
		if !ok {
			kept = append(kept, idx) // non-pipelined unit busy
			continue
		}
		complete := c.cycle + uint64(lat)
		c.pushInflight(inflightEntry{complete: complete, rob: idx})
		if e.inst.Dest != trace.RegNone {
			c.regReady[e.inst.Dest] = complete
		}
		issued++

		// Scheduler: issue frees the RS entry and broadcasts the tag.
		c.rsAlloc.Release(e.rs)
		c.rsAlloc.Broadcast()
		c.stats.BlockAccesses[floorplan.BlkRS]++
		if !c.threeDPartitioned() {
			c.stats.BlockDie[floorplan.BlkRS].RecordAccess(1)
		}
		// (3D broadcast activity is merged from the allocator at the
		// end of the run; it already tracks per-die gating.)
		c.chargeExecActivity(e)

		if e.mispredicted {
			// The branch resolves at complete; the front end restarts
			// after the redirect penalty.
			c.fetchResumeAt = complete + uint64(c.cfg.MispredictRedirect)
			c.redirectPending = false
		}
	}
	c.waiting = kept

	// Write back the results that arrive this cycle.
	for len(c.inflight) > 0 && c.inflight[0].complete <= c.cycle {
		e := &c.rob[c.popInflight()]
		e.done = true
		c.writeback(e)
	}
}

// operandsReadyAt returns the first cycle in which both of the
// instruction's source operands are available.
func (c *Core) operandsReadyAt(in *trace.Inst) uint64 {
	var t uint64
	if in.Src1 != trace.RegNone {
		t = c.regReady[in.Src1]
	}
	if in.Src2 != trace.RegNone {
		t = max(t, c.regReady[in.Src2])
	}
	return t
}

// pushInflight adds an issued instruction to the completion heap.
func (c *Core) pushInflight(x inflightEntry) {
	h := append(c.inflight, x)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].complete <= h[i].complete {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	c.inflight = h
}

// popInflight removes the earliest-completing instruction from the
// completion heap and returns its ROB index.
func (c *Core) popInflight() int {
	h := c.inflight
	top := h[0].rob
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && h[r].complete < h[m].complete {
			m = r
		}
		if h[i].complete <= h[m].complete {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	c.inflight = h
	return top
}

func (c *Core) takeFU(b *fuBudget, in *trace.Inst) bool {
	take := func(n *int) bool {
		if *n > 0 {
			*n--
			return true
		}
		return false
	}
	switch in.Class {
	case isa.ClassALU, isa.ClassBranch, isa.ClassJump, isa.ClassNop, isa.ClassHalt:
		return take(&b.alu)
	case isa.ClassShift:
		return take(&b.shift) || take(&b.alu)
	case isa.ClassMulDiv:
		return take(&b.mulDiv)
	case isa.ClassFPAdd:
		return take(&b.fpAdd)
	case isa.ClassFPMul:
		return take(&b.fpMul)
	case isa.ClassFPDiv:
		return take(&b.fpDiv)
	case isa.ClassLoad:
		return take(&b.loadPorts) || take(&b.memPorts)
	case isa.ClassStore:
		return take(&b.memPorts)
	}
	return take(&b.alu)
}

// executeLatency computes the execution latency of an instruction at
// issue, including cache access, TLB, width-misprediction penalties, and
// non-pipelined unit availability. ok=false means the instruction cannot
// start this cycle (busy non-pipelined unit).
func (c *Core) executeLatency(e *robEntry) (lat int, ok bool) {
	in := &e.inst
	switch in.Class {
	case isa.ClassALU, isa.ClassBranch, isa.ClassJump, isa.ClassNop, isa.ClassHalt:
		lat = 1
	case isa.ClassShift:
		lat = 1
	case isa.ClassMulDiv:
		if c.mulDivFree > c.cycle {
			return 0, false
		}
		if in.Op == isa.OpDiv || in.Op == isa.OpRem {
			lat = 20
			c.mulDivFree = c.cycle + uint64(lat) // divider not pipelined
		} else {
			lat = 3
		}
	case isa.ClassFPAdd:
		lat = 3
	case isa.ClassFPMul:
		lat = 5
	case isa.ClassFPDiv:
		if c.fpDivFree > c.cycle {
			return 0, false
		}
		lat = 20
		c.fpDivFree = c.cycle + uint64(lat)
	case isa.ClassLoad:
		lat = c.loadLatency(e)
	case isa.ClassStore:
		// Address generation only; data is written at commit.
		lat = 1
		c.broadcastLSQ(in)
	default:
		lat = 1
	}

	// Width-misprediction execution penalties (integer units only).
	// RF-detected mispredictions were already corrected at dispatch
	// (predictedLow cleared), so only genuine surprises remain: an
	// operand that bypassed in full-width, or a low×low operation whose
	// result overflowed 16 bits.
	if c.herding() && e.hasWidthPred && e.predictedLow && isIntExec(in.Class) {
		switch {
		case e.opAnyFull:
			// The unit was not fully enabled: one cycle to re-enable
			// the upper 48 bits.
			c.stats.ALUInputStalls++
			lat++
		case !e.resultLow:
			// Output-width misprediction: re-execute.
			c.stats.ALUReexecutes++
			lat *= 2
		}
	}
	return lat, true
}

func isIntExec(cl isa.Class) bool {
	return cl == isa.ClassALU || cl == isa.ClassShift || cl == isa.ClassMulDiv
}

// loadLatency models a load: DTLB, LSQ broadcast, cache hierarchy, and
// the Thermal Herding partial-value behaviour of the L1 data cache.
func (c *Core) loadLatency(e *robEntry) int {
	in := &e.inst
	c.stats.LoadCount++
	lat := 0
	if !c.dtlb.Access(in.MemAddr) {
		lat += c.cfg.TLBMissPenalty
	}
	c.recordActivity(floorplan.BlkDTLB, core.NumDies)
	c.broadcastLSQ(in)

	// Store-to-load forwarding: a load whose address matches an
	// in-flight older store takes its data straight from the store
	// queue, skipping the cache. (The model's dependence resolution is
	// conservative: an address match suffices; real designs also check
	// age and size.)
	if c.storeInFlight(in.MemAddr &^ 7) {
		c.stats.ForwardedLoads++
		lat += 2 // SQ read-out
		// The forwarded value still drives the (herded) data bypass.
		dies := core.NumDies
		if c.herding() && e.predictedLow && e.hasWidthPred {
			dies = 1
		}
		c.recordActivity(floorplan.BlkLSQ, dies)
		if lat < c.cfg.L1Latency {
			lat = c.cfg.L1Latency
		}
		if e.fpLoad {
			lat += c.cfg.FPLoadExtraCycle
		}
		return lat
	}

	memLat, level := c.dmem.Access(in.MemAddr, false)
	lat += memLat
	c.chargeMemActivity(level)

	// Partial value encoding (Section 3.6): classify the loaded value
	// against the referencing address.
	enc := core.ClassifyPartialValue(in.Result, in.MemAddr)
	c.stats.PV.Observe(enc)
	if c.herding() {
		if level == cache.LevelL1 && e.predictedLow && e.hasWidthPred {
			if enc.IsLow() {
				// Herded load: top die only.
				c.recordActivity(floorplan.BlkDCache, 1)
			} else {
				// Unsafe: stall the cache pipeline one cycle; the tag
				// match already identified the way, so only one way of
				// the lower die is read.
				c.stats.DCacheUnsafe++
				lat++
				c.recordActivity(floorplan.BlkDCache, core.NumDies)
			}
		} else {
			// Full-width predicted loads and all L2 fills access all
			// four die.
			c.recordActivity(floorplan.BlkDCache, core.NumDies)
		}
	} else {
		c.recordActivity(floorplan.BlkDCache, core.NumDies)
	}

	// FP loads may pay an extra routing cycle in the planar design.
	if e.fpLoad {
		lat += c.cfg.FPLoadExtraCycle
	}
	if lat < c.cfg.L1Latency {
		lat = c.cfg.L1Latency
	}
	return lat
}

// storeInFlight reports whether an in-flight store writes the 8-byte
// word at addr.
func (c *Core) storeInFlight(addr uint64) bool {
	for i := 0; i < c.sqUsed; i++ {
		if c.sq[(c.sqHead+i)%c.cfg.SQSize] == addr {
			return true
		}
	}
	return false
}

// broadcastLSQ models the load/store queue address broadcast with
// partial address memoization.
func (c *Core) broadcastLSQ(in *trace.Inst) {
	res := c.pam.Broadcast(in.MemAddr, in.Class == isa.ClassStore)
	dies := core.NumDies
	if c.herding() && res.MemoHit {
		dies = res.DiesActivated
	}
	c.recordActivity(floorplan.BlkLSQ, dies)
}

func (c *Core) chargeMemActivity(level cache.Level) {
	if level == cache.LevelL2 || level == cache.LevelMem {
		c.recordActivity(floorplan.BlkL2, core.NumDies)
	}
	if level == cache.LevelMem {
		c.stats.BlockAccesses[floorplan.BlkMemCtl]++
		c.stats.BlockDie[floorplan.BlkMemCtl].RecordAccess(1)
	}
}

// chargeExecActivity accounts execution-unit and bypass switching for an
// issued instruction, with die gating for herded low-width operations.
func (c *Core) chargeExecActivity(e *robEntry) {
	in := &e.inst
	resultLow := e.resultLow
	gated := c.herding() && e.hasWidthPred && e.predictedLow &&
		!e.opAnyFull && resultLow

	switch {
	case isIntExec(in.Class) || in.Class == isa.ClassBranch || in.Class == isa.ClassJump:
		if gated {
			c.recordActivity(floorplan.BlkIntExec, 1)
			c.recordActivity(floorplan.BlkBypass, 1)
		} else {
			c.recordActivity(floorplan.BlkIntExec, core.NumDies)
			dies := core.NumDies
			if c.herding() && resultLow {
				// A correctly low result only drives the top-die
				// bypass wires even if the unit ran ungated.
				dies = 1
			}
			c.recordActivity(floorplan.BlkBypass, dies)
		}
	case in.Class == isa.ClassFPAdd || in.Class == isa.ClassFPMul || in.Class == isa.ClassFPDiv:
		c.recordActivity(floorplan.BlkFPExec, core.NumDies)
		c.recordActivity(floorplan.BlkBypass, core.NumDies)
	case in.Class == isa.ClassLoad:
		dies := core.NumDies
		if c.herding() && resultLow {
			dies = 1
		}
		c.recordActivity(floorplan.BlkBypass, dies)
	}
}

// writeback charges the result write into the ROB/physical registers.
// The width state itself advanced in program order at fetch.
func (c *Core) writeback(e *robEntry) {
	in := &e.inst
	if in.Dest == trace.RegNone {
		return
	}
	low := e.resultLow
	if low {
		c.stats.RegLowWrites++
	} else {
		c.stats.RegFullWrites++
	}
	dies := core.NumDies
	if c.herding() && low {
		dies = 1
	}
	c.recordActivity(floorplan.BlkROB, dies)
}

// ---------------------------------------------------------------------
// Commit
// ---------------------------------------------------------------------

func (c *Core) commit() {
	for n := 0; n < c.cfg.CommitWidth && c.robCount > 0; n++ {
		e := &c.rob[c.robHead]
		if !e.done {
			return
		}
		in := &e.inst
		switch in.Class {
		case isa.ClassLoad:
			c.lqUsed--
		case isa.ClassStore:
			// Stores commit in program order, so this one is the
			// oldest in the SQ.
			c.sqHead = (c.sqHead + 1) % c.cfg.SQSize
			c.sqUsed--
			c.stats.StoreCount++
			// The store writes the cache at commit. A store knows its
			// data width, so it never causes an unsafe misprediction.
			_, level := c.dmem.Access(in.MemAddr, true)
			c.chargeMemActivity(level)
			dies := core.NumDies
			if c.herding() && core.ClassifyPartialValue(in.StoreVal, in.MemAddr).IsLow() {
				dies = 1
			}
			c.recordActivity(floorplan.BlkDCache, dies)
			if !c.dtlb.Access(in.MemAddr) {
				// Commit-time translation misses are rare (the issue
				// access warmed the TLB); charge activity only.
			}
			c.recordActivity(floorplan.BlkDTLB, core.NumDies)
		}
		c.robHead = (c.robHead + 1) % c.cfg.ROBSize
		c.robCount--
		c.stats.Insts++
	}
}
