// Package trace defines the dynamic instruction stream consumed by the
// timing simulator, and provides the synthetic workload generator that
// stands in for the paper's 106 application traces (SPEC2000, MediaBench,
// MiBench, pointer-intensive, graphics, and bioinformatics suites run
// under SimpleScalar/MASE with SimPoint sampling).
//
// The generator draws from rngSource (rng.go), math/rand's seeded
// source ported as a value type: seeded alike, it emits the values
// rand.New(rand.NewSource(seed)) would, and the hot path's fixed-
// probability coin flips compare that same draw against an integer
// threshold instead of a float. TestStreamDigestsPinned holds every
// workload's stream to the one the math/rand-backed generator emitted.
//
// Declared deterministic to thermlint: the same generator parameters
// and seed must reproduce the same instruction stream bit for bit.
//
//thermlint:deterministic
package trace

import "thermalherd/internal/isa"

// RegNone marks an absent register operand.
const RegNone int16 = -1

// FPBase offsets floating-point register identifiers so integer and FP
// registers share one rename space in Inst records: FP register f3 is
// identified as FPBase+3.
const FPBase int16 = 32

// Inst is one dynamic (executed) instruction with everything the timing
// model needs: operand/result identity for renaming, the result value for
// width classification, the effective address for the memory system and
// PAM, and the resolved control-flow outcome for the branch predictor.
type Inst struct {
	// PC is the instruction's address.
	PC uint64
	// Op is the executed opcode; Class caches Op.Class() for the
	// issue logic.
	Op    isa.Opcode
	Class isa.Class
	// Dest is the architectural destination register (FP registers
	// offset by FPBase), or RegNone.
	Dest int16
	// Src1, Src2 are source registers, or RegNone.
	Src1, Src2 int16
	// Result is the value written to Dest (raw bits for FP); width
	// prediction classifies it. Meaningless when Dest == RegNone.
	Result uint64
	// MemAddr/MemSize describe the data memory access of loads and
	// stores (size in bytes, 0 for non-memory instructions).
	MemAddr uint64
	MemSize uint8
	// StoreVal is the value a store writes.
	StoreVal uint64
	// Taken and Target describe resolved control flow for branches and
	// jumps: Target is the next PC when Taken.
	Taken  bool
	Target uint64
}

// IsMem reports whether the instruction accesses data memory.
func (in *Inst) IsMem() bool { return in.Class == isa.ClassLoad || in.Class == isa.ClassStore }

// IsCtrl reports whether the instruction is a branch or jump.
func (in *Inst) IsCtrl() bool { return in.Class == isa.ClassBranch || in.Class == isa.ClassJump }

// NextPC returns the address of the successor instruction.
func (in *Inst) NextPC() uint64 {
	if in.IsCtrl() && in.Taken {
		return in.Target
	}
	return in.PC + 4
}

// HasIntDest reports whether the instruction writes an integer register.
func (in *Inst) HasIntDest() bool { return in.Dest != RegNone && in.Dest < FPBase }

// Source produces a dynamic instruction stream. Implementations include
// the functional emulator (package emu) and the synthetic generators in
// this package.
type Source interface {
	// Next returns the next dynamic instruction; ok is false when the
	// stream is exhausted.
	Next() (in Inst, ok bool)
}

// SliceSource adapts a pre-recorded instruction slice into a Source.
type SliceSource struct {
	insts []Inst
	pos   int
}

// NewSliceSource wraps insts.
func NewSliceSource(insts []Inst) *SliceSource { return &SliceSource{insts: insts} }

// Next implements Source.
func (s *SliceSource) Next() (Inst, bool) {
	if s.pos >= len(s.insts) {
		return Inst{}, false
	}
	in := s.insts[s.pos]
	s.pos++
	return in, true
}

// Reset rewinds the source to the beginning.
func (s *SliceSource) Reset() { s.pos = 0 }

// Collect drains up to max instructions from src into a slice.
func Collect(src Source, max int) []Inst {
	out := make([]Inst, 0, min(max, 4096))
	for len(out) < max {
		in, ok := src.Next()
		if !ok {
			break
		}
		out = append(out, in)
	}
	return out
}
