// Package config defines the simulated machine configurations: the
// Table 1 baseline (a Core 2-class four-wide out-of-order processor at
// 2.66 GHz) and the paper's five evaluation configurations:
//
//	Base  — the planar baseline.
//	TH    — Thermal Herding mechanisms enabled, baseline frequency
//	        (isolates the IPC cost of width-misprediction stalls).
//	Pipe  — the 3D pipeline optimizations (shorter branch-redirect
//	        path, faster L2 in cycles, no FP-load penalty cycle) at
//	        baseline frequency (isolates their IPC benefit).
//	Fast  — the planar microarchitecture clocked at the 3D frequency
//	        (isolates the IPC cost of more DRAM cycles).
//	3D    — everything combined: the full Thermal Herding 3D processor.
package config

import (
	"slices"

	"thermalherd/internal/core"
)

// Clock frequencies from the paper's evaluation: the planar baseline at
// 2.66 GHz and the 3D design at 3.93 GHz (+47.9% from the wire-delay
// reduction in the wakeup-select and ALU+bypass loops; see package
// circuit, which derives this number).
const (
	BaseClockGHz   = 2.66
	ThreeDClockGHz = 3.93
)

// DRAMLatencyNs is the main-memory access latency in nanoseconds. It is
// frequency-independent: faster clocks see more cycles per access, the
// effect isolated by the Fast configuration.
const DRAMLatencyNs = 60.0

// Machine is a complete simulated-machine configuration.
type Machine struct {
	// Name identifies the configuration in reports ("Base", "3D", ...).
	Name string

	// ClockGHz is the core clock frequency.
	ClockGHz float64

	// Pipeline widths (Table 1).
	FetchWidth  int
	DecodeWidth int
	IssueWidth  int
	CommitWidth int

	// Window and queue sizes (Table 1).
	ROBSize int
	RSSize  int
	LQSize  int
	SQSize  int
	IFQSize int

	// Functional units (Table 1).
	IntALU    int
	IntShift  int
	IntMulDiv int
	FPAdd     int
	FPMul     int
	FPDiv     int
	// MemPorts is the number of load/store-capable ports; LoadPorts is
	// additional load-only ports.
	MemPorts  int
	LoadPorts int

	// Cache/TLB latencies and geometry.
	L1Latency      int
	L2Latency      int
	L1Size         int
	L1Ways         int
	L2Size         int
	L2Ways         int
	LineSize       int
	ITLBEntries    int
	DTLBEntries    int
	TLBWays        int
	TLBMissPenalty int

	// BTB geometry (Table 1: BTB/iBTB 2K/512-entry, 4-way).
	BTBEntries  int
	BTBWays     int
	IBTBEntries int
	IBTBWays    int
	RASDepth    int

	// MispredictRedirect is the front-end redirect penalty in cycles
	// charged after a mispredicted branch resolves (the back half of
	// the paper's "min 14 cycles" mispredict loop; the front half is
	// the instruction's own journey through the pipeline).
	MispredictRedirect int
	// FPLoadExtraCycle models the extra cycle some microarchitectures
	// spend routing loads to the FP registers (Section 3.8); the 3D
	// bypass compaction removes it.
	FPLoadExtraCycle int

	// ThermalHerding enables width prediction and all the herded 3D
	// structures (Section 3 mechanisms and their stalls).
	ThermalHerding bool
	// WidthPolicy selects the width prediction policy (for ablations).
	WidthPolicy core.OraclePolicy
	// WidthPredEntries sizes the width predictor table.
	WidthPredEntries int
	// AllocPolicy selects the RS allocation policy (for ablations).
	AllocPolicy core.AllocPolicy
	// ThreeD marks a stacked implementation (affects power/thermal
	// modelling; the planar baseline and Fast are not 3D).
	ThreeD bool
}

// DRAMCycles returns the DRAM latency in core cycles at this clock.
func (m *Machine) DRAMCycles() int {
	return int(DRAMLatencyNs*m.ClockGHz + 0.5)
}

// Baseline returns the Table 1 planar machine.
func Baseline() Machine {
	return Machine{
		Name:       "Base",
		ClockGHz:   BaseClockGHz,
		FetchWidth: 4, DecodeWidth: 4, IssueWidth: 6, CommitWidth: 4,
		ROBSize: 96, RSSize: 32, LQSize: 32, SQSize: 20, IFQSize: 16,
		IntALU: 3, IntShift: 2, IntMulDiv: 1,
		FPAdd: 1, FPMul: 1, FPDiv: 1,
		MemPorts: 1, LoadPorts: 1,
		L1Latency: 3, L2Latency: 12,
		L1Size: 32 << 10, L1Ways: 8,
		L2Size: 4 << 20, L2Ways: 16,
		LineSize:    64,
		ITLBEntries: 128, DTLBEntries: 256, TLBWays: 4, TLBMissPenalty: 30,
		BTBEntries: 2048, BTBWays: 4,
		IBTBEntries: 512, IBTBWays: 4, RASDepth: 16,
		MispredictRedirect: 10,
		FPLoadExtraCycle:   1,
		WidthPredEntries:   16384,
		WidthPolicy:        core.PolicyTwoBit,
		AllocPolicy:        core.AllocRoundRobin,
	}
}

// TH returns the Thermal Herding configuration at baseline frequency.
func TH() Machine {
	m := Baseline()
	m.Name = "TH"
	m.ThermalHerding = true
	m.AllocPolicy = core.AllocHerded
	return m
}

// Pipe returns the pipeline-optimization configuration at baseline
// frequency: the 3D implementation shortens the branch-redirect path by
// two stages, brings the L2 down to 9 cycles, and removes the FP-load
// routing cycle.
func Pipe() Machine {
	m := Baseline()
	m.Name = "Pipe"
	m.MispredictRedirect = 7
	m.L2Latency = 9
	m.FPLoadExtraCycle = 0
	return m
}

// Fast returns the planar microarchitecture clocked at the 3D frequency.
func Fast() Machine {
	m := Baseline()
	m.Name = "Fast"
	m.ClockGHz = ThreeDClockGHz
	return m
}

// ThreeD returns the full Thermal Herding 3D processor: herding, the
// pipeline optimizations, and the 3D clock.
func ThreeD() Machine {
	m := TH()
	m.Name = "3D"
	m.MispredictRedirect = 7
	m.L2Latency = 9
	m.FPLoadExtraCycle = 0
	m.ClockGHz = ThreeDClockGHz
	m.ThreeD = true
	return m
}

// ThreeDNoTH returns the 3D processor (frequency + pipeline
// optimizations + stacked implementation) without Thermal Herding — the
// middle bar of Figures 9 and 10.
func ThreeDNoTH() Machine {
	m := Pipe()
	m.Name = "3D-noTH"
	m.ClockGHz = ThreeDClockGHz
	m.ThreeD = true
	return m
}

// AllConfigs returns the five Figure 8 configurations in figure order.
func AllConfigs() []Machine {
	return []Machine{Baseline(), TH(), Pipe(), Fast(), ThreeD()}
}

// registry is every named configuration, built once.
var registry = append(AllConfigs(), ThreeDNoTH())

// Registry returns every named configuration: the five Figure 8
// machines plus 3D-noTH, in a slice the caller owns.
func Registry() []Machine { return slices.Clone(registry) }

// ByName looks up a configuration by its report name.
func ByName(name string) (Machine, error) {
	for _, m := range registry {
		if m.Name == name {
			return m, nil
		}
	}
	return Machine{}, &ConfigError{Config: name, Reason: "unknown configuration (want Base, TH, Pipe, Fast, 3D, 3D-noTH)"}
}

// Validate checks configuration invariants.
func (m *Machine) Validate() error {
	checks := []struct {
		ok  bool
		msg string
	}{
		{m.ClockGHz > 0, "clock must be positive"},
		{m.FetchWidth > 0 && m.DecodeWidth > 0 && m.IssueWidth > 0 && m.CommitWidth > 0, "widths must be positive"},
		{m.ROBSize > 0 && m.RSSize > 0 && m.LQSize > 0 && m.SQSize > 0, "queues must be positive"},
		{m.RSSize%core.NumDies == 0, "RS size must divide across the die stack"},
		{m.L1Latency > 0 && m.L2Latency > m.L1Latency, "cache latencies must be increasing"},
		{m.IFQSize > 0, "IFQ must be positive"},
	}
	for _, c := range checks {
		if !c.ok {
			return &ConfigError{Config: m.Name, Reason: c.msg}
		}
	}
	return nil
}

// ConfigError reports an invalid machine configuration.
type ConfigError struct {
	Config string
	Reason string
}

// Error implements error.
func (e *ConfigError) Error() string {
	return "config " + e.Config + ": " + e.Reason
}
