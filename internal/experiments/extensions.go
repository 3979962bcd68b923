package experiments

import (
	"fmt"

	"thermalherd/internal/config"
	"thermalherd/internal/core"
	"thermalherd/internal/cpu"
	"thermalherd/internal/power"
	"thermalherd/internal/stats"
	"thermalherd/internal/thermal"
	"thermalherd/internal/trace"
)

// This file implements the extension studies beyond the paper's figures:
// the performance-for-power conversion the paper attributes to Black et
// al. (Section 5.3), heterogeneous two-core pairings, the value-width
// census behind the Section 3 premise, and the thermal transient of a
// workload start.

// PerfToPowerPoint is one frequency point of the conversion study.
type PerfToPowerPoint struct {
	ClockGHz float64
	IPns     float64
	TotalW   float64
	PeakK    float64
}

// PerfToPower reproduces the observation the paper cites from Black et
// al.: part of the 3D performance gain can be converted into power (and
// temperature) reduction by clocking the 3D design lower. It sweeps the
// 3D clock from the baseline frequency to the full 3.93 GHz and reports
// performance, power, and peak temperature at each point, plus the
// baseline planar reference. Frequency-only scaling (no voltage scaling)
// keeps the estimate conservative.
func PerfToPower(r *Runner, workload string, points int) ([]PerfToPowerPoint, PerfToPowerPoint, error) {
	if points < 2 {
		points = 2
	}
	baseB, err := r.PowerFor(config.Baseline(), workload)
	if err != nil {
		return nil, PerfToPowerPoint{}, err
	}
	baseS, err := r.Simulate(config.Baseline(), workload)
	if err != nil {
		return nil, PerfToPowerPoint{}, err
	}
	baseSol, _, err := r.SolveThermal(config.Baseline(), baseB)
	if err != nil {
		return nil, PerfToPowerPoint{}, err
	}
	basePeak, _, _, _ := baseSol.Peak()
	ref := PerfToPowerPoint{
		ClockGHz: config.BaseClockGHz,
		IPns:     baseS.IPns(config.BaseClockGHz),
		TotalW:   baseB.TotalW,
		PeakK:    basePeak,
	}

	var out []PerfToPowerPoint
	for i := 0; i < points; i++ {
		f := config.BaseClockGHz +
			(config.ThreeDClockGHz-config.BaseClockGHz)*float64(i)/float64(points-1)
		cfg := config.ThreeD()
		cfg.Name = fmt.Sprintf("3D@%.2f", f)
		cfg.ClockGHz = f
		s, err := r.Simulate(cfg, workload)
		if err != nil {
			return nil, ref, err
		}
		b, err := PowerOf(cfg, workload, s)
		if err != nil {
			return nil, ref, err
		}
		sol, _, err := r.SolveThermal(cfg, b)
		if err != nil {
			return nil, ref, err
		}
		peak, _, _, _ := sol.Peak()
		out = append(out, PerfToPowerPoint{
			ClockGHz: f, IPns: s.IPns(f), TotalW: b.TotalW, PeakK: peak,
		})
	}
	return out, ref, nil
}

// RenderPerfToPower prints the conversion sweep.
func RenderPerfToPower(points []PerfToPowerPoint, ref PerfToPowerPoint) *stats.Table {
	t := stats.NewTable("Config", "Clock (GHz)", "IPns", "vs Base", "Power (W)", "Peak (K)")
	t.AddRow("Base (planar)", fmt.Sprintf("%.2f", ref.ClockGHz), fmt.Sprintf("%.2f", ref.IPns),
		"+0.0%", fmt.Sprintf("%.1f", ref.TotalW), fmt.Sprintf("%.1f", ref.PeakK))
	for _, p := range points {
		t.AddRow("3D", fmt.Sprintf("%.2f", p.ClockGHz), fmt.Sprintf("%.2f", p.IPns),
			fmt.Sprintf("%+.1f%%", 100*(p.IPns/ref.IPns-1)),
			fmt.Sprintf("%.1f", p.TotalW), fmt.Sprintf("%.1f", p.PeakK))
	}
	return t
}

// MixedPairResult summarizes a heterogeneous two-core run.
type MixedPairResult struct {
	Workloads [2]string
	TotalW    float64
	PeakK     float64
	Hotspot   string
	HotCore   int
}

// MixedPair runs two different workloads, one per core, under cfg, and
// reports the combined power and thermal outcome — the asymmetric-load
// scenario the paper's symmetric setup does not cover.
func MixedPair(r *Runner, cfg config.Machine, wl0, wl1 string) (*MixedPairResult, error) {
	s0, err := r.Simulate(cfg, wl0)
	if err != nil {
		return nil, err
	}
	s1, err := r.Simulate(cfg, wl1)
	if err != nil {
		return nil, err
	}
	b, err := power.ComputeDual(cfg, [2]*cpu.Stats{s0, s1}, power.FloorplanFor(cfg))
	if err != nil {
		return nil, err
	}
	sol, fp, err := r.SolveThermal(cfg, b)
	if err != nil {
		return nil, err
	}
	u, peak, ok := thermal.HottestUnit(sol, fp)
	res := &MixedPairResult{Workloads: [2]string{wl0, wl1}, TotalW: b.TotalW, PeakK: peak}
	if ok {
		res.Hotspot = u.Block.String()
		res.HotCore = u.Core
	}
	return res, nil
}

// ValueWidthCensus aggregates the integer result-width distribution per
// benchmark group — the Section 3 premise ("many 64-bit integer values
// require only 16 or fewer bits").
func ValueWidthCensus(r *Runner) (*stats.Table, error) {
	t := stats.NewTable("Group", "<=16b", "17-32b", "33-48b", "49-64b")
	cfg := config.ThreeD()
	for _, g := range trace.Groups() {
		var words [5]uint64
		for _, p := range trace.GroupProfiles(g) {
			s, err := r.Simulate(cfg, p.Name)
			if err != nil {
				return nil, err
			}
			for w := 1; w <= core.NumDies; w++ {
				words[w] += s.WidthWords[w]
			}
		}
		total := float64(words[1] + words[2] + words[3] + words[4])
		if total == 0 {
			continue
		}
		t.AddRow(g.String(),
			fmt.Sprintf("%.3f", float64(words[1])/total),
			fmt.Sprintf("%.3f", float64(words[2])/total),
			fmt.Sprintf("%.3f", float64(words[3])/total),
			fmt.Sprintf("%.3f", float64(words[4])/total))
	}
	return t, nil
}

// ThermalTransient simulates the first seconds after workload onset on
// the 3D design and reports how quickly the worst-case hotspot forms.
func ThermalTransient(r *Runner, workload string, duration float64) (*thermal.TransientResult, error) {
	cfg := config.ThreeD()
	b, err := r.PowerFor(cfg, workload)
	if err != nil {
		return nil, err
	}
	stack, err := thermal.Build(power.FloorplanFor(cfg), b.Watts, 16, 16)
	if err != nil {
		return nil, err
	}
	return stack.SolveTransient(duration, duration/200, 10)
}
