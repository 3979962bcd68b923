package experiments

import (
	"fmt"

	"thermalherd/internal/config"
	"thermalherd/internal/core"
	"thermalherd/internal/floorplan"
	"thermalherd/internal/power"
	"thermalherd/internal/stats"
	"thermalherd/internal/thermal"
	"thermalherd/internal/trace"
)

// AblationWidthPolicy compares width-prediction policies on one
// workload: the two-bit predictor against a perfect oracle and the two
// degenerate static policies. It reports IPC and the top-die activity
// share of the integer execution units (gating coverage).
func AblationWidthPolicy(r *Runner, workload string) (*stats.Table, error) {
	t := stats.NewTable("Policy", "IPC", "IntExec top-die share", "Unsafe rate")
	for _, pol := range []core.OraclePolicy{
		core.PolicyTwoBit, core.PolicyOracle, core.PolicyAlwaysLow, core.PolicyAlwaysFull,
	} {
		cfg := config.ThreeD()
		cfg.Name = "3D/" + pol.String()
		cfg.WidthPolicy = pol
		s, err := r.Simulate(cfg, workload)
		if err != nil {
			return nil, err
		}
		t.AddRow(pol.String(),
			fmt.Sprintf("%.3f", s.IPC()),
			fmt.Sprintf("%.3f", s.BlockDie[floorplan.BlkIntExec].TopDieShare()),
			fmt.Sprintf("%.4f", s.WidthUnsafeRate))
	}
	return t, nil
}

// AblationAllocator compares the herded (top-die-first) scheduler
// allocation against round-robin: top-die allocation share and the mean
// number of die each tag broadcast drives.
func AblationAllocator(r *Runner, workload string) (*stats.Table, error) {
	t := stats.NewTable("Allocator", "IPC", "Top-die alloc share", "Mean broadcast dies")
	for _, pol := range []core.AllocPolicy{core.AllocHerded, core.AllocRoundRobin} {
		cfg := config.ThreeD()
		cfg.Name = "3D/" + pol.String()
		cfg.AllocPolicy = pol
		s, err := r.Simulate(cfg, workload)
		if err != nil {
			return nil, err
		}
		t.AddRow(pol.String(),
			fmt.Sprintf("%.3f", s.IPC()),
			fmt.Sprintf("%.3f", s.RSTopDieShare),
			fmt.Sprintf("%.2f", s.MeanBroadcastDie))
	}
	return t, nil
}

// AblationPVEncoding quantifies the coverage of the 2-bit partial value
// encoding against a 1-bit zeros-only memoization, per workload group.
func AblationPVEncoding(r *Runner) (*stats.Table, error) {
	t := stats.NewTable("Group", "2-bit low fraction", "zeros-only fraction", "gain")
	cfg := config.ThreeD()
	for _, g := range trace.Groups() {
		var two, zero, n float64
		for _, p := range trace.GroupProfiles(g) {
			s, err := r.Simulate(cfg, p.Name)
			if err != nil {
				return nil, err
			}
			total := float64(s.PV.Total())
			two += s.PV.LowFraction() * total
			zero += s.PV.ZeroOnlyFraction() * total
			n += total
		}
		if n == 0 {
			continue
		}
		t.AddRow(g.String(),
			fmt.Sprintf("%.3f", two/n),
			fmt.Sprintf("%.3f", zero/n),
			fmt.Sprintf("%+.3f", (two-zero)/n))
	}
	return t, nil
}

// AblationPAM reports the partial-address-memoization hit rate and the
// LSQ top-die activity share per workload group — against the implicit
// baseline of broadcasting all 64 address bits to every die.
func AblationPAM(r *Runner) (*stats.Table, error) {
	t := stats.NewTable("Group", "PAM hit rate", "LSQ top-die share")
	cfg := config.ThreeD()
	for _, g := range trace.Groups() {
		var hit, share, n float64
		for _, p := range trace.GroupProfiles(g) {
			s, err := r.Simulate(cfg, p.Name)
			if err != nil {
				return nil, err
			}
			hit += s.PAMHitRate
			share += s.BlockDie[floorplan.BlkLSQ].TopDieShare()
			n++
		}
		t.AddRow(g.String(), fmt.Sprintf("%.3f", hit/n), fmt.Sprintf("%.3f", share/n))
	}
	return t, nil
}

// AblationD2DResistance sweeps the die-to-die via-field copper occupancy
// and reports the 3D worst-case peak temperature sensitivity for one
// workload (DESIGN.md's thermal-resistance sensitivity study).
func AblationD2DResistance(r *Runner, workload string, occupancies []float64) (*stats.Table, error) {
	t := stats.NewTable("Cu occupancy", "effective k (W/mK)", "peak (K)")
	cfg := config.ThreeD()
	b, err := r.PowerFor(cfg, workload)
	if err != nil {
		return nil, err
	}
	fp := power.FloorplanFor(cfg)
	for _, occ := range occupancies {
		keff := occ*395.0 + (1-occ)*0.026
		stack, err := buildStackedWithD2DK(fp, b, keff, r.opts.Grid)
		if err != nil {
			return nil, err
		}
		sol, err := stack.Solve()
		if err != nil {
			return nil, err
		}
		peak, _, _, _ := sol.Peak()
		t.AddRow(fmt.Sprintf("%.0f%%", 100*occ), fmt.Sprintf("%.1f", keff), fmt.Sprintf("%.1f", peak))
	}
	return t, nil
}

// buildStackedWithD2DK builds the 3D thermal stack with an overridden
// die-to-die interface conductivity (for the sensitivity sweep).
func buildStackedWithD2DK(fp *floorplan.Floorplan, b *power.Breakdown, keff float64, grid int) (*thermal.Stack, error) {
	stack, err := thermal.Build(fp, b.Watts, grid, grid)
	if err != nil {
		return nil, err
	}
	for i := range stack.Layers {
		if thermal.LayerDie(stack, i) < 0 && stack.Layers[i].Name != "spreader" && stack.Layers[i].Name != "tim" {
			stack.Layers[i].K = keff
		}
	}
	return stack, nil
}
