package experiments

import (
	"fmt"
	"sort"

	"thermalherd/internal/circuit"
	"thermalherd/internal/config"
	"thermalherd/internal/floorplan"
	"thermalherd/internal/power"
	"thermalherd/internal/stats"
	"thermalherd/internal/thermal"
	"thermalherd/internal/trace"
)

// Table1 renders the baseline machine parameters (the paper's Table 1).
func Table1() *stats.Table {
	m := config.Baseline()
	t := stats.NewTable("Parameter", "Value")
	t.AddRow("Fetch/Decode/Commit", fmt.Sprintf("%d insts/cycle", m.FetchWidth))
	t.AddRow("Issue", fmt.Sprintf("Max. %d/cycle", m.IssueWidth))
	t.AddRow("Int", fmt.Sprintf("%d ALU, %d shift, %d mult/complex", m.IntALU, m.IntShift, m.IntMulDiv))
	t.AddRow("FP", fmt.Sprintf("%d add, %d mult, %d div/sqrt", m.FPAdd, m.FPMul, m.FPDiv))
	t.AddRow("Memory", fmt.Sprintf("%d Ld/St port, %d Ld-only port", m.MemPorts, m.LoadPorts))
	t.AddRow("ROB size", fmt.Sprintf("%d entries", m.ROBSize))
	t.AddRow("RS size", fmt.Sprintf("%d entries", m.RSSize))
	t.AddRow("LQ/SQ size", fmt.Sprintf("%d/%d entries", m.LQSize, m.SQSize))
	t.AddRow("I/D L1 caches", fmt.Sprintf("%dKB, %d-way, %d-cycle", m.L1Size>>10, m.L1Ways, m.L1Latency))
	t.AddRow("Branch Predictor", "10KB Bimodal/Local/Global hybrid")
	t.AddRow("Unified L2 cache", fmt.Sprintf("%dMB, %d-way, %d-cycle", m.L2Size>>20, m.L2Ways, m.L2Latency))
	t.AddRow("I/D TLBs", fmt.Sprintf("%d/%d-entry, %d-way", m.ITLBEntries, m.DTLBEntries, m.TLBWays))
	t.AddRow("BTB", fmt.Sprintf("%d-entry, %d-way", m.BTBEntries, m.BTBWays))
	t.AddRow("Inst Fetch Queue", fmt.Sprintf("%d entry", m.IFQSize))
	t.AddRow("Clock", fmt.Sprintf("%.2f GHz", m.ClockGHz))
	return t
}

// Table2 renders the 2D-vs-3D block latencies and the derived clock
// frequencies (the paper's Table 2 plus the Section 5.1.1 headline).
func Table2() *stats.Table {
	t := stats.NewTable("Block", "2D (ps)", "3D (ps)", "Improvement", "Critical")
	for _, b := range circuit.Blocks() {
		crit := ""
		if b.CriticalLoop {
			crit = "yes"
		}
		t.AddRow(b.Name,
			fmt.Sprintf("%.0f", b.Latency2D()),
			fmt.Sprintf("%.0f", b.Latency3D()),
			fmt.Sprintf("%.1f%%", 100*b.Improvement()),
			crit)
	}
	t.AddRow("-- clock frequency --",
		fmt.Sprintf("%.2f GHz", circuit.ClockGHz2D()),
		fmt.Sprintf("%.2f GHz", circuit.ClockGHz3D()),
		fmt.Sprintf("+%.1f%%", 100*circuit.FrequencyGain()), "")
	return t
}

// Figure8Result holds the performance comparison of Figure 8: per-group
// geometric-mean IPC, IPns, and speedup for the five configurations,
// plus the per-benchmark extremes the paper quotes.
type Figure8Result struct {
	Configs []string
	Groups  []string
	// IPC[group][config], IPns[group][config], Speedup[group][config]
	// (speedup is IPns relative to Base).
	IPC     map[string]map[string]float64
	IPns    map[string]map[string]float64
	Speedup map[string]map[string]float64
	// MoM is the mean of the per-group means per config.
	MoMIPC     map[string]float64
	MoMSpeedup map[string]float64
	// Per-benchmark 3D speedups for the min/max callouts.
	BenchSpeedup map[string]float64
}

// Figure8 runs the full suite across the five configurations.
func Figure8(r *Runner) (*Figure8Result, error) {
	cfgs := config.AllConfigs()
	workloads := AllWorkloadNames()
	if err := r.SimulateMany(cfgs, workloads); err != nil {
		return nil, err
	}
	res := &Figure8Result{
		IPC:          map[string]map[string]float64{},
		IPns:         map[string]map[string]float64{},
		Speedup:      map[string]map[string]float64{},
		MoMIPC:       map[string]float64{},
		MoMSpeedup:   map[string]float64{},
		BenchSpeedup: map[string]float64{},
	}
	for _, c := range cfgs {
		res.Configs = append(res.Configs, c.Name)
	}
	for _, g := range trace.Groups() {
		res.Groups = append(res.Groups, g.String())
	}

	// Per-benchmark IPns per config.
	ipns := map[string]map[string]float64{} // config -> workload -> IPns
	for _, cfg := range cfgs {
		ipns[cfg.Name] = map[string]float64{}
		for _, wl := range workloads {
			s, err := r.Simulate(cfg, wl)
			if err != nil {
				return nil, err
			}
			ipns[cfg.Name][wl] = s.IPns(cfg.ClockGHz)
		}
	}
	for _, wl := range workloads {
		res.BenchSpeedup[wl] = ipns["3D"][wl] / ipns["Base"][wl]
	}

	// Group geometric means.
	for _, g := range trace.Groups() {
		gname := g.String()
		var members []string
		for _, p := range trace.GroupProfiles(g) {
			members = append(members, p.Name)
		}
		for _, cfg := range cfgs {
			var ipcs, ipnss, speeds []float64
			for _, wl := range members {
				v := ipns[cfg.Name][wl]
				ipcs = append(ipcs, v/cfg.ClockGHz)
				ipnss = append(ipnss, v)
				speeds = append(speeds, v/ipns["Base"][wl])
			}
			set := func(m map[string]map[string]float64, v float64) {
				if m[gname] == nil {
					m[gname] = map[string]float64{}
				}
				m[gname][cfg.Name] = v
			}
			set(res.IPC, stats.MustGeoMean(ipcs))
			set(res.IPns, stats.MustGeoMean(ipnss))
			set(res.Speedup, stats.MustGeoMean(speeds))
		}
	}
	// Mean of the per-group means.
	for _, cfg := range cfgs {
		var ipcMeans, spMeans []float64
		for _, g := range res.Groups {
			ipcMeans = append(ipcMeans, res.IPC[g][cfg.Name])
			spMeans = append(spMeans, res.Speedup[g][cfg.Name])
		}
		res.MoMIPC[cfg.Name] = stats.Mean(ipcMeans)
		res.MoMSpeedup[cfg.Name] = stats.Mean(spMeans)
	}
	return res, nil
}

// MinMaxSpeedup returns the benchmarks with the smallest and largest 3D
// speedups (the paper's mcf 7% / patricia 77% callouts).
func (f *Figure8Result) MinMaxSpeedup() (minName string, minV float64, maxName string, maxV float64) {
	minV, maxV = 1e9, -1e9
	for wl, v := range f.BenchSpeedup {
		if v < minV {
			minName, minV = wl, v
		}
		if v > maxV {
			maxName, maxV = wl, v
		}
	}
	return minName, minV, maxName, maxV
}

// Render prints a Figure 8 panel ("ipc", "ipns", or "speedup").
func (f *Figure8Result) Render(panel string) *stats.Table {
	header := append([]string{"Group"}, f.Configs...)
	t := stats.NewTable(header...)
	src := f.IPC
	switch panel {
	case "ipns":
		src = f.IPns
	case "speedup":
		src = f.Speedup
	}
	for _, g := range f.Groups {
		row := []string{g}
		for _, c := range f.Configs {
			row = append(row, fmt.Sprintf("%.3f", src[g][c]))
		}
		t.AddRow(row...)
	}
	if panel == "ipc" || panel == "speedup" {
		row := []string{"M-of-M"}
		for _, c := range f.Configs {
			if panel == "ipc" {
				row = append(row, fmt.Sprintf("%.3f", f.MoMIPC[c]))
			} else {
				row = append(row, fmt.Sprintf("%.3f", f.MoMSpeedup[c]))
			}
		}
		t.AddRow(row...)
	}
	return t
}

// Figure9Result holds the power analysis of Figure 9.
type Figure9Result struct {
	// The three mpeg2enc bars: planar, 3D without TH, 3D with TH.
	Planar, NoTH, TH *power.Breakdown
	// Savings of the full 3D-TH design over planar, per workload.
	SavingByBench map[string]float64
	MinBench      string
	MinSaving     float64
	MaxBench      string
	MaxSaving     float64
}

// Figure9 computes the power comparison on the reference workload and
// the per-benchmark savings range over the whole suite.
func Figure9(r *Runner) (*Figure9Result, error) {
	res := &Figure9Result{SavingByBench: map[string]float64{}}
	var err error
	if res.Planar, err = r.PowerFor(config.Baseline(), "mpeg2enc"); err != nil {
		return nil, err
	}
	if res.NoTH, err = r.PowerFor(config.ThreeDNoTH(), "mpeg2enc"); err != nil {
		return nil, err
	}
	if res.TH, err = r.PowerFor(config.ThreeD(), "mpeg2enc"); err != nil {
		return nil, err
	}
	workloads := AllWorkloadNames()
	if err := r.SimulateMany([]config.Machine{config.Baseline(), config.ThreeD()}, workloads); err != nil {
		return nil, err
	}
	res.MinSaving, res.MaxSaving = 1e9, -1e9
	for _, wl := range workloads {
		base, err := r.PowerFor(config.Baseline(), wl)
		if err != nil {
			return nil, err
		}
		th, err := r.PowerFor(config.ThreeD(), wl)
		if err != nil {
			return nil, err
		}
		s := th.Saving(base)
		res.SavingByBench[wl] = s
		if s < res.MinSaving {
			res.MinBench, res.MinSaving = wl, s
		}
		if s > res.MaxSaving {
			res.MaxBench, res.MaxSaving = wl, s
		}
	}
	return res, nil
}

// Render prints the Figure 9 summary.
func (f *Figure9Result) Render() *stats.Table {
	t := stats.NewTable("Configuration", "Dynamic (W)", "Clock (W)", "Leakage (W)", "Total (W)", "vs planar")
	for _, b := range []*power.Breakdown{f.Planar, f.NoTH, f.TH} {
		t.AddRow(b.Config,
			fmt.Sprintf("%.1f", b.DynamicW),
			fmt.Sprintf("%.1f", b.ClockW),
			fmt.Sprintf("%.1f", b.LeakageW),
			fmt.Sprintf("%.1f", b.TotalW),
			fmt.Sprintf("%+.1f%%", -100*b.Saving(f.Planar)))
	}
	return t
}

// Figure10Result holds the thermal analysis of Figure 10.
type Figure10Result struct {
	// Worst-case peaks per configuration with the responsible workload
	// and hotspot block (panels a-c).
	Worst map[string]ThermalPoint
	// SameApp holds the three configurations running one common
	// application (panels d-f), including the ROB comparison the paper
	// highlights.
	SameApp     map[string]ThermalPoint
	SameAppName string
	// ROBPeak per config for the same app: the paper observes the 3D
	// TH ROB running cooler than planar.
	ROBPeak map[string]float64
}

// ThermalPoint is one solved configuration.
type ThermalPoint struct {
	Workload string
	PeakK    float64
	Hotspot  string // block name of the hottest unit
	TotalW   float64
}

// figure10Configs are the three Figure 10 machines.
func figure10Configs() []config.Machine {
	return []config.Machine{config.Baseline(), config.ThreeDNoTH(), config.ThreeD()}
}

// Figure10 finds, for each configuration, the workload inducing the
// worst-case temperature (the paper scans all 106 traces; power is a
// cheap proxy ordering, so we solve the thermal stack for the top
// candidates by total power and take the hottest).
func Figure10(r *Runner, sameApp string) (*Figure10Result, error) {
	res := &Figure10Result{
		Worst:       map[string]ThermalPoint{},
		SameApp:     map[string]ThermalPoint{},
		SameAppName: sameApp,
		ROBPeak:     map[string]float64{},
	}
	workloads := AllWorkloadNames()
	for _, cfg := range figure10Configs() {
		if err := r.SimulateMany([]config.Machine{cfg}, workloads); err != nil {
			return nil, err
		}
		// Rank workloads by total power; thermal-solve the top few.
		type cand struct {
			wl string
			b  *power.Breakdown
		}
		var cands []cand
		for _, wl := range workloads {
			b, err := r.PowerFor(cfg, wl)
			if err != nil {
				return nil, err
			}
			cands = append(cands, cand{wl, b})
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i].b.TotalW > cands[j].b.TotalW })
		const topK = 5
		best := ThermalPoint{PeakK: -1}
		for i := 0; i < topK && i < len(cands); i++ {
			pt, err := r.solvePoint(cfg, cands[i].wl, cands[i].b)
			if err != nil {
				return nil, err
			}
			if pt.PeakK > best.PeakK {
				best = pt
			}
		}
		res.Worst[cfg.Name] = best
	}

	// Panels d-f: one common application across the three configs.
	for _, cfg := range figure10Configs() {
		b, err := r.PowerFor(cfg, sameApp)
		if err != nil {
			return nil, err
		}
		pt, err := r.solvePoint(cfg, sameApp, b)
		if err != nil {
			return nil, err
		}
		res.SameApp[cfg.Name] = pt

		sol, fp, err := r.SolveThermal(cfg, b)
		if err != nil {
			return nil, err
		}
		// ROB peak over all die instances holding it (die 0 carries the
		// most activity under herding; planar has only die 0).
		peak := 0.0
		for d := 0; d < fp.NumDies; d++ {
			if u, ok := fp.Find(floorplan.BlkROB, 0, d); ok {
				if v := thermal.PeakOfUnit(sol, fp, u); v > peak {
					peak = v
				}
			}
		}
		res.ROBPeak[cfg.Name] = peak
	}
	return res, nil
}

func (r *Runner) solvePoint(cfg config.Machine, wl string, b *power.Breakdown) (ThermalPoint, error) {
	sol, fp, err := r.SolveThermal(cfg, b)
	if err != nil {
		return ThermalPoint{}, err
	}
	u, peak, ok := thermal.HottestUnit(sol, fp)
	hot := "(unattributed)"
	if ok {
		hot = u.Block.String()
	}
	return ThermalPoint{Workload: wl, PeakK: peak, Hotspot: hot, TotalW: b.TotalW}, nil
}

// Render prints the Figure 10 worst-case summary.
func (f *Figure10Result) Render() *stats.Table {
	t := stats.NewTable("Configuration", "Worst workload", "Peak (K)", "Hotspot", "Power (W)")
	for _, name := range []string{"Base", "3D-noTH", "3D"} {
		p := f.Worst[name]
		t.AddRow(name, p.Workload, fmt.Sprintf("%.1f", p.PeakK), p.Hotspot, fmt.Sprintf("%.1f", p.TotalW))
	}
	return t
}

// DensityStudy reproduces the Section 5.3 experiment: the planar
// processor's power map (90 W at 2.66 GHz) forced into the 3D stack,
// quadrupling power density. Returns the planar peak and the
// density-experiment peak.
func DensityStudy(r *Runner, workload string) (planarPeakK, densityPeakK float64, err error) {
	base, err := r.PowerFor(config.Baseline(), workload)
	if err != nil {
		return 0, 0, err
	}
	sol, _, err := r.SolveThermal(config.Baseline(), base)
	if err != nil {
		return 0, 0, err
	}
	planarPeakK, _, _, _ = sol.Peak()

	sfp := floorplan.Stacked() // the density target, whatever the machine
	stack, err := thermal.Build(sfp, power.DensityStudyMap(base, sfp), r.opts.Grid, r.opts.Grid)
	if err != nil {
		return 0, 0, err
	}
	dsol, err := stack.Solve()
	if err != nil {
		return 0, 0, err
	}
	densityPeakK, _, _, _ = dsol.Peak()
	return planarPeakK, densityPeakK, nil
}

// WidthAccuracy measures suite-wide width prediction accuracy under the
// 3D configuration (the paper's "97% of all instructions fetched have
// their widths correctly predicted").
func WidthAccuracy(r *Runner) (float64, error) {
	cfg := config.ThreeD()
	workloads := AllWorkloadNames()
	if err := r.SimulateMany([]config.Machine{cfg}, workloads); err != nil {
		return 0, err
	}
	var correctW, totalW float64
	for _, wl := range workloads {
		s, err := r.Simulate(cfg, wl)
		if err != nil {
			return 0, err
		}
		n := float64(s.WidthPredictions)
		correctW += s.WidthAccuracy * n
		totalW += n
	}
	return correctW / totalW, nil
}
