package server

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime/debug"

	"thermalherd/internal/config"
	"thermalherd/internal/cpu"
	"thermalherd/internal/experiments"
	"thermalherd/internal/thermal"
	"thermalherd/internal/trace"
)

// progressFunc reports completed vs. total units of work.
type progressFunc func(completed, total int)

// execJob invokes the executor for one job with panic containment:
// a panicking executor (organic, or injected through the FaultExec
// point — which fires first, so injected panics exercise this exact
// recovery path) is converted into an error carrying the panic value
// and stack, and panicked is reported so the caller can attribute the
// failure. The daemon survives either way.
func (s *Server) execJob(ctx context.Context, j *job) (res json.RawMessage, err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
			panicked = true
		}
	}()
	if ferr := s.faults.Fire(FaultExec); ferr != nil {
		return nil, ferr, false
	}
	res, err = s.exec(ctx, j.spec, j.setProgress)
	return res, err, false
}

// totalUnits estimates a spec's unit count (workload simulations, plus
// one closing unit for post-processing) so progress has a stable
// denominator.
func totalUnits(spec Spec) int {
	n := trace.SuiteSize
	switch spec.Kind {
	case KindTiming:
		return 1
	case KindThermal:
		return 2 // simulate + thermal solve
	case KindExperiment:
		switch spec.Section {
		case "table1", "table2":
			return 1
		case "fig8":
			return len(config.AllConfigs()) * n
		case "fig9":
			// mpeg2enc on three machines plus the suite on Base and 3D.
			return 3 + 2*n
		case "fig10":
			return 3 * n
		case "density":
			return 2
		case "width":
			return n
		}
	}
	return 1
}

// runSpec executes one normalized spec, reporting progress through
// report. It is the worker pool's default executor; tests substitute
// their own. Each job gets its own runner over the server's shared
// simulation memo. Cancellation is observed by the runner between
// simulation phases, surfacing as ctx.Err().
func (s *Server) runSpec(ctx context.Context, spec Spec, report progressFunc) (json.RawMessage, error) {
	opts, err := spec.Depths.options()
	if err != nil {
		return nil, err
	}
	total := totalUnits(spec)
	done := 0
	opts.OnSimulated = func(string, string) {
		done++
		if done <= total {
			report(done, total)
		}
	}
	report(0, total)
	r := experiments.NewRunner(opts)
	r.SetContext(ctx)
	r.SetMemo(s.memo)

	switch spec.Kind {
	case KindTiming:
		return runTiming(r, spec)
	case KindThermal:
		return runThermal(r, spec, report, total)
	case KindExperiment:
		return runExperiment(r, spec)
	}
	return nil, fmt.Errorf("unknown job kind %q", spec.Kind)
}

// timingResult is the JSON result of a timing job.
type timingResult struct {
	Workload string     `json:"workload"`
	Config   string     `json:"config"`
	ClockGHz float64    `json:"clock_ghz"`
	IPC      float64    `json:"ipc"`
	IPns     float64    `json:"ipns"`
	Stats    *cpu.Stats `json:"stats"`
}

func runTiming(r *experiments.Runner, spec Spec) (json.RawMessage, error) {
	cfg, err := config.ByName(spec.Config)
	if err != nil {
		return nil, err
	}
	s, err := r.Simulate(cfg, spec.Workload)
	if err != nil {
		return nil, err
	}
	return json.Marshal(timingResult{
		Workload: spec.Workload,
		Config:   cfg.Name,
		ClockGHz: cfg.ClockGHz,
		IPC:      s.IPC(),
		IPns:     s.IPns(cfg.ClockGHz),
		Stats:    s,
	})
}

// thermalResult is the JSON result of a thermal job.
type thermalResult struct {
	Workload string  `json:"workload"`
	Config   string  `json:"config"`
	IPC      float64 `json:"ipc"`
	DynamicW float64 `json:"dynamic_w"`
	ClockW   float64 `json:"clock_w"`
	LeakageW float64 `json:"leakage_w"`
	TotalW   float64 `json:"total_w"`
	PeakK    float64 `json:"peak_k"`
	Hotspot  string  `json:"hotspot,omitempty"`
	HotspotK float64 `json:"hotspot_k,omitempty"`
}

func runThermal(r *experiments.Runner, spec Spec, report progressFunc, total int) (json.RawMessage, error) {
	cfg, err := config.ByName(spec.Config)
	if err != nil {
		return nil, err
	}
	s, err := r.Simulate(cfg, spec.Workload)
	if err != nil {
		return nil, err
	}
	b, err := experiments.PowerOf(cfg, spec.Workload, s)
	if err != nil {
		return nil, err
	}
	sol, fp, err := r.SolveThermal(cfg, b)
	if err != nil {
		return nil, err
	}
	report(total, total)
	res := thermalResult{
		Workload: spec.Workload,
		Config:   cfg.Name,
		IPC:      s.IPC(),
		DynamicW: b.DynamicW,
		ClockW:   b.ClockW,
		LeakageW: b.LeakageW,
		TotalW:   b.TotalW,
	}
	res.PeakK, _, _, _ = sol.Peak()
	if u, t, ok := thermal.HottestUnit(sol, fp); ok {
		res.Hotspot = u.Block.String()
		res.HotspotK = t
	}
	return json.Marshal(res)
}

// experimentResult is the JSON result of an experiment job: the
// section's rendered text plus section-specific numbers.
type experimentResult struct {
	Section string             `json:"section"`
	Text    string             `json:"text"`
	Values  map[string]float64 `json:"values,omitempty"`
}

func runExperiment(r *experiments.Runner, spec Spec) (json.RawMessage, error) {
	res := experimentResult{Section: spec.Section, Values: map[string]float64{}}
	switch spec.Section {
	case "table1":
		res.Text = experiments.Table1().String()
	case "table2":
		res.Text = experiments.Table2().String()
	case "fig8":
		f, err := experiments.Figure8(r)
		if err != nil {
			return nil, err
		}
		res.Text = f.Render("speedup").String()
		for cfg, v := range f.MoMSpeedup {
			res.Values["mom_speedup_"+cfg] = v
		}
	case "fig9":
		f, err := experiments.Figure9(r)
		if err != nil {
			return nil, err
		}
		res.Text = f.Render().String()
		res.Values["planar_w"] = f.Planar.TotalW
		res.Values["3d_noth_w"] = f.NoTH.TotalW
		res.Values["3d_th_w"] = f.TH.TotalW
		res.Values["min_saving"] = f.MinSaving
		res.Values["max_saving"] = f.MaxSaving
	case "fig10":
		f, err := experiments.Figure10(r, spec.Workload)
		if err != nil {
			return nil, err
		}
		res.Text = f.Render().String()
		for cfg, p := range f.Worst {
			res.Values["worst_peak_k_"+cfg] = p.PeakK
		}
	case "density":
		planar, density, err := experiments.DensityStudy(r, "mpeg2enc")
		if err != nil {
			return nil, err
		}
		res.Text = fmt.Sprintf("planar peak %.1f K -> 4x-density stack peak %.1f K (+%.1f K)\n",
			planar, density, density-planar)
		res.Values["planar_peak_k"] = planar
		res.Values["density_peak_k"] = density
	case "width":
		wa, err := experiments.WidthAccuracy(r)
		if err != nil {
			return nil, err
		}
		res.Text = fmt.Sprintf("suite-wide width prediction accuracy: %.1f%%\n", 100*wa)
		res.Values["width_accuracy"] = wa
	default:
		return nil, fmt.Errorf("unknown experiment section %q", spec.Section)
	}
	return json.Marshal(res)
}
