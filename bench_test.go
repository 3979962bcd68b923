package thermalherd

// One benchmark per table and figure of the paper's evaluation section.
// Each benchmark regenerates its result and reports the headline numbers
// as benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper end to end. Simulation depth follows
// experiments.DefaultOptions unless THERMALHERD_FF / THERMALHERD_WARM /
// THERMALHERD_MEASURE are set; the benchmarks share one cached runner, so
// later figures reuse the simulations of earlier ones.

import (
	"sync"
	"testing"

	"thermalherd/internal/circuit"
	"thermalherd/internal/config"
	"thermalherd/internal/core"
	"thermalherd/internal/cpu"
	"thermalherd/internal/experiments"
	"thermalherd/internal/floorplan"
	"thermalherd/internal/power"
	"thermalherd/internal/thermal"
	"thermalherd/internal/trace"
)

var (
	runnerOnce sync.Once
	sharedR    *experiments.Runner
)

func runner() *experiments.Runner {
	runnerOnce.Do(func() {
		sharedR = experiments.NewRunner(experiments.DefaultOptions())
	})
	return sharedR
}

// BenchmarkTable1Config regenerates Table 1 (machine parameters).
func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table1().String() == "" {
			b.Fatal("empty Table 1")
		}
	}
}

// BenchmarkTable2Latencies regenerates Table 2 and reports the derived
// clock frequencies (paper: 2.66 GHz -> 3.93 GHz, +47.9%).
func BenchmarkTable2Latencies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table2().String() == "" {
			b.Fatal("empty Table 2")
		}
	}
	b.ReportMetric(circuit.ClockGHz2D(), "GHz-2D")
	b.ReportMetric(circuit.ClockGHz3D(), "GHz-3D")
	b.ReportMetric(100*circuit.FrequencyGain(), "%freq-gain")
}

// BenchmarkFigure8IPC regenerates Figure 8(a): per-group IPC for the
// five configurations.
func BenchmarkFigure8IPC(b *testing.B) {
	r := runner()
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure8(r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.MoMIPC["Base"], "ipc-base")
		b.ReportMetric(f.MoMIPC["3D"], "ipc-3d")
	}
}

// BenchmarkFigure8IPns regenerates Figure 8(b): instructions per
// nanosecond.
func BenchmarkFigure8IPns(b *testing.B) {
	r := runner()
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure8(r)
		if err != nil {
			b.Fatal(err)
		}
		var baseSum, threeDSum float64
		for _, g := range f.Groups {
			baseSum += f.IPns[g]["Base"]
			threeDSum += f.IPns[g]["3D"]
		}
		b.ReportMetric(baseSum/float64(len(f.Groups)), "ipns-base")
		b.ReportMetric(threeDSum/float64(len(f.Groups)), "ipns-3d")
	}
}

// BenchmarkFigure8Speedup regenerates Figure 8(c) and reports the
// paper's headline speedups (paper: mean +47.0%, min +7%, max +77%).
func BenchmarkFigure8Speedup(b *testing.B) {
	r := runner()
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure8(r)
		if err != nil {
			b.Fatal(err)
		}
		_, minV, _, maxV := f.MinMaxSpeedup()
		b.ReportMetric(100*(f.MoMSpeedup["3D"]-1), "%mean-speedup")
		b.ReportMetric(100*(minV-1), "%min-speedup")
		b.ReportMetric(100*(maxV-1), "%max-speedup")
	}
}

// BenchmarkFigure9Power regenerates Figure 9 (paper: 90 W planar,
// 72.7 W 3D, 64.3 W 3D+TH; savings 15..30%).
func BenchmarkFigure9Power(b *testing.B) {
	r := runner()
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure9(r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.Planar.TotalW, "W-planar")
		b.ReportMetric(f.NoTH.TotalW, "W-3d")
		b.ReportMetric(f.TH.TotalW, "W-3d-th")
		b.ReportMetric(100*f.MinSaving, "%min-saving")
		b.ReportMetric(100*f.MaxSaving, "%max-saving")
	}
}

// BenchmarkFigure10Thermal regenerates Figure 10(a-c): worst-case peak
// temperatures (paper: 360 K planar, 377 K 3D, 372 K 3D+TH).
func BenchmarkFigure10Thermal(b *testing.B) {
	r := runner()
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure10(r, "mpeg2enc")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.Worst["Base"].PeakK, "K-planar")
		b.ReportMetric(f.Worst["3D-noTH"].PeakK, "K-3d")
		b.ReportMetric(f.Worst["3D"].PeakK, "K-3d-th")
	}
}

// BenchmarkFigure10SameApp regenerates Figure 10(d-f): the three
// configurations running the same application, including the ROB
// comparison (paper: the herded 3D ROB runs ~5 K cooler than planar).
func BenchmarkFigure10SameApp(b *testing.B) {
	r := runner()
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure10(r, "mpeg2enc")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.SameApp["Base"].PeakK, "K-planar")
		b.ReportMetric(f.SameApp["3D"].PeakK, "K-3d-th")
		b.ReportMetric(f.ROBPeak["3D"]-f.ROBPeak["Base"], "K-rob-delta")
	}
}

// BenchmarkDensityStudy regenerates the Section 5.3 experiment (paper:
// the planar 90 W forced into the stack reaches 418 K, +58 K).
func BenchmarkDensityStudy(b *testing.B) {
	r := runner()
	for i := 0; i < b.N; i++ {
		planar, density, err := experiments.DensityStudy(r, "mpeg2enc")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(planar, "K-planar")
		b.ReportMetric(density, "K-4x-density")
	}
}

// BenchmarkWidthPredictionAccuracy measures the suite-wide width
// prediction accuracy (paper: 97%).
func BenchmarkWidthPredictionAccuracy(b *testing.B) {
	r := runner()
	for i := 0; i < b.N; i++ {
		wa, err := experiments.WidthAccuracy(r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*wa, "%width-accuracy")
	}
}

// BenchmarkAblationWidthPolicy runs the width-prediction policy
// ablation.
func BenchmarkAblationWidthPolicy(b *testing.B) {
	r := runner()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationWidthPolicy(r, "mpeg2enc"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAllocator runs the scheduler-allocation ablation.
func BenchmarkAblationAllocator(b *testing.B) {
	r := runner()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationAllocator(r, "mpeg2enc"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Microbenchmarks of the core mechanisms themselves ---

// BenchmarkWidthPredictor measures raw width predictor throughput.
func BenchmarkWidthPredictor(b *testing.B) {
	p := core.NewWidthPredictor(16384)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pc := uint64(0x1000 + 4*(i%4096))
		pred := p.Predict(pc)
		p.Resolve(pc, pred, i%8 != 0)
	}
}

// BenchmarkGeneratorThroughput measures synthetic-stream generation
// speed.
func BenchmarkGeneratorThroughput(b *testing.B) {
	prof, err := trace.ProfileByName("gzip")
	if err != nil {
		b.Fatal(err)
	}
	g := trace.NewGenerator(prof)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

// BenchmarkNewGenerator measures building one generator per op,
// cycling through the suite: the static-program synthesis every
// simulation job pays before its first instruction.
func BenchmarkNewGenerator(b *testing.B) {
	suite := trace.Suite()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		trace.NewGenerator(suite[i%len(suite)])
	}
}

// BenchmarkSimulatorThroughput measures cycle-level simulation speed
// (100k instructions per op, from a cold core) and reports it per
// committed instruction.
func BenchmarkSimulatorThroughput(b *testing.B) {
	prof, err := trace.ProfileByName("gzip")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var insts uint64
	for i := 0; i < b.N; i++ {
		c, err := cpu.New(config.ThreeD(), trace.NewGenerator(prof))
		if err != nil {
			b.Fatal(err)
		}
		s := c.Run(100_000)
		if s.Insts == 0 {
			b.Fatal("no instructions committed")
		}
		insts += s.Insts
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/inst")
}

// --- Extension studies beyond the paper's figures ---

// BenchmarkPerfToPower sweeps the 3D clock to convert performance gains
// into power/temperature reductions (the Black et al. observation the
// paper cites in Section 5.3).
func BenchmarkPerfToPower(b *testing.B) {
	r := runner()
	for i := 0; i < b.N; i++ {
		points, ref, err := experiments.PerfToPower(r, "susan_s", 4)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ref.TotalW, "W-planar")
		b.ReportMetric(points[0].TotalW, "W-3d-at-base-clock")
	}
}

// BenchmarkMixedPair measures a heterogeneous two-core pairing.
func BenchmarkMixedPair(b *testing.B) {
	r := runner()
	for i := 0; i < b.N; i++ {
		res, err := experiments.MixedPair(r, config.ThreeD(), "susan_s", "yacr2")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.TotalW, "W")
		b.ReportMetric(res.PeakK, "K")
	}
}

// BenchmarkValueWidthCensus regenerates the Section 3 value-width
// premise table.
func BenchmarkValueWidthCensus(b *testing.B) {
	r := runner()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ValueWidthCensus(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThermalTransient measures hotspot formation after workload
// onset on the 3D design.
func BenchmarkThermalTransient(b *testing.B) {
	r := runner()
	for i := 0; i < b.N; i++ {
		tr, err := experiments.ThermalTransient(r, "mpeg2enc", 20.0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(tr.PeakK[len(tr.PeakK)-1], "K-final")
		b.ReportMetric(tr.TimeToWithin(1.0), "s-settle")
	}
}

// BenchmarkThermalSolver measures raw steady-state solver speed on the
// planar and the 4-die stack at the harness grid, and on the stack at
// grid 64, with a non-uniform power map (every unit a different
// density).
func BenchmarkThermalSolver(b *testing.B) {
	for _, c := range []struct {
		name string
		fp   *floorplan.Floorplan
		grid int
	}{
		{"planar", power.FloorplanFor(config.Baseline()), thermal.DefaultGrid},
		{"stacked", power.FloorplanFor(config.ThreeD()), thermal.DefaultGrid},
		{"stacked64", power.FloorplanFor(config.ThreeD()), 64},
	} {
		b.Run(c.name, func(b *testing.B) {
			var area float64
			for _, u := range c.fp.Units {
				area += u.Area()
			}
			// Densities vary from 0.5x to 1.5x the mean with the unit's
			// position in the floorplan.
			density := map[floorplan.Unit]float64{}
			for i, u := range c.fp.Units {
				density[u] = 0.5 + float64(i*7%len(c.fp.Units))/float64(len(c.fp.Units))
			}
			watts := func(u floorplan.Unit) float64 { return 60 * density[u] * u.Area() / area }
			stack, err := thermal.Build(c.fp, watts, c.grid, c.grid)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := stack.Solve(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCoreNew measures building one 3D-configuration core: the
// fixed cost every simulation job pays before its first instruction.
func BenchmarkCoreNew(b *testing.B) {
	prof, err := trace.ProfileByName("gzip")
	if err != nil {
		b.Fatal(err)
	}
	src := trace.NewGenerator(prof) // New reads nothing from it
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cpu.New(config.ThreeD(), src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThermalJob measures one small thermal job per op, shaped
// like the benchmark's solve-heavy jobs: a simulation at FF 4500,
// warm-up 1000 and measure 2000 instructions in a fresh Runner, its
// power breakdown, and a grid-32 thermal solve. Ops cycle through every
// workload under every configuration. B/op is what one such job
// allocates.
func BenchmarkThermalJob(b *testing.B) {
	opts := experiments.Options{
		FastForwardInsts: 4500, WarmupInsts: 1000, MeasureInsts: 2000,
		Parallelism: 1, Grid: thermal.DefaultGrid,
	}
	wls, cfgs := experiments.AllWorkloadNames(), config.Registry()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg, wl := cfgs[i%len(cfgs)], wls[i/len(cfgs)%len(wls)]
		r := experiments.NewRunner(opts)
		s, err := r.Simulate(cfg, wl)
		if err != nil {
			b.Fatal(err)
		}
		p, err := experiments.PowerOf(cfg, wl, s)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := r.SolveThermal(cfg, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLeakageFeedback iterates power and thermal models to the
// temperature-dependent-leakage fixpoint.
func BenchmarkLeakageFeedback(b *testing.B) {
	r := runner()
	for i := 0; i < b.N; i++ {
		res, err := experiments.LeakageFeedback(r, config.ThreeD(), "mpeg2enc")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.PeakK, "K-with-feedback")
	}
}
