// Command thermsim runs the cycle-level Thermal Herding simulator on one
// workload under one machine configuration and reports performance,
// power, herding, and thermal results.
//
// Usage:
//
//	thermsim -workload mpeg2enc -config 3D [-ff 6000000] [-warm 200000]
//	         [-measure 200000] [-thermal] [-map]
//
// Configurations: Base, TH, Pipe, Fast, 3D, 3D-noTH.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"thermalherd/internal/config"
	"thermalherd/internal/cpu"
	"thermalherd/internal/floorplan"
	"thermalherd/internal/power"
	"thermalherd/internal/thermal"
	"thermalherd/internal/trace"
)

func main() {
	var (
		workload  = flag.String("workload", "mpeg2enc", "workload name (see cmd/benchgen -list)")
		cfgName   = flag.String("config", "3D", "machine configuration: Base, TH, Pipe, Fast, 3D, 3D-noTH")
		ff        = flag.Uint64("ff", 6_000_000, "fast-forward instructions (functional warming)")
		warm      = flag.Uint64("warm", 200_000, "cycle-level warmup instructions")
		measure   = flag.Uint64("measure", 200_000, "measured instructions")
		doThermal = flag.Bool("thermal", false, "also run the power and thermal models")
		doMap     = flag.Bool("map", false, "print ASCII heat maps (implies -thermal)")
	)
	flag.Parse()
	if *doMap {
		*doThermal = true
	}
	if err := run(os.Stdout, *workload, *cfgName, *ff, *warm, *measure, *doThermal, *doMap); err != nil {
		fmt.Fprintln(os.Stderr, "thermsim:", err)
		os.Exit(1)
	}
}

// run simulates workload on the named configuration and writes the
// report to w.
func run(w io.Writer, workload, cfgName string, ff, warm, measure uint64, doThermal, doMap bool) error {
	prof, err := trace.ProfileByName(workload)
	if err != nil {
		return err
	}
	cfg, err := config.ByName(cfgName)
	if err != nil {
		return err
	}
	c, err := cpu.New(cfg, trace.NewGenerator(prof))
	if err != nil {
		return err
	}
	c.FastForward(ff)
	c.Warmup(warm)
	s := c.Run(measure)

	fmt.Fprintf(w, "workload %s (%s) on %s @ %.2f GHz\n", prof.Name, prof.Group, cfg.Name, cfg.ClockGHz)
	fmt.Fprintf(w, "  insts %d  cycles %d  IPC %.3f  IPns %.3f\n", s.Insts, s.Cycles, s.IPC(), s.IPns(cfg.ClockGHz))
	fmt.Fprintf(w, "  branch: count %d  mispredict %.2f%%  dir-acc %.3f  BTB hit %.3f\n",
		s.BranchCount, 100*float64(s.BranchMispred)/float64(max(s.BranchCount, 1)),
		s.DirAccuracy, s.BTBHitRate)
	fmt.Fprintf(w, "  memory: L1D miss %.3f  L2 miss %.3f  DRAM accesses %d\n",
		s.L1DMissRate, s.L2MissRate, s.DRAMAccesses)
	if cfg.ThermalHerding {
		fmt.Fprintf(w, "  width:  accuracy %.3f  unsafe %.4f  RF stalls %d  ALU stalls %d  re-exec %d  D$ unsafe %d\n",
			s.WidthAccuracy, s.WidthUnsafeRate, s.RFGroupStalls, s.ALUInputStalls, s.ALUReexecutes, s.DCacheUnsafe)
		fmt.Fprintf(w, "  herd:   PAM hit %.3f  RS top-die %.3f  bcast dies %.2f  PV low %.3f (zeros-only %.3f)\n",
			s.PAMHitRate, s.RSTopDieShare, s.MeanBroadcastDie, s.PV.LowFraction(), s.PV.ZeroOnlyFraction())
		fmt.Fprintf(w, "  intexec top-die share %.3f  dcache top-die share %.3f\n",
			s.BlockDie[floorplan.BlkIntExec].TopDieShare(),
			s.BlockDie[floorplan.BlkDCache].TopDieShare())
	}

	if !doThermal {
		return nil
	}
	fp := power.FloorplanFor(cfg)
	b, err := power.Compute(cfg, s, fp)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  power:  dynamic %.1f W  clock %.1f W  leakage %.1f W  total %.1f W\n",
		b.DynamicW, b.ClockW, b.LeakageW, b.TotalW)

	stack, err := thermal.Build(fp, b.Watts, thermal.DefaultGrid, thermal.DefaultGrid)
	if err != nil {
		return err
	}
	sol, err := stack.Solve()
	if err != nil {
		return err
	}
	peak, layer, _, _ := sol.Peak()
	u, _, ok := thermal.HottestUnit(sol, fp)
	hot := "?"
	if ok {
		hot = fmt.Sprintf("%v (core %d, die %d)", u.Block, u.Core, u.Die)
	}
	fmt.Fprintf(w, "  thermal: peak %.1f K in layer %s, hotspot %s\n", peak, stack.Layers[layer].Name, hot)
	if doMap {
		lo := thermal.AmbientK
		for d := 0; d < fp.NumDies; d++ {
			fmt.Fprintln(w, sol.RenderLayer(thermal.DieLayerIndex(d), lo, peak))
		}
	}
	return nil
}
