// Quickstart: simulate one workload on the planar baseline and on the
// Thermal Herding 3D processor, and print the headline comparison —
// performance, power, and peak temperature.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"thermalherd/internal/config"
	"thermalherd/internal/cpu"
	"thermalherd/internal/power"
	"thermalherd/internal/thermal"
	"thermalherd/internal/trace"
)

func main() {
	const workload = "mpeg2enc"
	prof, err := trace.ProfileByName(workload)
	if err != nil {
		log.Fatal(err)
	}

	type result struct {
		ipns  float64
		watts float64
		peakK float64
	}
	results := map[string]result{}

	for _, cfg := range []config.Machine{config.Baseline(), config.ThreeD()} {
		// 1. Simulate: fast-forward to warm state, then measure.
		core, err := cpu.New(cfg, trace.NewGenerator(prof))
		if err != nil {
			log.Fatal(err)
		}
		core.FastForward(2_000_000)
		core.Warmup(100_000)
		stats := core.Run(150_000)

		// 2. Power: activity × per-access energy + clock + leakage.
		fp := power.FloorplanFor(cfg) // planar, or the 4-die stack for 3D
		breakdown, err := power.Compute(cfg, stats, fp)
		if err != nil {
			log.Fatal(err)
		}

		// 3. Thermals: solve the die stack.
		stack, err := thermal.Build(fp, breakdown.Watts, 24, 24)
		if err != nil {
			log.Fatal(err)
		}
		sol, err := stack.Solve()
		if err != nil {
			log.Fatal(err)
		}
		peak, _, _, _ := sol.Peak()

		results[cfg.Name] = result{stats.IPns(cfg.ClockGHz), breakdown.TotalW, peak}
		fmt.Printf("%-5s  %.2f insts/ns   %.1f W   peak %.1f K\n",
			cfg.Name, stats.IPns(cfg.ClockGHz), breakdown.TotalW, peak)
	}

	base, threeD := results["Base"], results["3D"]
	fmt.Printf("\n3D Thermal Herding vs planar on %s:\n", workload)
	fmt.Printf("  performance %+.1f%%   power %+.1f%%   temperature %+.1f K\n",
		100*(threeD.ipns/base.ipns-1),
		100*(threeD.watts/base.watts-1),
		threeD.peakK-base.peakK)
}
