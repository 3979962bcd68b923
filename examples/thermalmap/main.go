// Thermalmap renders ASCII heat maps of the four die of the 3D
// processor running a memory-intensive workload, with and without
// Thermal Herding, visualizing how herding pulls heat toward the top
// die (the one drawn first, adjacent to the heat sink).
//
// Run with: go run ./examples/thermalmap
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
	const workload = "yacr2" // the paper's TH worst-case thermal app
	prof, err := trace.ProfileByName(workload)
	if err != nil {
		log.Fatal(err)
	}

	for _, cfg := range []config.Machine{config.ThreeDNoTH(), config.ThreeD()} {
		core, err := cpu.New(cfg, trace.NewGenerator(prof))
		if err != nil {
			log.Fatal(err)
		}
		core.FastForward(2_000_000)
		core.Warmup(100_000)
		stats := core.Run(150_000)

		fp := power.FloorplanFor(cfg)
		breakdown, err := power.Compute(cfg, stats, fp)
		if err != nil {
			log.Fatal(err)
		}
		stack, err := thermal.Build(fp, breakdown.Watts, 32, 32)
		if err != nil {
			log.Fatal(err)
		}
		sol, err := stack.Solve()
		if err != nil {
			log.Fatal(err)
		}
		peak, _, _, _ := sol.Peak()
		hotU, _, _ := thermal.HottestUnit(sol, fp)

		fmt.Printf("==== %s on %s: %.1f W, peak %.1f K (hotspot %v, die %d) ====\n",
			cfg.Name, workload, breakdown.TotalW, peak, hotU.Block, hotU.Die)
		for d := 0; d < 4; d++ {
			fmt.Printf("-- die %d (peak %.1f K) --\n", d, sol.PeakOfLayer(thermal.DieLayerIndex(d)))
			fmt.Println(sol.RenderLayer(thermal.DieLayerIndex(d), thermal.AmbientK, peak))
		}
	}
}
