// Command loadtest shows how to use internal/loadgen as a library: it
// hosts an in-process daemon (a one-node internal/herd), synthesizes a
// Poisson arrival schedule, drives it through the open-loop runner, and
// prints the report summary plus a few fields pulled straight off the
// Report struct.
// Command thermload wraps this same flow behind flags; reach for the
// library when a benchmark needs programmatic control over the
// schedule or the mix.
//
//	go run ./examples/loadtest
package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"thermalherd/internal/herd"
	"thermalherd/internal/loadgen"
	"thermalherd/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "loadtest:", err)
		os.Exit(1)
	}
}

func run() error {
	// Host a daemon in-process on a loopback port: a one-node herd.
	h, err := herd.Start(herd.Config{
		Nodes:  1,
		Server: server.Config{Workers: runtime.NumCPU(), QueueDepth: 512, CacheSize: 512},
	})
	if err != nil {
		return err
	}
	defer h.Stop()
	fmt.Println("daemon listening at", h.URL)

	// A deterministic Poisson schedule: same config + seed always
	// yields the same arrival offsets.
	sched, err := loadgen.Synthesize(loadgen.ScheduleConfig{
		Mode:     loadgen.ModePoisson,
		RPS:      40,
		Duration: 3 * time.Second,
		Seed:     7,
	})
	if err != nil {
		return err
	}
	fmt.Printf("schedule: %d arrivals, sha256 %s\n", len(sched), loadgen.ScheduleSHA256(sched)[:12])

	// A custom mix: mostly uniform timing jobs, with a pinned thermal
	// job mixed in. Depths keep each simulation in the milliseconds.
	mix := loadgen.Mix{Entries: []loadgen.MixEntry{
		{Kind: "timing", Weight: 4, Depths: server.Depths{FastForward: 4000, Warmup: 1000, Measure: 2000}},
		{Kind: "thermal", Workload: "mcf", Config: "TH", Weight: 1,
			Depths: server.Depths{FastForward: 4000, Warmup: 1000, Measure: 2000}},
	}}
	specs, err := mix.SampleSpecs(len(sched), 7)
	if err != nil {
		return err
	}

	rep, err := loadgen.Run(context.Background(), loadgen.RunConfig{
		Client:       loadgen.NewClient(h.URL, 3, 50*time.Millisecond, 1),
		Schedule:     sched,
		Specs:        specs,
		MaxInFlight:  128,
		Timeout:      20 * time.Second,
		PollInterval: 5 * time.Millisecond,
		BatchSize:    8,
		SLO:          loadgen.SLO{P95: 2 * time.Second, P99: 5 * time.Second, MaxErrorRate: 0.01},
		Mode:         loadgen.ModePoisson,
		Seed:         7,
	})
	if err != nil {
		return err
	}

	fmt.Print(rep.Summary())
	fmt.Printf("cache hit rate %.2f, %d submit requests for %d arrivals (batch 8)\n",
		rep.CacheHitRate, rep.Achieved.SubmitHTTPRequests, rep.Offered.Arrivals)
	if !rep.SLO.Pass {
		return fmt.Errorf("SLO failed: %v", rep.SLO.Violations)
	}
	return nil
}
