package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand/v2"
	"time"

	"thermalherd/internal/config"
	"thermalherd/internal/experiments"
	"thermalherd/internal/server"
	"thermalherd/internal/trace"
)

// Job is one generated submission. Repeat is the index of the earlier
// job whose simulation this one repeats (-1 when it repeats none): a
// sim-heavy thermal job re-simulates an earlier timing job's
// (workload, config, depths), a herd-durable repeat resubmits an
// earlier spec outright so the result cache answers it.
type Job struct {
	Spec   server.Spec   `json:"spec"`
	Due    time.Duration `json:"due_ns"`
	Repeat int           `json:"repeat"`
}

// Workload is one benchmark traffic mix and the daemons it runs against.
type Workload struct {
	Name string
	Why  string

	// Open selects an open loop at Rate arrivals per second; otherwise
	// nproc clients run a closed loop.
	Open bool
	Rate float64

	// Herd runs Backends journaled daemons (fsync always, sync
	// replication) behind a hedging gateway; otherwise one daemon with
	// no journal.
	Herd     bool
	Backends int

	// Poll is the client's status-poll interval.
	Poll time.Duration
	// TailQ is the tail percentile reported as job_tail_ms: the highest
	// of p90/p95/p99 with at least ten samples beyond it at the job
	// count a run of the configured length reaches.
	TailQ float64
	// ReplayCap bounds how many distinct simulations the traced run
	// replays through the layers (the first ones in list order).
	ReplayCap int

	// Gen returns the job list for a seed; Space lists every spec Gen
	// can emit for any seed (the golden results cover exactly these).
	Gen   func(seed uint64) []Job
	Space func() []server.Spec
}

// Simulation depths of each workload's jobs.
var (
	// The fast-forward depths widen each spec space so a run of the
	// configured length uses a tenth or less of its job list: a program
	// ten times faster still finds fresh jobs.
	simHeavyFF      = []uint64{300_000, 305_000, 310_000} // quick preset: warm 60k / measure 60k
	simHeavyGrid    = 16
	solveHeavyFF    = []uint64{4000, 4100, 4200, 4300, 4400, 4500, 4600, 4700, 4800, 4900, 5000, 5100}
	solveHeavyWarm  = uint64(1000)
	solveHeavyMeas  = uint64(2000)
	solveHeavyGrid  = 32 // thermal.DefaultGrid
	herdFF          = []uint64{1000, 1100, 1200, 1300}
	herdWarm        = uint64(100)
	herdMeasure     = uint64(300)
	herdRepeatEvery = 5 // one arrival in five repeats a recent spec
)

// herdRate is herd-durable's fixed arrival rate (jobs/s); see the
// capacity sweep recorded in RECORD.md for how it was chosen.
const herdRate = 40

var workloads = []*Workload{
	{
		Name: "sim-heavy",
		Why: "closed loop, 3/4 quick timing + 1/4 grid-16 thermal jobs re-simulating an earlier timing spec; " +
			"the cycle-level core is ~95% of exec, service layers are not",
		Poll: 10 * time.Millisecond, TailQ: 0.90, ReplayCap: 40,
		Gen: genSimHeavy, Space: simHeavySpace,
	},
	{
		Name: "solve-heavy",
		Why: "closed loop of grid-32 thermal jobs with tiny simulations over all 6 configs; " +
			"the SOR solve is ~80% of exec, no simulation repeats",
		Poll: 5 * time.Millisecond, TailQ: 0.95, ReplayCap: 160,
		Gen: genSolveHeavy, Space: solveHeavySpace,
	},
	{
		Name: "herd-durable",
		Why: "open loop at a fixed rate into a hedging gateway over 3 fsync-always journaled backends with sync replication; " +
			"tiny timing jobs, 1 in 5 a cache hit",
		Open: true, Rate: herdRate, Herd: true, Backends: 3,
		Poll: 2 * time.Millisecond, TailQ: 0.95, ReplayCap: 240,
		Gen: genHerdDurable, Space: herdDurableSpace,
	},
}

func workloadByName(name string) *Workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

func newRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x7468_6572_6d68_6472)) // "thermhdr"
}

func configNames() []string {
	var names []string
	for _, m := range config.Registry() {
		names = append(names, m.Name)
	}
	return names
}

// balancedConfigs assigns each workload a base config index so every
// config is used by workloads/configs (±1) workloads, in seeded order.
func balancedConfigs(r *rand.Rand, nWorkloads, nConfigs int) []int {
	base := make([]int, nWorkloads)
	for i := range base {
		base[i] = i % nConfigs
	}
	r.Shuffle(len(base), func(i, j int) { base[i], base[j] = base[j], base[i] })
	return base
}

// pairBlocks emits (workload, config) pairs in blocks: each block visits
// every workload once in seeded order, configs balanced within the
// block, and block b shifts every workload's config by b — so blocks
// 0..nConfigs-1 together cover all pairs exactly once. Any prefix of a
// run is thus a near-identical mix whatever the seed.
func pairBlocks(r *rand.Rand, blocks int, emit func(block int, workload, cfg string)) {
	wls, cfgs := trace.Names(), configNames()
	base := balancedConfigs(r, len(wls), len(cfgs))
	for b := 0; b < blocks; b++ {
		for _, w := range r.Perm(len(wls)) {
			emit(b, wls[w], cfgs[(base[w]+b)%len(cfgs)])
		}
	}
}

func timingSpec(workload, cfg string, d server.Depths) server.Spec {
	return server.Spec{Kind: server.KindTiming, Workload: workload, Config: cfg, Depths: d}
}

func thermalSpec(workload, cfg string, d server.Depths, grid int) server.Spec {
	d.Grid = grid
	return server.Spec{Kind: server.KindThermal, Workload: workload, Config: cfg, Depths: d}
}

func simHeavyDepths(ff uint64) server.Depths {
	return server.Depths{Preset: "quick", FastForward: ff}
}

// genSimHeavy: every (workload, config, fast-forward) triple once as a
// timing job, blocks rotating configs and then stepping the depth; after
// every third timing job comes a thermal job that repeats the simulation
// of a uniformly chosen earlier timing job not yet repeated.
func genSimHeavy(seed uint64) []Job {
	r := newRand(seed)
	var jobs []Job
	var unrepeated []int
	nTiming := 0
	nCfg := len(configNames())
	pairBlocks(r, nCfg*len(simHeavyFF), func(b int, wl, cfg string) {
		jobs = append(jobs, Job{Spec: timingSpec(wl, cfg, simHeavyDepths(simHeavyFF[b/nCfg])), Repeat: -1})
		unrepeated = append(unrepeated, len(jobs)-1)
		if nTiming++; nTiming%3 == 0 {
			k := r.IntN(len(unrepeated))
			src := unrepeated[k]
			unrepeated = append(unrepeated[:k], unrepeated[k+1:]...)
			s := jobs[src].Spec
			jobs = append(jobs, Job{Spec: thermalSpec(s.Workload, s.Config, s.Depths, simHeavyGrid), Repeat: src})
		}
	})
	return jobs
}

func simHeavySpace() []server.Spec {
	var specs []server.Spec
	for _, ff := range simHeavyFF {
		for _, wl := range trace.Names() {
			for _, cfg := range configNames() {
				specs = append(specs, timingSpec(wl, cfg, simHeavyDepths(ff)),
					thermalSpec(wl, cfg, simHeavyDepths(ff), simHeavyGrid))
			}
		}
	}
	return specs
}

func solveHeavyDepths(ff uint64) server.Depths {
	return server.Depths{Preset: "quick", FastForward: ff, Warmup: solveHeavyWarm, Measure: solveHeavyMeas}
}

// genSolveHeavy: every (workload, config, fast-forward) triple once;
// blocks rotate configs and then step the fast-forward depth.
func genSolveHeavy(seed uint64) []Job {
	r := newRand(seed)
	var jobs []Job
	nCfg := len(configNames())
	pairBlocks(r, nCfg*len(solveHeavyFF), func(b int, wl, cfg string) {
		d := solveHeavyDepths(solveHeavyFF[b/nCfg])
		jobs = append(jobs, Job{Spec: thermalSpec(wl, cfg, d, solveHeavyGrid), Repeat: -1})
	})
	return jobs
}

func solveHeavySpace() []server.Spec {
	var specs []server.Spec
	for _, ff := range solveHeavyFF {
		for _, wl := range trace.Names() {
			for _, cfg := range configNames() {
				specs = append(specs, thermalSpec(wl, cfg, solveHeavyDepths(ff), solveHeavyGrid))
			}
		}
	}
	return specs
}

func herdDepths(ff uint64) server.Depths {
	return server.Depths{Preset: "quick", FastForward: ff, Warmup: herdWarm, Measure: herdMeasure}
}

// genHerdDurable: arrivals evenly spaced at herdRate; every fifth one
// repeats the spec of an original arrival 4–23 arrivals back (at least
// 100 ms earlier, long after it settled), the rest are fresh.
func genHerdDurable(seed uint64) []Job {
	r := newRand(seed)
	var jobs []Job
	gap := time.Duration(float64(time.Second) / herdRate)
	add := func(j Job) {
		j.Due = time.Duration(len(jobs)) * gap
		jobs = append(jobs, j)
	}
	nCfg := len(configNames())
	pairBlocks(r, nCfg*len(herdFF), func(b int, wl, cfg string) {
		add(Job{Spec: timingSpec(wl, cfg, herdDepths(herdFF[b/nCfg])), Repeat: -1})
		if len(jobs)%herdRepeatEvery == herdRepeatEvery-1 {
			src := len(jobs) - (herdRepeatEvery - 1) - r.IntN(20)
			if src < 0 {
				src = 0
			}
			if jobs[src].Repeat >= 0 {
				src = jobs[src].Repeat
			}
			add(Job{Spec: jobs[src].Spec, Repeat: src})
		}
	})
	return jobs
}

func herdDurableSpace() []server.Spec {
	var specs []server.Spec
	for _, ff := range herdFF {
		for _, wl := range trace.Names() {
			for _, cfg := range configNames() {
				specs = append(specs, timingSpec(wl, cfg, herdDepths(ff)))
			}
		}
	}
	return specs
}

// inputDigest is the SHA-256 of the job list's canonical JSON lines:
// specs, due times and repeat links in order.
func inputDigest(jobs []Job) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, j := range jobs {
		enc.Encode(j)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// depthOptions resolves a quick-preset Depths the way the daemon does.
func depthOptions(d server.Depths) experiments.Options {
	o := experiments.QuickOptions()
	if d.FastForward > 0 {
		o.FastForwardInsts = d.FastForward
	}
	if d.Warmup > 0 {
		o.WarmupInsts = d.Warmup
	}
	if d.Measure > 0 {
		o.MeasureInsts = d.Measure
	}
	if d.Grid > 0 {
		o.Grid = d.Grid
	}
	return o
}

// simInsts is the instruction count one execution of spec simulates.
func simInsts(s server.Spec) uint64 {
	o := depthOptions(s.Depths)
	return o.FastForwardInsts + o.WarmupInsts + o.MeasureInsts
}
