// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5): Table 2's 2D-vs-3D block latencies, Figure 8's
// IPC/performance comparison across the five machine configurations and
// seven benchmark groups, Figure 9's power breakdown, Figure 10's thermal
// analysis, the Section 5.3 power-density study, the Section 3.8 width
// prediction accuracy claim, and the ablation studies DESIGN.md calls
// out.
package experiments

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"

	"thermalherd/internal/config"
	"thermalherd/internal/cpu"
	"thermalherd/internal/floorplan"
	"thermalherd/internal/power"
	"thermalherd/internal/thermal"
	"thermalherd/internal/trace"
)

// Options controls simulation depth and parallelism.
type Options struct {
	// FastForwardInsts are streamed through functional warming (caches,
	// predictors) before the cycle-level warmup — SimpleScalar-style
	// fast-forward.
	FastForwardInsts uint64
	// WarmupInsts are executed through the cycle-level model before
	// measurement to settle pipeline state (SimPoint-style warmup).
	WarmupInsts uint64
	// MeasureInsts are the instructions actually measured.
	MeasureInsts uint64
	// Parallelism bounds concurrent workload simulations.
	Parallelism int
	// Grid is the lateral thermal grid resolution.
	Grid int
	// OnSimulated, when non-nil, is invoked after every workload
	// simulation a Runner completes (cache hits included) with the
	// machine and workload names. The thermherdd daemon uses it to
	// report job progress.
	OnSimulated func(cfg, workload string)
}

// envUint applies the named environment override to *dst. Unset
// variables are ignored silently; set-but-unusable values (unparsable
// or zero) are ignored with a one-line warning on stderr.
func envUint(name string, dst *uint64) {
	s := os.Getenv(name)
	if s == "" {
		return
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil || v == 0 {
		fmt.Fprintf(os.Stderr, "experiments: ignoring %s=%q: want a positive integer\n", name, s)
		return
	}
	*dst = v
}

// DefaultOptions returns the depths used for the recorded results.
// The environment variables THERMALHERD_FF, THERMALHERD_WARM and
// THERMALHERD_MEASURE override the instruction counts for quicker
// exploratory runs, and THERMALHERD_PARALLEL overrides the workload
// parallelism.
func DefaultOptions() Options {
	o := Options{
		FastForwardInsts: 6_000_000,
		WarmupInsts:      200_000,
		MeasureInsts:     200_000,
		Parallelism:      runtime.NumCPU(),
		Grid:             thermal.DefaultGrid,
	}
	envUint("THERMALHERD_FF", &o.FastForwardInsts)
	envUint("THERMALHERD_WARM", &o.WarmupInsts)
	envUint("THERMALHERD_MEASURE", &o.MeasureInsts)
	var par uint64
	envUint("THERMALHERD_PARALLEL", &par)
	if par > 0 {
		o.Parallelism = int(par)
	}
	return o
}

// QuickOptions returns shallow depths for unit tests.
func QuickOptions() Options {
	return Options{
		FastForwardInsts: 300_000,
		WarmupInsts:      60_000,
		MeasureInsts:     60_000,
		Parallelism:      runtime.NumCPU(),
		Grid:             16,
	}
}

// Runner executes and caches workload simulations.
type Runner struct {
	opts  Options
	ctx   context.Context
	memo  *Memo
	mu    sync.Mutex
	cache map[simKey]*cpu.Stats
}

// NewRunner builds a runner with the given options.
func NewRunner(opts Options) *Runner {
	if opts.Parallelism <= 0 {
		opts.Parallelism = 1
	}
	return &Runner{opts: opts, ctx: context.Background(), cache: make(map[simKey]*cpu.Stats)}
}

// Options returns the runner's options.
func (r *Runner) Options() Options { return r.opts }

// SetContext attaches ctx to the runner. Once ctx is canceled,
// simulations abort between pipeline phases (and SimulateMany between
// workloads) returning ctx.Err(). The thermherdd daemon uses this for
// per-job cancellation.
func (r *Runner) SetContext(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	r.ctx = ctx
}

// SetMemo makes the runner consult m when a simulation is not in its
// own cache, and record there the simulations it runs. The thermherdd
// daemon shares one Memo across all of its jobs' runners. Without a
// Memo every simulation stays local to the runner.
func (r *Runner) SetMemo(m *Memo) { r.memo = m }

// simulated reports one finished workload simulation to the optional
// progress callback.
func (r *Runner) simulated(cfg config.Machine, workload string) {
	if r.opts.OnSimulated != nil {
		r.opts.OnSimulated(cfg.Name, workload)
	}
}

// Simulate runs (or returns the cached result of) workload under cfg.
func (r *Runner) Simulate(cfg config.Machine, workload string) (*cpu.Stats, error) {
	key := simKey{cfg, workload, r.opts.FastForwardInsts, r.opts.WarmupInsts, r.opts.MeasureInsts}
	r.mu.Lock()
	s, ok := r.cache[key]
	r.mu.Unlock()
	if !ok {
		st, err := r.memo.simulate(key, func() (cpu.Stats, error) {
			return r.run(cfg, workload)
		})
		if err != nil {
			return nil, err
		}
		s = &st
		r.mu.Lock()
		r.cache[key] = s
		r.mu.Unlock()
	}
	r.simulated(cfg, workload)
	return s, nil
}

// run simulates workload under cfg at the runner's depths. It returns
// a copy of the statistics, since Run's result aliases the core, and
// hands the core and then its generator back for the next simulation
// to reuse, on every path out.
func (r *Runner) run(cfg config.Machine, workload string) (cpu.Stats, error) {
	if err := r.ctx.Err(); err != nil {
		return cpu.Stats{}, err
	}
	prof, err := trace.ProfileByName(workload)
	if err != nil {
		return cpu.Stats{}, err
	}
	g := trace.NewGenerator(prof)
	defer g.Release()
	c, err := cpu.New(cfg, g)
	if err != nil {
		return cpu.Stats{}, err
	}
	defer c.Release()
	c.FastForward(r.opts.FastForwardInsts)
	if err := r.ctx.Err(); err != nil {
		return cpu.Stats{}, err
	}
	c.Warmup(r.opts.WarmupInsts)
	if err := r.ctx.Err(); err != nil {
		return cpu.Stats{}, err
	}
	return *c.Run(r.opts.MeasureInsts), nil
}

// SimulateMany runs all (config, workload) pairs with bounded
// parallelism, returning the first error encountered.
func (r *Runner) SimulateMany(cfgs []config.Machine, workloads []string) error {
	type job struct {
		cfg      config.Machine
		workload string
	}
	jobs := make(chan job)
	errs := make(chan error, r.opts.Parallelism)
	var wg sync.WaitGroup
	for w := 0; w < r.opts.Parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if _, err := r.Simulate(j.cfg, j.workload); err != nil {
					select {
					case errs <- err:
					default:
					}
				}
			}
		}()
	}
feed:
	for _, cfg := range cfgs {
		for _, wl := range workloads {
			if r.ctx.Err() != nil {
				break feed
			}
			jobs <- job{cfg, wl}
		}
	}
	close(jobs)
	wg.Wait()
	if err := r.ctx.Err(); err != nil {
		return err
	}
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// PowerFor computes the power breakdown of workload under cfg.
func (r *Runner) PowerFor(cfg config.Machine, workload string) (*power.Breakdown, error) {
	s, err := r.Simulate(cfg, workload)
	if err != nil {
		return nil, err
	}
	return PowerOf(cfg, workload, s)
}

// PowerOf computes the power breakdown of workload under cfg from its
// simulation statistics s.
func PowerOf(cfg config.Machine, workload string, s *cpu.Stats) (*power.Breakdown, error) {
	b, err := power.Compute(cfg, s, power.FloorplanFor(cfg))
	if err != nil {
		return nil, err
	}
	b.Workload = workload
	return b, nil
}

// SolveThermal runs the thermal solver on a power breakdown of cfg,
// on cfg's floorplan, which it returns with the solution.
func (r *Runner) SolveThermal(cfg config.Machine, b *power.Breakdown) (*thermal.Solution, *floorplan.Floorplan, error) {
	fp := power.FloorplanFor(cfg)
	stack, err := thermal.Build(fp, b.Watts, r.opts.Grid, r.opts.Grid)
	if err != nil {
		return nil, nil, err
	}
	sol, err := stack.Solve()
	return sol, fp, err
}

// AllWorkloadNames returns the 106 workload names.
func AllWorkloadNames() []string {
	return trace.Names()
}
