// Command thermload is an open-loop load generator and SLO benchmark
// harness for thermherdd: it fires a deterministic arrival schedule of
// jobs sampled from a mix at a daemon and writes a BENCH_loadgen.json
// report. -selfhost -nodes N runs against an in-process herd (see
// internal/herd); -chaos and -repl add the post-run audits of
// internal/loadgen.
//
//	thermload -mode constant -rps 50 -duration 10s -seed 42
//	thermload -mode ramp -start 5 -target 25 -step 5 -slot 2s -seed 42
//	thermload -mode burst -rps 10 -burst-rps 100 -burst-every 2s -burst-len 500ms -duration 10s
//	thermload -mode poisson -rps 30 -duration 10s -seed 7
//	thermload -selfhost -chaos -faults 'job.exec=panic:chaos,p:0.05' \
//	          -stuck-after 5s -mode constant -rps 50 -duration 5s -seed 42
//	thermload -selfhost -nodes 3 -chaos \
//	          -faults 'selfhost.backend.kill=error:kill,count:1,delay:2s' \
//	          -mode constant -rps 50 -duration 5s -seed 42
//	thermload -selfhost -nodes 3 -hedge -chaos \
//	          -faults 'gw.straggler=delay:250ms' \
//	          -mode constant -rps 40 -duration 5s -seed 42
//	thermload -selfhost -nodes 3 -chaos \
//	          -faults 'selfhost.backend.join=error:join,count:1,delay:2s' \
//	          -mode constant -rps 40 -duration 5s -seed 42
//	thermload -selfhost -nodes 3 -repl sync -chaos \
//	          -faults 'selfhost.backend.kill9=error:kill9,count:1,delay:2s' \
//	          -mode constant -rps 40 -duration 6s -seed 42
//	thermload -selfhost -sched qos -short-reserve 2 -mix examples/mixes/multitenant.json \
//	          -tenant-p99 'live=1s' -mode constant -rps 40 -duration 10s -seed 42
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"thermalherd/internal/faultinject"
	"thermalherd/internal/herd"
	"thermalherd/internal/loadgen"
	"thermalherd/internal/replication"
	"thermalherd/internal/server"
)

// options collects every flag so tests can drive the same paths main
// does.
type options struct {
	addr     string
	selfhost bool
	// herd is the -selfhost fleet: -nodes, -hedge, -repl and the daemon
	// knobs every backend shares.
	herd herd.Config

	sched loadgen.ScheduleConfig

	mixPath  string
	inflight int
	timeout  time.Duration
	poll     time.Duration
	retries  int
	backoff  time.Duration
	batch    int
	tenants  int

	sloP95    time.Duration
	sloP99    time.Duration
	sloErrors float64
	tenantP99 string

	faults    string
	faultSeed int64
	chaos     bool

	out         string
	scheduleOut string
	dryRun      bool
	strict      bool

	statePath string
	resume    bool
}

func parseFlags(args []string) (options, error) {
	var o options
	daemon := &o.herd.Server
	daemon.Workers, daemon.QueueDepth = runtime.NumCPU(), 1024
	fs := flag.NewFlagSet("thermload", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", "http://localhost:8077", "thermherdd base URL")
	fs.BoolVar(&o.selfhost, "selfhost", false, "run an in-process daemon on a loopback port instead of targeting -addr")
	fs.IntVar(&o.herd.Nodes, "nodes", 1, "with -selfhost: run this many backends behind an in-process gateway (1 = no gateway)")

	mode := fs.String("mode", "constant", "arrival schedule: constant, ramp, burst, or poisson")
	fs.DurationVar(&o.sched.Duration, "duration", 10*time.Second, "schedule length (constant/burst/poisson; caps ramp)")
	fs.Float64Var(&o.sched.RPS, "rps", 20, "arrival rate (constant/poisson) or burst baseline")
	fs.Float64Var(&o.sched.StartRPS, "start", 5, "ramp: first slot's RPS")
	fs.Float64Var(&o.sched.TargetRPS, "target", 25, "ramp: last slot's RPS")
	fs.Float64Var(&o.sched.StepRPS, "step", 5, "ramp: RPS increment per slot")
	fs.DurationVar(&o.sched.Slot, "slot", 2*time.Second, "ramp: duration of each RPS step")
	fs.Float64Var(&o.sched.BurstRPS, "burst-rps", 100, "burst: arrival rate inside a burst window")
	fs.DurationVar(&o.sched.BurstEvery, "burst-every", 2*time.Second, "burst: window period")
	fs.DurationVar(&o.sched.BurstLen, "burst-len", 500*time.Millisecond, "burst: window length")
	fs.Int64Var(&o.sched.Seed, "seed", 1, "seed for poisson arrivals and mix sampling; equal seeds reproduce schedules byte-for-byte")

	fs.StringVar(&o.mixPath, "mix", "", "JSON job-mix file (see examples/mixes); default: uniform timing jobs at load-test depth")
	fs.IntVar(&o.inflight, "inflight", 64, "max concurrently tracked requests; excess arrivals are dropped (open loop)")
	fs.DurationVar(&o.timeout, "timeout", 30*time.Second, "per-request end-to-end budget")
	fs.DurationVar(&o.poll, "poll", 10*time.Millisecond, "status poll interval for in-flight jobs")
	fs.IntVar(&o.retries, "retries", 3, "submit retries after 429/503 responses")
	fs.DurationVar(&o.backoff, "backoff", 100*time.Millisecond, "first retry delay (doubles per attempt)")
	fs.IntVar(&o.batch, "batch", 1, "group this many arrivals per POST /v1/jobs:batch request")
	fs.IntVar(&o.tenants, "tenants", 0, "attribute arrivals to this many synthetic tenants t1..tN (Zipf-ish weights; mix entries may pin their own tenant)")

	fs.DurationVar(&o.sloP95, "slo-p95", 0, "SLO: p95 end-to-end latency bound (0 = unchecked)")
	fs.DurationVar(&o.sloP99, "slo-p99", 0, "SLO: p99 end-to-end latency bound (0 = unchecked)")
	fs.Float64Var(&o.sloErrors, "slo-errors", 0.01, "SLO: max (errors+timeouts+failed)/arrivals")
	fs.StringVar(&o.tenantP99, "tenant-p99", "", "SLO: per-tenant p99 bounds, e.g. live=500ms,batch=5s (a listed tenant with zero completions fails)")

	fs.StringVar(&daemon.SchedPolicy, "sched", server.SchedFIFO, "self-hosted daemon: scheduling policy, fifo or qos")
	fs.DurationVar(&daemon.ShortBudget, "short-budget", 2*time.Second, "self-hosted daemon: qos runtime budget before a predicted-short job is demoted")
	fs.IntVar(&daemon.ShortReserve, "short-reserve", 0, "self-hosted daemon: qos worker slots reserved for short jobs (0 = workers/4, min 1)")
	fs.Float64Var(&daemon.TenantRate, "tenant-rate", 0, "self-hosted daemon: per-tenant admission quota in jobs/sec (0 = unlimited)")
	fs.IntVar(&daemon.TenantBurst, "tenant-burst", 0, "self-hosted daemon: per-tenant admission quota burst size")
	fs.Func("tenant-weights", "self-hosted daemon: qos fair-dequeue weights, e.g. live=4,batch=1", func(s string) (err error) {
		daemon.TenantWeights, err = server.ParseTenantWeights(s)
		return err
	})

	fs.StringVar(&o.faults, "faults", "", "arm fault injection in the self-hosted daemon (requires -selfhost); see internal/faultinject for the grammar")
	fs.Int64Var(&o.faultSeed, "fault-seed", 1, "seed for fault-injection firing decisions")
	fs.IntVar(&daemon.CacheSize, "cache", 1024, "self-hosted daemon: result cache entries (1 effectively disables caching for repeat-spec load)")
	fs.DurationVar(&daemon.JobTimeout, "job-timeout", 0, "self-hosted daemon: per-job execution deadline (0 = none)")
	fs.DurationVar(&daemon.StuckAfter, "stuck-after", 0, "self-hosted daemon: watchdog threshold for stuck jobs (0 = off)")
	fs.DurationVar(&daemon.BrownoutAfter, "brownout", 0, "self-hosted daemon: brownout queue-wait threshold (0 = off)")
	fs.BoolVar(&o.chaos, "chaos", false, "after the run, verify the daemon survived, all jobs settled, and /metrics accounting reconciles")
	fs.BoolVar(&o.herd.Hedge, "hedge", false, "self-hosted herd: enable gateway request hedging (requires -selfhost -nodes >= 2)")
	fs.StringVar(&o.herd.Repl, "repl", "", "self-hosted herd: replication ack policy (none or sync) — chains each backend's journal to its ring successor, arms gateway takeover, and reconciles acked-job loss after the run (requires -selfhost -nodes >= 2)")

	fs.StringVar(&o.out, "out", "BENCH_loadgen.json", "report output path")
	fs.StringVar(&o.scheduleOut, "schedule-out", "", "also dump the arrival schedule (ns offsets, one per line) to this path")
	fs.BoolVar(&o.dryRun, "dry-run", false, "synthesize the schedule and specs, write -schedule-out, and exit without sending load")
	fs.BoolVar(&o.strict, "strict", false, "exit nonzero when the SLO verdict is FAIL")
	fs.StringVar(&o.statePath, "state", "", "persist resume state (schedule digest + last acked arrival) to this path as the run progresses")
	fs.BoolVar(&o.resume, "resume", false, "continue the partially completed run recorded in -state instead of restarting from arrival 0")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if err := checkFlags(o); err != nil {
		fmt.Fprintln(fs.Output(), "thermload:", err)
		return o, err
	}
	o.sched.Mode = loadgen.Mode(*mode)
	return o, nil
}

// checkFlags refuses flag combinations with nothing to act on.
func checkFlags(o options) error {
	h := o.herd
	switch {
	case o.resume && o.statePath == "":
		return errors.New("-resume requires -state")
	case h.Nodes < 1:
		return errors.New("-nodes must be >= 1")
	case h.Nodes > 1 && !o.selfhost:
		return errors.New("-nodes requires -selfhost")
	case h.Server.SchedPolicy != server.SchedFIFO && !o.selfhost:
		return errors.New("-sched configures the self-hosted daemon; it requires -selfhost")
	case o.tenants < 0:
		return errors.New("-tenants must be >= 0")
	case h.Hedge && h.Nodes < 2:
		return errors.New("-hedge requires -selfhost -nodes >= 2")
	case h.Repl != "" && h.Nodes < 2:
		return errors.New("-repl requires -selfhost -nodes >= 2")
	}
	_, err := replication.ParsePolicy(h.Repl)
	return err
}

// parseTenantP99 parses "live=500ms,batch=5s" into SLO.TenantP99.
func parseTenantP99(s string) (map[string]time.Duration, error) {
	if s == "" {
		return nil, nil
	}
	bounds := make(map[string]time.Duration)
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad -tenant-p99 entry %q (want tenant=duration)", part)
		}
		d, err := time.ParseDuration(val)
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("bad -tenant-p99 entry %q: want a positive duration", part)
		}
		bounds[name] = d
	}
	return bounds, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(2)
	}
	rep, err := run(context.Background(), o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "thermload:", err)
		os.Exit(1)
	}
	if o.strict && rep != nil && !rep.SLO.Pass {
		os.Exit(1)
	}
}

// run executes one thermload invocation: synthesize, (optionally)
// self-host, drive, report. A dry run returns a nil report.
func run(ctx context.Context, o options, out io.Writer) (*loadgen.Report, error) {
	sched, err := loadgen.Synthesize(o.sched)
	if err != nil {
		return nil, err
	}
	mix := loadgen.DefaultMix()
	if o.mixPath != "" {
		if mix, err = loadgen.LoadMixFile(o.mixPath); err != nil {
			return nil, err
		}
	}
	specs, tenants, err := mix.SampleArrivals(len(sched), o.sched.Seed, o.tenants)
	if err != nil {
		return nil, err
	}
	tenantSLO, err := parseTenantP99(o.tenantP99)
	if err != nil {
		return nil, err
	}
	if o.scheduleOut != "" {
		if err := os.WriteFile(o.scheduleOut, loadgen.FormatSchedule(sched), 0o644); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(out, "thermload: %s schedule, %d arrivals over %.1fs (offered %.1f rps), sha256 %s\n",
		o.sched.Mode, len(sched), sched[len(sched)-1].Seconds(), loadgen.OfferedRPS(sched),
		loadgen.ScheduleSHA256(sched)[:12])
	if o.dryRun {
		return nil, nil
	}

	if o.faults != "" && !o.selfhost {
		return nil, fmt.Errorf("-faults requires -selfhost: refusing to sabotage a shared daemon")
	}
	addr := o.addr
	if o.selfhost {
		cfg := o.herd
		cfg.Out = out
		if o.faults != "" {
			cfg.Faults = faultinject.New()
			if err := cfg.Faults.Arm(o.faults, o.faultSeed); err != nil {
				return nil, err
			}
			fmt.Fprintf(out, "thermload: fault points armed (seed %d): %s\n",
				o.faultSeed, strings.Join(cfg.Faults.Points(), ", "))
		}
		h, err := herd.Start(cfg)
		if err != nil {
			return nil, err
		}
		defer h.Stop()
		addr = h.URL
		if cfg.Nodes > 1 {
			fmt.Fprintf(out, "thermload: self-hosted herd of %d backends behind gateway at %s\n", cfg.Nodes, addr)
		} else {
			fmt.Fprintf(out, "thermload: self-hosted daemon at %s\n", addr)
		}
		if d := cfg.Server; d.SchedPolicy == server.SchedQoS {
			fmt.Fprintf(out, "thermload: qos scheduler (short budget %s, reserve %d, tenant rate %g/s burst %d)\n",
				d.ShortBudget, d.ShortReserve, d.TenantRate, d.TenantBurst)
		}
	}

	startIndex, settle, onShed, err := resumeState(o, sched, out)
	if err != nil {
		return nil, err
	}
	if startIndex >= len(sched) {
		fmt.Fprintf(out, "thermload: nothing to resume; all %d arrivals were already acknowledged\n", len(sched))
		return nil, nil
	}

	// Every ack advances the resume frontier; with -repl armed it also
	// records the job id for the post-run acked-loss audit, which
	// re-polls each to a terminal state, so a failover that silently
	// dropped acked work is caught even though the generator itself
	// gave up on those jobs mid-takeover.
	var (
		ackedMu  sync.Mutex
		ackedIDs []string
	)
	onAcked := func(idx int, id string) {
		if settle != nil {
			settle(idx)
		}
		if o.herd.Repl != "" {
			ackedMu.Lock()
			ackedIDs = append(ackedIDs, id)
			ackedMu.Unlock()
		}
	}
	client := loadgen.NewClient(addr, o.retries, o.backoff, o.sched.Seed)
	rep, err := loadgen.Run(ctx, loadgen.RunConfig{
		Client:       client,
		Schedule:     sched,
		Specs:        specs,
		Tenants:      tenants,
		MaxInFlight:  o.inflight,
		Timeout:      o.timeout,
		PollInterval: o.poll,
		BatchSize:    o.batch,
		SLO:          loadgen.SLO{P95: o.sloP95, P99: o.sloP99, MaxErrorRate: o.sloErrors, TenantP99: tenantSLO},
		Mode:         o.sched.Mode,
		Seed:         o.sched.Seed,
		StartIndex:   startIndex,
		OnAcked:      onAcked,
		OnShed:       onShed,
	})
	if err != nil {
		return nil, err
	}
	if o.herd.Repl != "" {
		fo := loadgen.ReconcileAcked(ctx, client, o.herd.Repl, ackedIDs)
		fmt.Fprintf(out, "thermload: failover reconcile (repl=%s): %d acked, %d resolved terminal, %d lost\n",
			fo.Policy, fo.Acked, fo.Resolved, fo.Lost)
		rep.Failover = fo
	}
	if o.out != "" {
		if err := rep.WriteFile(o.out); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "thermload: report written to %s\n", o.out)
	}
	fmt.Fprint(out, rep.Summary())
	if o.chaos {
		cs, err := loadgen.ChaosCheck(ctx, client, rep)
		if err != nil {
			return rep, fmt.Errorf("chaos check: %w", err)
		}
		fmt.Fprintf(out, "thermload: chaos check OK — daemon alive, %.0f submissions all settled (%.0f panics recovered, %.0f worker restarts, %.0f brownout rejects)\n",
			cs.Submitted, cs.PanicsRecovered, cs.WorkerRestarts, cs.BrownoutRejects)
	}
	return rep, nil
}

// runState is the -state file: enough to verify a later -resume
// targets the same deterministic schedule and to continue from the
// first arrival whose outcome is unknown. LastAcked is the highest
// schedule index below which EVERY arrival settled — acknowledged by
// the daemon or deliberately shed by the open-loop in-flight bound
// (sheds are final: the run counted them as drops and never sent
// them). Acks arrive out of order, so the frontier only advances over
// a contiguous settled prefix; an arrival whose submission errored
// never settles and therefore pins the frontier, so -resume replays it
// instead of silently skipping it. Replayed already-acked arrivals
// above the frontier are safe: their per-arrival idempotency keys
// dedupe server-side.
type runState struct {
	ScheduleSHA256 string `json:"schedule_sha256"`
	Seed           int64  `json:"seed"`
	Mode           string `json:"mode"`
	LastAcked      int    `json:"last_acked"`
}

// resumeState wires -state/-resume: it returns the schedule index to
// start from plus OnAcked/OnShed callbacks persisting progress (nil
// when -state is unset). A -resume against a state file recorded for a
// different schedule is refused — continuing a different run would
// silently skip work.
func resumeState(o options, sched []time.Duration, out io.Writer) (int, func(int), func(int), error) {
	if o.statePath == "" {
		return 0, nil, nil, nil
	}
	digest := loadgen.ScheduleSHA256(sched)
	st := runState{ScheduleSHA256: digest, Seed: o.sched.Seed, Mode: string(o.sched.Mode), LastAcked: -1}
	if o.resume {
		b, err := os.ReadFile(o.statePath)
		if err != nil {
			return 0, nil, nil, fmt.Errorf("-resume: %w", err)
		}
		if err := json.Unmarshal(b, &st); err != nil {
			return 0, nil, nil, fmt.Errorf("-resume: bad state file %s: %w", o.statePath, err)
		}
		if st.ScheduleSHA256 != digest {
			return 0, nil, nil, fmt.Errorf("-resume: state %s records schedule %.12s but the flags synthesize %.12s (same -mode/-seed/-rps/... required)",
				o.statePath, st.ScheduleSHA256, digest)
		}
		fmt.Fprintf(out, "thermload: resuming at arrival %d of %d\n", st.LastAcked+1, len(sched))
	} else if err := writeState(o.statePath, st); err != nil {
		// Seed the file before any ack so a run killed early is still
		// resumable from arrival 0.
		return 0, nil, nil, err
	}
	// Settled indices arrive out of order; buffer the ones past the
	// frontier and advance LastAcked only over a contiguous prefix, so
	// resume never skips an arrival that was neither acked nor shed.
	var mu sync.Mutex
	settled := make(map[int]bool)
	mark := func(idx int) {
		mu.Lock()
		defer mu.Unlock()
		if idx <= st.LastAcked || settled[idx] {
			return
		}
		settled[idx] = true
		advanced := false
		for settled[st.LastAcked+1] {
			delete(settled, st.LastAcked+1)
			st.LastAcked++
			advanced = true
		}
		if advanced {
			writeState(o.statePath, st)
		}
	}
	return st.LastAcked + 1, mark, mark, nil
}

// writeState replaces the -state file via a temp-file rename, so a
// kill mid-write (exactly the scenario -resume exists for) can never
// leave a truncated JSON document behind.
func writeState(path string, st runState) error {
	b, err := json.Marshal(st)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
