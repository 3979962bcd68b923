// Command thermload is an open-loop load generator and SLO benchmark
// harness for thermherdd. It synthesizes a deterministic
// request-arrival schedule, samples job specs from a weighted mix,
// fires them at a daemon with bounded in-flight concurrency, and
// writes a machine-readable BENCH_loadgen.json report (latency
// quantiles, achieved vs. offered RPS, error/drop counts, SLO
// verdict).
//
// Usage:
//
//	thermload -mode constant -rps 50 -duration 10s -seed 42
//	thermload -mode ramp -start 5 -target 25 -step 5 -slot 2s -seed 42
//	thermload -mode burst -rps 10 -burst-rps 100 -burst-every 2s -burst-len 500ms -duration 10s
//	thermload -mode poisson -rps 30 -duration 10s -seed 7
//
// Point it at a running daemon with -addr, or pass -selfhost to spin
// up an in-process daemon on a loopback port (used by the CI bench
// smoke job). Equal seeds and parameters reproduce byte-identical
// arrival schedules; dump one with -schedule-out to diff runs, or
// compare the schedule_sha256 fields of two reports.
//
// Chaos runs: -faults arms fault injection inside the self-hosted
// daemon (spec grammar in internal/faultinject; requires -selfhost so
// a shared daemon is never sabotaged), -job-timeout/-stuck-after/
// -brownout mirror the daemon's resilience knobs, and -chaos appends a
// post-run check that the daemon survived, every submitted job reached
// a terminal state, and the /metrics accounting identity holds:
//
//	thermload -selfhost -chaos -faults 'job.exec=panic:chaos,p:0.05' \
//	          -stuck-after 5s -mode constant -rps 50 -duration 5s -seed 42
//
// Herd runs: -nodes N (with -selfhost) spins up N in-process daemons
// behind an in-process thermherd-gw gateway and drives the load
// through the gateway, so sharded routing, failover, and fleet-wide
// accounting are exercised in one process. The selfhost.backend.kill
// fault point schedules a mid-run backend kill (the node drains
// abruptly but keeps serving reads, exactly like a SIGTERM'd daemon):
//
//	thermload -selfhost -nodes 3 -chaos \
//	          -faults 'selfhost.backend.kill=error:kill,count:1,delay:2s' \
//	          -mode constant -rps 50 -duration 5s -seed 42
//
// The selfhost.backend.join and selfhost.backend.drain points resize
// the herd mid-run through the gateway's authenticated admin API: join
// starts an extra backend that probes to healthy and takes its
// deterministic ring shard live, drain pins the last backend draining
// while its admitted jobs settle. -hedge enables gateway request
// hedging (second attempt after the per-class p95 delay, bounded by a
// retry budget) so a straggling backend stops owning the tail:
//
//	thermload -selfhost -nodes 3 -hedge -chaos \
//	          -faults 'gw.straggler=delay:250ms' \
//	          -mode constant -rps 40 -duration 5s -seed 42
//	thermload -selfhost -nodes 3 -chaos \
//	          -faults 'selfhost.backend.join=error:join,count:1,delay:2s' \
//	          -mode constant -rps 40 -duration 5s -seed 42
//
// Failover runs: -repl none|sync (with -selfhost -nodes >= 2)
// chains each backend's journal to its ring successor, arms the
// gateway's takeover machinery, and appends a post-run reconciliation
// that re-polls every acked job id to a terminal state — the
// fleet-wide zero-acked-loss audit. The selfhost.backend.kill9 point
// is the hard variant of kill: the victim's listener and connections
// are torn down instantly and its replication stream goes silent, the
// wire behavior of a kill -9. Under -repl sync the successor adopts
// the dead node's replica journal and no acked job is lost; under
// -repl none the same kill measurably loses the victim's backlog:
//
//	thermload -selfhost -nodes 3 -repl sync -chaos \
//	          -faults 'selfhost.backend.kill9=error:kill9,count:1,delay:2s' \
//	          -mode constant -rps 40 -duration 6s -seed 42
//
// Multi-tenant QoS runs: -tenants N attributes unpinned arrivals to N
// synthetic tenants t1..tN (Zipf-ish weights), mix entries may pin a
// tenant of their own (see examples/mixes/multitenant.json), and
// -tenant-p99 'live=500ms' adds per-tenant tail-latency SLO clauses —
// a listed tenant that completes nothing is a violation, which is how
// the starvation demo detects a drowned short-job tenant. With
// -selfhost, -sched qos (plus -short-budget, -short-reserve,
// -tenant-rate, -tenant-burst, -tenant-weights) starts the daemon
// under the QoS scheduler, so one command compares FIFO against QoS:
//
//	thermload -selfhost -mix examples/mixes/multitenant.json \
//	          -tenant-p99 'live=1s' -mode constant -rps 40 -duration 10s -seed 42
//	thermload -selfhost -sched qos -short-reserve 2 -mix examples/mixes/multitenant.json \
//	          -tenant-p99 'live=1s' -mode constant -rps 40 -duration 10s -seed 42
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"thermalherd/internal/faultinject"
	"thermalherd/internal/gateway"
	"thermalherd/internal/loadgen"
	"thermalherd/internal/replication"
	"thermalherd/internal/server"
)

// Fault points owned by the self-host harness itself (as opposed to
// the daemon- and gateway-side points armed through the same -faults
// spec).
//
//thermlint:faultpoints
const (
	// faultBackendKill fires from the herd kill-watcher: an error action
	// kills one self-hosted backend mid-run (abrupt drain, HTTP kept up
	// for reads), a delay action schedules when. Only meaningful with
	// -selfhost -nodes N.
	faultBackendKill = "selfhost.backend.kill"
	// faultBackendJoin fires from the herd join-watcher: an error action
	// starts one extra self-hosted backend mid-run and adds it through
	// the gateway's admin API, so it probes to healthy and takes its
	// deterministic ring shard without a restart. A delay action
	// schedules when. Only meaningful with -selfhost -nodes N.
	faultBackendJoin = "selfhost.backend.join"
	// faultBackendDrain fires from the herd drain-watcher: an error
	// action pins the LAST backend draining through the gateway's admin
	// API mid-run — new placements fail over, existing jobs keep
	// settling, and the node is deliberately NOT deleted so the
	// fleet-wide accounting still sees its jobs. A delay action
	// schedules when. Only meaningful with -selfhost -nodes N.
	faultBackendDrain = "selfhost.backend.drain"
	// faultBackendKill9 fires from the herd kill9-watcher: an error
	// action kills the LAST backend the hard way — its listener and
	// in-flight connections are torn down instantly, its replication
	// stream goes silent, and nothing drains — the wire behavior of a
	// kill -9. With -repl armed the gateway's takeover adopts the
	// victim's replica journal onto its ring successor; the post-run
	// reconciliation then measures exactly what the ack policy
	// promised. A delay action schedules when. Only meaningful with
	// -selfhost -nodes N.
	faultBackendKill9 = "selfhost.backend.kill9"
)

// selfhostAdminToken authorizes the in-process gateway's admin API for
// the join/drain watchers; the herd lives and dies inside one process,
// so a fixed token costs nothing.
const selfhostAdminToken = "selfhost-admin"

// options collects every flag so tests can drive the same paths main
// does.
type options struct {
	addr     string
	selfhost bool
	nodes    int

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

	schedPolicy   string
	shortBudget   time.Duration
	shortReserve  int
	tenantRate    float64
	tenantBurst   int
	tenantWeights string

	faults     string
	faultSeed  int64
	cacheSize  int
	jobTimeout time.Duration
	stuckAfter time.Duration
	brownout   time.Duration
	chaos      bool
	hedge      bool
	repl       string

	out         string
	scheduleOut string
	dryRun      bool
	strict      bool

	statePath string
	resume    bool
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("thermload", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", "http://localhost:8077", "thermherdd base URL")
	fs.BoolVar(&o.selfhost, "selfhost", false, "run an in-process daemon on a loopback port instead of targeting -addr")
	fs.IntVar(&o.nodes, "nodes", 1, "with -selfhost: run this many backends behind an in-process gateway (1 = no gateway)")

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

	fs.StringVar(&o.schedPolicy, "sched", server.SchedFIFO, "self-hosted daemon: scheduling policy, fifo or qos")
	fs.DurationVar(&o.shortBudget, "short-budget", 2*time.Second, "self-hosted daemon: qos runtime budget before a predicted-short job is demoted")
	fs.IntVar(&o.shortReserve, "short-reserve", 0, "self-hosted daemon: qos worker slots reserved for short jobs (0 = workers/4, min 1)")
	fs.Float64Var(&o.tenantRate, "tenant-rate", 0, "self-hosted daemon: per-tenant admission quota in jobs/sec (0 = unlimited)")
	fs.IntVar(&o.tenantBurst, "tenant-burst", 0, "self-hosted daemon: per-tenant admission quota burst size")
	fs.StringVar(&o.tenantWeights, "tenant-weights", "", "self-hosted daemon: qos fair-dequeue weights, e.g. live=4,batch=1")

	fs.StringVar(&o.faults, "faults", "", "arm fault injection in the self-hosted daemon (requires -selfhost); see internal/faultinject for the grammar")
	fs.Int64Var(&o.faultSeed, "fault-seed", 1, "seed for fault-injection firing decisions")
	fs.IntVar(&o.cacheSize, "cache", 1024, "self-hosted daemon: result cache entries (1 effectively disables caching for repeat-spec load)")
	fs.DurationVar(&o.jobTimeout, "job-timeout", 0, "self-hosted daemon: per-job execution deadline (0 = none)")
	fs.DurationVar(&o.stuckAfter, "stuck-after", 0, "self-hosted daemon: watchdog threshold for stuck jobs (0 = off)")
	fs.DurationVar(&o.brownout, "brownout", 0, "self-hosted daemon: brownout queue-wait threshold (0 = off)")
	fs.BoolVar(&o.chaos, "chaos", false, "after the run, verify the daemon survived, all jobs settled, and /metrics accounting reconciles")
	fs.BoolVar(&o.hedge, "hedge", false, "self-hosted herd: enable gateway request hedging (requires -selfhost -nodes >= 2)")
	fs.StringVar(&o.repl, "repl", "", "self-hosted herd: replication ack policy (none or sync) — chains each backend's journal to its ring successor, arms gateway takeover, and reconciles acked-job loss after the run (requires -selfhost -nodes >= 2)")

	fs.StringVar(&o.out, "out", "BENCH_loadgen.json", "report output path")
	fs.StringVar(&o.scheduleOut, "schedule-out", "", "also dump the arrival schedule (ns offsets, one per line) to this path")
	fs.BoolVar(&o.dryRun, "dry-run", false, "synthesize the schedule and specs, write -schedule-out, and exit without sending load")
	fs.BoolVar(&o.strict, "strict", false, "exit nonzero when the SLO verdict is FAIL")
	fs.StringVar(&o.statePath, "state", "", "persist resume state (schedule digest + last acked arrival) to this path as the run progresses")
	fs.BoolVar(&o.resume, "resume", false, "continue the partially completed run recorded in -state instead of restarting from arrival 0")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.resume && o.statePath == "" {
		fmt.Fprintln(fs.Output(), "thermload: -resume requires -state")
		return o, fmt.Errorf("-resume requires -state")
	}
	if o.nodes < 1 {
		fmt.Fprintln(fs.Output(), "thermload: -nodes must be >= 1")
		return o, fmt.Errorf("-nodes must be >= 1")
	}
	if o.nodes > 1 && !o.selfhost {
		fmt.Fprintln(fs.Output(), "thermload: -nodes requires -selfhost")
		return o, fmt.Errorf("-nodes requires -selfhost")
	}
	if o.schedPolicy != server.SchedFIFO && !o.selfhost {
		fmt.Fprintln(fs.Output(), "thermload: -sched configures the self-hosted daemon; it requires -selfhost")
		return o, fmt.Errorf("-sched requires -selfhost")
	}
	if o.tenants < 0 {
		fmt.Fprintln(fs.Output(), "thermload: -tenants must be >= 0")
		return o, fmt.Errorf("-tenants must be >= 0")
	}
	if o.hedge && o.nodes < 2 {
		fmt.Fprintln(fs.Output(), "thermload: -hedge requires -selfhost -nodes >= 2")
		return o, fmt.Errorf("-hedge requires -selfhost -nodes >= 2")
	}
	if o.repl != "" {
		if _, err := replication.ParsePolicy(o.repl); err != nil {
			fmt.Fprintln(fs.Output(), "thermload:", err)
			return o, err
		}
		if o.nodes < 2 {
			fmt.Fprintln(fs.Output(), "thermload: -repl requires -selfhost -nodes >= 2")
			return o, fmt.Errorf("-repl requires -selfhost -nodes >= 2")
		}
	}
	o.sched.Mode = loadgen.Mode(*mode)
	return o, nil
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

// parseTenantWeights parses "live=4,batch=1" into a weight map for the
// self-hosted daemon's fair dequeue.
func parseTenantWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	weights := make(map[string]int)
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad -tenant-weights entry %q (want tenant=N)", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad -tenant-weights entry %q: want a positive integer", part)
		}
		weights[name] = w
	}
	return weights, nil
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
func run(ctx context.Context, o options, out *os.File) (*loadgen.Report, error) {
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
		var stop func()
		var base string
		if o.nodes > 1 {
			stop, base, err = selfhostHerd(o, out)
		} else {
			stop, base, err = selfhost(o, out)
		}
		if err != nil {
			return nil, err
		}
		defer stop()
		addr = base
		if o.nodes > 1 {
			fmt.Fprintf(out, "thermload: self-hosted herd of %d backends behind gateway at %s\n", o.nodes, addr)
		} else {
			fmt.Fprintf(out, "thermload: self-hosted daemon at %s\n", addr)
		}
		if o.schedPolicy == server.SchedQoS {
			fmt.Fprintf(out, "thermload: qos scheduler (short budget %s, reserve %d, tenant rate %g/s burst %d)\n",
				o.shortBudget, o.shortReserve, o.tenantRate, o.tenantBurst)
		}
	}

	startIndex, onAcked, onShed, err := resumeState(o, sched, out)
	if err != nil {
		return nil, err
	}
	if startIndex >= len(sched) {
		fmt.Fprintf(out, "thermload: nothing to resume; all %d arrivals were already acknowledged\n", len(sched))
		return nil, nil
	}

	client := loadgen.NewClient(addr, o.retries, o.backoff, o.sched.Seed)
	// With -repl armed, record every acked job id: the post-run
	// reconciliation re-polls each to a terminal state, so a failover
	// that silently dropped acked work is caught even though the
	// generator itself gave up on those jobs (poll errors) mid-takeover.
	var (
		ackedMu     sync.Mutex
		ackedIDs    []string
		onSubmitted func(int, string)
	)
	if o.repl != "" {
		onSubmitted = func(_ int, id string) {
			ackedMu.Lock()
			ackedIDs = append(ackedIDs, id)
			ackedMu.Unlock()
		}
	}
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
		OnSubmitted:  onSubmitted,
	})
	if err != nil {
		return nil, err
	}
	if o.repl != "" {
		ackedMu.Lock()
		ids := ackedIDs
		ackedMu.Unlock()
		rep.Failover = reconcileAcked(ctx, client, o.repl, ids, out)
	}
	if o.out != "" {
		if err := rep.WriteFile(o.out); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "thermload: report written to %s\n", o.out)
	}
	fmt.Fprint(out, rep.Summary())
	if o.chaos {
		if err := chaosCheck(ctx, client, rep, out); err != nil {
			return rep, fmt.Errorf("chaos check: %w", err)
		}
	}
	return rep, nil
}

// reconcileAcked is the fleet-wide zero-acked-loss audit: every job id
// the daemon acknowledged during the run is re-polled through the
// gateway until it reports a terminal state (done, failed, canceled —
// migrated jobs chase to their adopter transparently). Ids still
// unresolved at the deadline are lost acked jobs: work the fleet took
// responsibility for and then dropped. Under -repl sync that count
// must be zero even across a kill -9; under none it measures exactly
// the loss window the sync ack closes.
func reconcileAcked(ctx context.Context, client *loadgen.Client, policy string, ids []string, out *os.File) *loadgen.FailoverStats {
	fo := &loadgen.FailoverStats{Policy: policy, Acked: len(ids)}
	deadline := time.Now().Add(30 * time.Second)
	pending := ids
	for len(pending) > 0 && time.Now().Before(deadline) && ctx.Err() == nil {
		still := pending[:0:0]
		for _, id := range pending {
			st, err := client.JobStatus(ctx, id)
			if err != nil {
				still = append(still, id) // 404 or unreachable: retry until deadline
				continue
			}
			switch st.State {
			case server.StateDone, server.StateFailed, server.StateCanceled:
				fo.Resolved++
			default:
				still = append(still, id) // queued/running on the adopter; keep polling
			}
		}
		pending = still
		if len(pending) == 0 {
			break
		}
		select {
		case <-ctx.Done():
		//thermlint:timer -- reconcile-poll against a live fleet; wall time is the contract
		case <-time.After(100 * time.Millisecond):
		}
	}
	fo.Lost = len(pending)
	fmt.Fprintf(out, "thermload: failover reconcile (repl=%s): %d acked, %d resolved terminal, %d lost\n",
		policy, fo.Acked, fo.Resolved, fo.Lost)
	return fo
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
func resumeState(o options, sched []time.Duration, out *os.File) (int, func(int), func(int), error) {
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

// chaosCheck is the post-run resilience verdict: the daemon is still
// alive, every admitted job reached a terminal state, and the daemon's
// /metrics accounting identity (each submission settled exactly once)
// reconciles with the client-side report.
func chaosCheck(ctx context.Context, client *loadgen.Client, rep *loadgen.Report, out *os.File) error {
	status, err := client.Healthz(ctx)
	if err != nil {
		return fmt.Errorf("daemon not alive after run: %w", err)
	}
	if status != "ok" {
		return fmt.Errorf("daemon health = %q after run, want ok", status)
	}

	// Jobs the generator stopped tracking (timeouts) may still be in
	// flight; give them a bounded window to settle.
	deadline := time.Now().Add(30 * time.Second)
	for {
		queued, err := client.CountJobs(ctx, "queued")
		if err != nil {
			return err
		}
		running, err := client.CountJobs(ctx, "running")
		if err != nil {
			return err
		}
		if queued == 0 && running == 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d queued + %d running jobs never settled", queued, running)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		//thermlint:timer -- settle-poll against a live daemon; wall time is the contract
		case <-time.After(50 * time.Millisecond):
		}
	}

	doc, err := client.Metrics(ctx)
	if err != nil {
		return err
	}
	jc := func(section, name string) (float64, error) {
		sec, ok := doc[section].(map[string]any)
		if !ok {
			return 0, fmt.Errorf("metrics missing section %q", section)
		}
		v, ok := sec[name].(float64)
		if !ok {
			return 0, fmt.Errorf("metrics %s missing %q", section, name)
		}
		return v, nil
	}
	var vals [7]float64
	for i, key := range []struct{ section, name string }{
		{"jobs", "submitted"}, {"cache", "hits"}, {"jobs", "completed"},
		{"jobs", "failed"}, {"jobs", "canceled"}, {"jobs", "rejected"},
		{"jobs", "migrated"},
	} {
		if vals[i], err = jc(key.section, key.name); err != nil {
			return err
		}
	}
	submitted, terminal := vals[0], vals[1]+vals[2]+vals[3]+vals[4]+vals[5]+vals[6]
	if submitted != terminal {
		return fmt.Errorf("accounting identity broken: submitted %.0f != hits+completed+failed+canceled+rejected+migrated %.0f",
			submitted, terminal)
	}
	// A hedged herd run reaps losing submit attempts by canceling them
	// gateway-side; those cancels never belonged to the generator, so
	// reconcile them out of the fleet's canceled count. Single-node runs
	// have no gateway section in the merged document — zero there.
	var hedgeCancels float64
	if gwsec, ok := doc["gateway"].(map[string]any); ok {
		if v, ok := gwsec["hedge_cancels"].(float64); ok {
			hedgeCancels = v
		}
	}
	// When the generator saw every job through (no timeouts or transport
	// errors), its failure counts must agree with the daemon's exactly.
	if rep.Achieved.Timeouts == 0 && rep.Achieved.Errors == 0 {
		if vals[3] != float64(rep.Achieved.Failed) || vals[4] != float64(rep.Achieved.Canceled)+hedgeCancels {
			return fmt.Errorf("error accounting mismatch: daemon failed=%.0f canceled=%.0f, report failed=%d canceled=%d (+%.0f hedge cancels)",
				vals[3], vals[4], rep.Achieved.Failed, rep.Achieved.Canceled, hedgeCancels)
		}
	}
	// The failover reconciliation (when -repl ran one) is part of the
	// chaos verdict: acked work the fleet dropped is the one loss the
	// replication chain exists to prevent.
	if rep.Failover != nil && rep.Failover.Lost > 0 {
		return fmt.Errorf("acked-job loss: %d of %d acked jobs never reached a terminal state (repl=%s)",
			rep.Failover.Lost, rep.Failover.Acked, rep.Failover.Policy)
	}
	panics, _ := jc("jobs", "panics_recovered")
	restarts, _ := jc("workers", "restarts")
	brownouts, _ := jc("admission", "brownout_rejects")
	fmt.Fprintf(out, "thermload: chaos check OK — daemon alive, %.0f submissions all settled (%.0f panics recovered, %.0f worker restarts, %.0f brownout rejects)\n",
		submitted, panics, restarts, brownouts)
	return nil
}

// daemonConfig builds the server.Config shared by every self-hosted
// backend: o's resilience knobs plus the QoS scheduler knobs.
func daemonConfig(o options) (server.Config, error) {
	weights, err := parseTenantWeights(o.tenantWeights)
	if err != nil {
		return server.Config{}, err
	}
	return server.Config{
		Workers:       runtime.NumCPU(),
		QueueDepth:    1024,
		CacheSize:     o.cacheSize,
		JobTimeout:    o.jobTimeout,
		StuckAfter:    o.stuckAfter,
		BrownoutAfter: o.brownout,
		SchedPolicy:   o.schedPolicy,
		ShortBudget:   o.shortBudget,
		ShortReserve:  o.shortReserve,
		TenantRate:    o.tenantRate,
		TenantBurst:   o.tenantBurst,
		TenantWeights: weights,
	}, nil
}

// selfhost starts an in-process daemon on a loopback port, configured
// with o's resilience knobs and (optionally) armed faults, and returns
// a stop function that drains it.
func selfhost(o options, out *os.File) (func(), string, error) {
	cfg, err := daemonConfig(o)
	if err != nil {
		return nil, "", err
	}
	if o.faults != "" {
		reg := faultinject.New()
		if err := reg.Arm(o.faults, o.faultSeed); err != nil {
			return nil, "", err
		}
		cfg.Faults = reg
		fmt.Fprintf(out, "thermload: fault points armed (seed %d): %s\n",
			o.faultSeed, strings.Join(reg.Points(), ", "))
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, "", err
	}
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Drain(ctx)
		hs.Shutdown(ctx)
	}
	return stop, "http://" + ln.Addr().String(), nil
}

// herdNode is one self-hosted backend of a -nodes run.
type herdNode struct {
	name string
	srv  *server.Server
	hs   *http.Server
	ln   net.Listener
	repl *replication.Streamer
}

// adminCall hits the in-process gateway's admin API with the selfhost
// token; the join/drain watchers use it to change ring membership
// mid-run exactly the way an operator would — over the wire.
func adminCall(method, url string, body any) error {
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+selfhostAdminToken)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return fmt.Errorf("%s %s: HTTP %d", method, url, resp.StatusCode)
	}
	return nil
}

// selfhostHerd starts o.nodes in-process daemons behind an in-process
// gateway and returns the gateway's base URL. All components share one
// fault registry, so a single -faults spec can arm backend-side points
// (job.exec, ...), gateway-side points (gw.forward, gw.probe,
// gw.splitbrain, gw.straggler, gw.hedge, gw.breaker, gw.admin), and
// the harness's own watcher-driven points:
//
//   - selfhost.backend.kill — the LAST backend dies mid-run: an abrupt
//     drain (queued jobs canceled, new submits 503) with the HTTP
//     listener kept up, exactly the wire behavior of a SIGTERM'd
//     daemon, so /metrics stays reachable and the fleet-wide
//     accounting identity still reconciles.
//   - selfhost.backend.join — an extra backend starts mid-run and is
//     added through the gateway's authenticated admin API; it probes
//     to healthy and takes its deterministic ring shard live.
//   - selfhost.backend.drain — the LAST backend is pinned draining
//     through the admin API; new placements fail over while its
//     admitted jobs keep settling (it is never deleted, so the
//     fleet-wide accounting still sees them).
//   - selfhost.backend.kill9 — the LAST backend dies the hard way:
//     listener and connections torn down instantly, replication stream
//     silenced, workers reaped with nothing drained or journaled — a
//     kill -9 at the wire. With -repl armed the gateway's takeover
//     adopts its replica journal onto the ring successor.
//
// The gateway always carries the selfhost admin token (the herd is one
// process; the token exists for the watchers), and -hedge switches on
// request hedging with a CI-friendly 1s breaker cooldown. -repl chains
// each backend's journal to its ring successor and arms the gateway's
// takeover (250ms after a node goes down) plus proactive
// drain-migration.
func selfhostHerd(o options, out *os.File) (func(), string, error) {
	var reg *faultinject.Registry
	if o.faults != "" {
		reg = faultinject.New()
		if err := reg.Arm(o.faults, o.faultSeed); err != nil {
			return nil, "", err
		}
		fmt.Fprintf(out, "thermload: fault points armed (seed %d): %s\n",
			o.faultSeed, strings.Join(reg.Points(), ", "))
	}

	var nodesMu sync.Mutex
	nodes := make([]*herdNode, 0, o.nodes)
	backends := make([]gateway.Backend, 0, o.nodes)
	cleanup := func() {
		nodesMu.Lock()
		snapshot := append([]*herdNode(nil), nodes...)
		nodesMu.Unlock()
		for _, n := range snapshot {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			n.srv.Drain(ctx)
			n.hs.Shutdown(ctx)
			cancel()
			if n.repl != nil {
				n.repl.Close()
			}
		}
	}
	cfg, err := daemonConfig(o)
	if err != nil {
		return nil, "", err
	}
	cfg.Faults = reg

	// The replication chain: each backend streams its journal to its
	// ring successor, resolved lazily per send against the same vnode
	// hash the gateway routes by — so the chain a streamer picks is the
	// chain takeover will consult. A node marked dead (kill9) stops
	// streaming AND stops being chosen as anyone's target, the wire
	// silence of a killed process.
	replPolicy, err := replication.ParsePolicy(o.repl)
	if err != nil {
		return nil, "", err
	}
	var (
		chainMu   sync.Mutex
		chainURL  = make(map[string]string)
		chainDead = make(map[string]bool)
		chainRing = gateway.NewRing(0)
	)
	newStreamer := func(name string) (*replication.Streamer, error) {
		if replPolicy == replication.PolicyNone {
			return nil, nil
		}
		return replication.New(replication.Options{
			Policy: replPolicy,
			Origin: name,
			Target: func() (string, string) {
				chainMu.Lock()
				defer chainMu.Unlock()
				if chainDead[name] {
					return "", ""
				}
				succ := chainRing.SuccessorOf(name)
				if succ == "" || chainDead[succ] {
					return "", ""
				}
				return succ, chainURL[succ]
			},
			Faults: reg,
		})
	}
	startBackend := func(name string) (*herdNode, error) {
		ncfg := cfg
		if o.repl != "" {
			st, err := newStreamer(name)
			if err != nil {
				return nil, err
			}
			ncfg.NodeName = name
			ncfg.Repl = st
		}
		srv, err := server.New(ncfg)
		if err != nil {
			if ncfg.Repl != nil {
				ncfg.Repl.Close()
			}
			return nil, err
		}
		srv.Start()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			sctx, cancel := context.WithTimeout(context.Background(), time.Second)
			srv.Drain(sctx)
			cancel()
			if ncfg.Repl != nil {
				ncfg.Repl.Close()
			}
			return nil, err
		}
		hs := &http.Server{Handler: srv}
		go hs.Serve(ln)
		n := &herdNode{name: name, srv: srv, hs: hs, ln: ln, repl: ncfg.Repl}
		chainMu.Lock()
		chainURL[name] = "http://" + ln.Addr().String()
		chainRing.Add(name)
		chainMu.Unlock()
		nodesMu.Lock()
		nodes = append(nodes, n)
		nodesMu.Unlock()
		return n, nil
	}
	for i := 0; i < o.nodes; i++ {
		n, err := startBackend(fmt.Sprintf("n%d", i))
		if err != nil {
			cleanup()
			return nil, "", err
		}
		backends = append(backends, gateway.Backend{Name: n.name, URL: "http://" + n.ln.Addr().String()})
	}

	gwCfg := gateway.Config{
		Backends:        backends,
		ProbeInterval:   250 * time.Millisecond,
		Faults:          reg,
		Hedge:           o.hedge,
		BreakerCooldown: time.Second,
		AdminToken:      selfhostAdminToken,
	}
	if o.repl != "" {
		// Arm takeover even under -repl none: the A/B's control arm runs
		// the same failover machinery against an empty replica store, so
		// the loss it measures is the ack policy's, not the harness's.
		gwCfg.TakeoverAfter = 250 * time.Millisecond
	}
	gw, err := gateway.New(gwCfg)
	if err != nil {
		cleanup()
		return nil, "", err
	}
	gw.Start()
	gln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		gw.Close()
		cleanup()
		return nil, "", err
	}
	ghs := &http.Server{Handler: gw}
	go ghs.Serve(gln)
	gwURL := "http://" + gln.Addr().String()

	// Chaos watchers: each polls its harness fault point; the armed
	// spec's delay/count/probability decide when (and whether) it fires,
	// and the watcher then runs its action once. Victims are always the
	// LAST initial backend — deterministic, so a test or CI assertion
	// knows which shard remapped.
	watchStop := make(chan struct{})
	var watchWG sync.WaitGroup
	watch := func(fire func() error, act func(fired error)) {
		if reg == nil {
			return
		}
		watchWG.Add(1)
		go func() {
			defer watchWG.Done()
			for {
				if err := fire(); err != nil {
					act(err)
					return
				}
				select {
				case <-watchStop:
					return
				//thermlint:timer -- chaos re-fire cadence against live processes
				case <-time.After(250 * time.Millisecond):
				}
			}
		}()
	}
	victim := nodes[len(nodes)-1]
	watch(func() error { return reg.Fire(faultBackendKill) }, func(fired error) {
		fmt.Fprintf(out, "thermload: CHAOS: killing backend %s (%v)\n", victim.name, fired)
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // expired deadline = abrupt drain
		victim.srv.Drain(ctx)
	})
	watch(func() error { return reg.Fire(faultBackendKill9) }, func(fired error) {
		fmt.Fprintf(out, "thermload: CHAOS: kill -9 backend %s (%v)\n", victim.name, fired)
		// Order matters: go wire-silent first (no farewell replication or
		// cancel events — a killed process sends nothing), then tear down
		// the listener and every live connection, then reap the workers.
		chainMu.Lock()
		chainDead[victim.name] = true
		chainMu.Unlock()
		victim.hs.Close()
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // expired deadline = immediate worker reap, nothing drains
		victim.srv.Drain(ctx)
	})
	watch(func() error { return reg.Fire(faultBackendJoin) }, func(fired error) {
		name := fmt.Sprintf("n%d", o.nodes)
		n, err := startBackend(name)
		if err != nil {
			fmt.Fprintf(out, "thermload: CHAOS: join of backend %s failed: %v\n", name, err)
			return
		}
		fmt.Fprintf(out, "thermload: CHAOS: joining backend %s mid-run (%v)\n", name, fired)
		err = adminCall(http.MethodPost, gwURL+"/v1/admin/nodes",
			map[string]string{"name": name, "url": "http://" + n.ln.Addr().String()})
		if err != nil {
			fmt.Fprintf(out, "thermload: CHAOS: admin add of %s failed: %v\n", name, err)
		}
	})
	watch(func() error { return reg.Fire(faultBackendDrain) }, func(fired error) {
		fmt.Fprintf(out, "thermload: CHAOS: draining backend %s mid-run (%v)\n", victim.name, fired)
		if err := adminCall(http.MethodPost, gwURL+"/v1/admin/nodes/"+victim.name+"/drain", nil); err != nil {
			fmt.Fprintf(out, "thermload: CHAOS: admin drain of %s failed: %v\n", victim.name, err)
		}
	})

	stop := func() {
		close(watchStop)
		watchWG.Wait()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		ghs.Shutdown(ctx)
		gw.Close()
		cleanup()
	}
	return stop, gwURL, nil
}
