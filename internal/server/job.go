package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"thermalherd/internal/clock"
	"thermalherd/internal/config"
	"thermalherd/internal/experiments"
	"thermalherd/internal/journal"
	"thermalherd/internal/qos"
	"thermalherd/internal/trace"
)

// Kind selects what a job runs.
type Kind string

const (
	// KindTiming runs one workload through the cycle-level model under
	// one machine configuration.
	KindTiming Kind = "timing"
	// KindThermal additionally computes the power breakdown and solves
	// the steady-state 3D thermal stack.
	KindThermal Kind = "thermal"
	// KindExperiment runs one section of the paper reproduction (the
	// cmd/repro sections).
	KindExperiment Kind = "experiment"
)

// Kinds lists every job kind.
func Kinds() []Kind { return []Kind{KindTiming, KindThermal, KindExperiment} }

// Depths selects simulation depths, mapping onto experiments.Options.
// The zero value means the "quick" preset.
type Depths struct {
	// Preset is "quick" (default) or "default"; the explicit fields
	// below override individual preset values.
	Preset      string `json:"preset,omitempty"`
	FastForward uint64 `json:"fast_forward,omitempty"`
	Warmup      uint64 `json:"warmup,omitempty"`
	Measure     uint64 `json:"measure,omitempty"`
	Grid        int    `json:"grid,omitempty"` // at most maxGrid
}

// maxGrid caps Depths.Grid. A thermal solve's memory grows with the
// square of the grid, and running out of memory kills the whole
// daemon, so an unbounded grid would let one submission take it down.
const maxGrid = 128

// options resolves the depths into concrete simulation options.
func (d Depths) options() (experiments.Options, error) {
	var o experiments.Options
	switch d.Preset {
	case "", "quick":
		o = experiments.QuickOptions()
	case "default":
		o = experiments.DefaultOptions()
	default:
		return o, fmt.Errorf("unknown depth preset %q (want quick or default)", d.Preset)
	}
	if d.FastForward > 0 {
		o.FastForwardInsts = d.FastForward
	}
	if d.Warmup > 0 {
		o.WarmupInsts = d.Warmup
	}
	if d.Measure > 0 {
		o.MeasureInsts = d.Measure
	}
	if d.Grid > maxGrid {
		return o, fmt.Errorf("depths.grid %d exceeds the maximum %d", d.Grid, maxGrid)
	}
	if d.Grid > 0 {
		o.Grid = d.Grid
	}
	return o, nil
}

// Sections lists the experiment sections KindExperiment accepts, in
// cmd/repro order.
func Sections() []string {
	return []string{"table1", "table2", "fig8", "fig9", "fig10", "density", "width"}
}

// Spec is the POST /v1/jobs submission payload.
type Spec struct {
	Kind Kind `json:"kind"`
	// Config names a machine configuration (GET /v1/configs); it
	// defaults to "3D". Used by timing and thermal jobs.
	Config string `json:"config,omitempty"`
	// Workload names a trace profile (GET /v1/workloads). Required for
	// timing and thermal jobs; optional reference app for fig10.
	Workload string `json:"workload,omitempty"`
	// Section names the reproduction section for experiment jobs.
	Section string `json:"section,omitempty"`
	// Depths selects the simulation depth.
	Depths Depths `json:"depths,omitempty"`
}

// normalize applies defaults and validates the spec in place.
func (s *Spec) normalize() error {
	switch s.Kind {
	case KindTiming, KindThermal:
		if s.Config == "" {
			s.Config = "3D"
		}
		if _, err := config.ByName(s.Config); err != nil {
			return err
		}
		if s.Workload == "" {
			return fmt.Errorf("%s job requires a workload (see GET /v1/workloads)", s.Kind)
		}
		if _, err := trace.ProfileByName(s.Workload); err != nil {
			return err
		}
		if s.Section != "" {
			return fmt.Errorf("%s job does not take a section", s.Kind)
		}
	case KindExperiment:
		ok := false
		for _, name := range Sections() {
			if s.Section == name {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("unknown experiment section %q (want one of %v)", s.Section, Sections())
		}
		if s.Section == "fig10" && s.Workload == "" {
			s.Workload = "mpeg2enc"
		}
		if s.Workload != "" {
			if _, err := trace.ProfileByName(s.Workload); err != nil {
				return err
			}
		}
		if s.Config != "" {
			return fmt.Errorf("experiment job does not take a config (sections fix their own)")
		}
	case "":
		return fmt.Errorf("missing job kind (want one of %v)", Kinds())
	default:
		return fmt.Errorf("unknown job kind %q (want one of %v)", s.Kind, Kinds())
	}
	if s.Depths.Preset == "" {
		s.Depths.Preset = "quick"
	}
	if _, err := s.Depths.options(); err != nil {
		return err
	}
	return nil
}

// marshalSpec is json.Marshal behind a seam so the regression test
// for the unmarshalable-spec path can force a failure; Spec's fields
// cannot produce one organically.
var marshalSpec = json.Marshal

// CanonicalHash normalizes a copy of the spec and returns its
// canonical content address — the hash the result cache keys on, the
// gateway's consistent-hash ring places by, and the spec_hash field of
// job statuses. Field order in the submitted JSON cannot affect it:
// decoding into Spec already erased any ordering, and the hash is
// computed from the normalized struct's fixed-order encoding.
func (s Spec) CanonicalHash() (string, error) {
	if err := s.normalize(); err != nil {
		return "", err
	}
	return s.cacheKey()
}

// cacheKey returns the content address of a normalized spec: a
// canonical hash over (kind, config, workload, section, depths). Two
// submissions with the same key compute the same result. A spec the
// encoder rejects surfaces as an error (mapped to a 400 by the submit
// path) rather than a daemon-killing panic.
func (s Spec) cacheKey() (string, error) {
	// Specs are flat with a fixed field order, so the JSON encoding is
	// canonical once normalized.
	b, err := marshalSpec(s)
	if err != nil {
		return "", fmt.Errorf("spec not marshalable: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// State is a job's lifecycle state.
type State string

// Job lifecycle: queued → running → done | failed | canceled.
// Queued jobs may also go straight to canceled, or — under drain
// herding — to migrated (terminal locally; the job now lives on the
// node named by MigratedTo).
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
	StateMigrated State = "migrated"
)

// stateHeld is the durable state of a queued job that migration is
// shipping to another node: no worker, cancel or drain can take it,
// and clients still see it queued. It is never published or
// journaled as an event; a snapshot taken meanwhile restores it as
// queued.
const stateHeld State = "held"

// terminalEvents names the journal event that records each terminal
// state.
var terminalEvents = map[State]journal.EventType{
	StateDone:     journal.EventCompleted,
	StateFailed:   journal.EventFailed,
	StateCanceled: journal.EventCanceled,
	StateMigrated: journal.EventMigrated,
}

// Progress counts completed versus total units of work (workload
// simulations for most kinds).
type Progress struct {
	Completed int `json:"completed"`
	Total     int `json:"total"`
}

// Status is the JSON representation of a job visible to clients.
type Status struct {
	ID   string `json:"id"`
	Kind Kind   `json:"kind"`
	// SpecHash is the canonical content address of the job's normalized
	// spec (Spec.CanonicalHash): the key the result cache dedupes on and
	// the gateway's hash ring places by. Clients and tests use it to
	// verify placement without recomputing the hash.
	SpecHash string `json:"spec_hash,omitempty"`
	State    State  `json:"state"`
	Error    string `json:"error,omitempty"`
	// Tenant is who submitted the job (the X-Tenant-ID header,
	// defaulting to "default"); Class is the cost predictor's verdict at
	// admission ("short" or "long", empty for jobs answered from cache);
	// Demoted marks a predicted-short job the scheduler demoted to the
	// long pool mid-flight for overrunning its class budget.
	Tenant    string   `json:"tenant,omitempty"`
	Class     string   `json:"class,omitempty"`
	Demoted   bool     `json:"demoted,omitempty"`
	Progress  Progress `json:"progress"`
	FromCache bool     `json:"from_cache,omitempty"`
	// MigratedTo names the node that adopted this job when its state is
	// migrated; the gateway chases status polls there.
	MigratedTo  string `json:"migrated_to,omitempty"`
	SubmittedAt string `json:"submitted_at"`
	StartedAt   string `json:"started_at,omitempty"`
	FinishedAt  string `json:"finished_at,omitempty"`
}

// job is the server-side record of one submission.
type job struct {
	id   string
	spec Spec
	key  string
	clk  clock.Clock
	// tenant is the submitting tenant (set once at admission/recovery,
	// before the job is published); pkey is the predictor bucket the
	// cost predictor indexes by (derived from the normalized spec).
	tenant string
	pkey   string

	// ctx is canceled by DELETE /v1/jobs/{id} or a drain deadline; the
	// runner observes it between simulation phases.
	ctx    context.Context
	cancel context.CancelFunc

	// abandoned is closed by the watchdog when it settles an overdue
	// job and retires the worker slot stuck on it; the worker selects
	// on it to exit in favor of its replacement.
	abandoned chan struct{}

	mu sync.Mutex
	// state is the durable view — what the journal, compaction, the
	// watchdog and the settle-once claim read — and shown is what
	// clients see. They differ only while a claimed transition waits
	// for settle to journal and publish it (or migration holds the job).
	// err, result, migratedTo and finished belong to state: status and
	// snapshotResult hide them until it is published.
	state     State
	shown     State
	err       string
	result    json.RawMessage
	progress  Progress
	fromCache bool
	class     string // "short"/"long", or "" for jobs never classified
	demoted   bool
	// migratedTo names the node a migrated job was herded to; adopted
	// marks a job this node took over from a dead or draining peer (the
	// /readyz "recovering" frontier is the set of adopted non-terminal
	// jobs).
	migratedTo string
	adopted    bool
	submitted  time.Time
	started    time.Time
	finished   time.Time
}

func newJob(id string, spec Spec, clk clock.Clock) (*job, error) {
	key, err := spec.cacheKey()
	if err != nil {
		return nil, err
	}
	if clk == nil {
		clk = clock.Real()
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &job{
		id:        id,
		spec:      spec,
		key:       key,
		pkey:      predictorKey(spec),
		clk:       clk,
		ctx:       ctx,
		cancel:    cancel,
		abandoned: make(chan struct{}),
		state:     StateQueued,
		shown:     StateQueued,
		submitted: clk.Now(),
	}, nil
}

// status snapshots the job for clients.
func (j *job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:          j.id,
		Kind:        j.spec.Kind,
		SpecHash:    j.key,
		State:       j.shown,
		Error:       j.err,
		Tenant:      j.tenant,
		Class:       j.class,
		Demoted:     j.demoted,
		Progress:    j.progress,
		FromCache:   j.fromCache,
		MigratedTo:  j.migratedTo,
		SubmittedAt: j.submitted.Format(time.RFC3339Nano),
	}
	if !j.started.IsZero() {
		st.StartedAt = j.started.Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		st.FinishedAt = j.finished.Format(time.RFC3339Nano)
	}
	if j.shown != j.state {
		st.Error, st.MigratedTo, st.FinishedAt = "", "", "" // not yet published
	}
	return st
}

// tryStart transitions queued → running; it reports false if the job
// was canceled while still queued.
func (j *job) tryStart() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state, j.shown = StateRunning, StateRunning
	j.started = j.clk.Now()
	return true
}

// setProgress updates the progress counters.
func (j *job) setProgress(completed, total int) {
	j.mu.Lock()
	j.progress = Progress{Completed: completed, Total: total}
	j.mu.Unlock()
}

// claim is the settle-once compare-and-swap every terminal transition
// goes through: it moves the durable state from → to and records the
// outcome (detail is the error message, or the adopting node for
// StateMigrated). It reports false without touching the job when the
// job is not in from, which keeps the worker, the watchdog, a
// straggling abandoned executor, cancel, drain and migration from
// settling one job twice. Clients see nothing of it until publish.
func (j *job) claim(from, to State, result json.RawMessage, detail string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != from {
		return false
	}
	j.state, j.result, j.err, j.migratedTo = to, result, detail, ""
	if to == StateMigrated {
		j.err, j.migratedTo = "", detail
	}
	j.finished = j.clk.Now()
	if to == StateDone && j.progress.Total > 0 {
		j.progress.Completed = j.progress.Total
	}
	return true
}

// unclaim drops a claim that was never published, returning the
// durable view to what clients see; migration uses it to release held
// jobs when the handoff fails.
func (j *job) unclaim() {
	j.mu.Lock()
	j.state, j.result, j.err, j.migratedTo, j.finished = j.shown, nil, "", "", time.Time{}
	j.mu.Unlock()
}

// publish makes the claimed transition visible to clients and releases
// the job's context.
func (j *job) publish() {
	j.mu.Lock()
	j.shown = j.state
	j.mu.Unlock()
	j.cancel()
}

// setClass records the cost predictor's admission verdict.
func (j *job) setClass(c qos.Class) {
	j.mu.Lock()
	j.class = c.String()
	j.mu.Unlock()
}

// qclass returns the job's current class for scheduling; unclassified
// jobs parse as short (the optimistic default).
func (j *job) qclass() qos.Class {
	j.mu.Lock()
	defer j.mu.Unlock()
	return qos.ParseClass(j.class)
}

// markDemoted flips the job to the long class and flags the demotion
// for status visibility.
func (j *job) markDemoted() {
	j.mu.Lock()
	j.class = qos.ClassLong.String()
	j.demoted = true
	j.mu.Unlock()
}

// startedAt returns when the job began running (zero if it never did).
func (j *job) startedAt() time.Time {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.started
}

// runningSince reports whether the job has been running since before
// cutoff; the watchdog's overdue test.
func (j *job) runningSince(cutoff time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state == StateRunning && !j.started.IsZero() && j.started.Before(cutoff)
}

// finishFromCache completes a job immediately with a cached result.
func (j *job) finishFromCache(result json.RawMessage) {
	j.mu.Lock()
	j.fromCache = true
	j.state, j.shown = StateDone, StateDone
	j.result = result
	now := j.clk.Now()
	j.started, j.finished = now, now
	j.mu.Unlock()
	j.cancel()
}

// markAdopted flags a job taken over from a dead or draining peer.
func (j *job) markAdopted() {
	j.mu.Lock()
	j.adopted = true
	j.mu.Unlock()
}

// adoptedPending reports whether this is an adopted job that has not
// yet settled — the /readyz "recovering" frontier.
func (j *job) adoptedPending() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.adopted && (j.state == StateQueued || j.state == StateRunning)
}

// snapshotResult returns the published state and, once published,
// its result and error.
func (j *job) snapshotResult() (State, json.RawMessage, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.shown != j.state {
		return j.shown, nil, ""
	}
	return j.state, j.result, j.err
}

// record renders the job as a journal snapshot entry.
func (j *job) record(idemKey string) journal.JobRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	spec, _ := marshalSpec(j.spec)
	rec := journal.JobRecord{
		ID:         j.id,
		Spec:       spec,
		Key:        j.key,
		IdemKey:    idemKey,
		Tenant:     j.tenant,
		State:      string(j.state),
		Error:      j.err,
		Result:     j.result,
		FromCache:  j.fromCache,
		MigratedTo: j.migratedTo,
		Submitted:  j.submitted.Format(time.RFC3339Nano),
	}
	if !j.started.IsZero() {
		rec.Started = j.started.Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		rec.Finished = j.finished.Format(time.RFC3339Nano)
	}
	return rec
}

// terminalEvent renders a settled job's terminal transition for the
// journal. Every settle path journals through it, so the record always
// matches the status clients see, and carries the start time so a
// restored job keeps its started_at.
func (j *job) terminalEvent() journal.Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	ev := journal.Event{Type: terminalEvents[j.state], ID: j.id, Error: j.err, Result: j.result,
		FromCache: j.fromCache, MigratedTo: j.migratedTo}
	if !j.started.IsZero() {
		ev.Started = j.started.Format(time.RFC3339Nano)
	}
	return ev
}

// parseEventTime is lenient: journal timestamps are advisory metadata,
// and a record with an unparsable one still recovers (with a zero
// time) rather than aborting replay.
func parseEventTime(s string) time.Time {
	t, _ := time.Parse(time.RFC3339Nano, s)
	return t
}

// newJobFromRecord rebuilds a job from a journal snapshot entry (or a
// record synthesized from replayed events). Recovered pending jobs
// come back as queued — a job that was running when the process died
// restarts from scratch, which is safe because execution is
// deterministic and results are content-addressed.
func newJobFromRecord(rec journal.JobRecord, clk clock.Clock) (*job, error) {
	var spec Spec
	if err := json.Unmarshal(rec.Spec, &spec); err != nil {
		return nil, fmt.Errorf("job %s: bad journaled spec: %w", rec.ID, err)
	}
	if clk == nil {
		clk = clock.Real()
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		id:        rec.ID,
		spec:      spec,
		key:       rec.Key,
		pkey:      predictorKey(spec),
		tenant:    tenantOrDefault(rec.Tenant),
		clk:       clk,
		ctx:       ctx,
		cancel:    cancel,
		abandoned: make(chan struct{}),
		err:       rec.Error,
		result:    rec.Result,
		fromCache: rec.FromCache,
		submitted: parseEventTime(rec.Submitted),
		started:   parseEventTime(rec.Started),
		finished:  parseEventTime(rec.Finished),
	}
	if _, terminal := terminalEvents[State(rec.State)]; terminal {
		// Terminal (locally, for a migrated job: the adopting node owns
		// it now); release the context immediately.
		j.state, j.migratedTo = State(rec.State), rec.MigratedTo
		j.cancel()
	} else {
		// queued, running or held by a migration: all restart from the
		// queue.
		j.state, j.started, j.finished, j.err, j.result = StateQueued, time.Time{}, time.Time{}, "", nil
	}
	j.shown = j.state
	return j, nil
}
