package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"thermalherd/internal/clock"
	"thermalherd/internal/journal"
)

// blockingExec returns a stub executor that parks every job on release
// until the test sends (one job per send) or closes it (all jobs
// proceed). Jobs that proceed return a tiny fixed result.
func blockingExec(release chan struct{}) func(ctx context.Context, spec Spec, report progressFunc) (json.RawMessage, error) {
	return func(ctx context.Context, spec Spec, report progressFunc) (json.RawMessage, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return json.RawMessage(`{"ok":true}`), nil
	}
}

// fastExec completes every job immediately.
func fastExec(ctx context.Context, spec Spec, report progressFunc) (json.RawMessage, error) {
	return json.RawMessage(`{"ok":true}`), nil
}

// specBody renders a valid timing spec whose fast_forward knob makes
// it content-unique, so each job gets its own cache key.
func specBody(n int) string {
	return `{"kind":"timing","config":"TH","workload":"bitcount",
	         "depths":{"preset":"quick","fast_forward":` + itoa(3000+n) + `,"warmup":500,"measure":1000}}`
}

func itoa(n int) string {
	b, _ := json.Marshal(n)
	return string(b)
}

// waitAppends polls until the journal has absorbed want appends; the
// crash-image copy must not race an in-flight frame write.
func waitAppends(t *testing.T, s *Server, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if s.journal.Stats().Appends >= want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("journal appends never reached %d (at %d)", want, s.journal.Stats().Appends)
}

// liveMetrics renders a server's /metrics document without an HTTP
// round trip, decoded the way a client sees it.
func liveMetrics(t *testing.T, s *Server) map[string]any {
	t.Helper()
	b, err := json.Marshal(s.Metrics())
	if err != nil {
		t.Fatalf("encode metrics: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("decode metrics: %v", err)
	}
	return doc
}

// copyCrashImage snapshots a journal directory's files byte-for-byte
// into a fresh dir, simulating the on-disk state a kill -9 leaves.
func copyCrashImage(t *testing.T, from string) string {
	t.Helper()
	to := t.TempDir()
	ents, err := os.ReadDir(from)
	if err != nil {
		t.Fatalf("read journal dir: %v", err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatalf("read %s: %v", e.Name(), err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), b, 0o644); err != nil {
			t.Fatalf("write %s: %v", e.Name(), err)
		}
	}
	return to
}

// buildCrashImage runs a journaling server to a known mid-flight state
// — job 1 completed, job 2 started (executor parked), job 3 queued —
// and returns a point-in-time copy of its journal directory. The WAL
// holds exactly 4 events: accepted(1), accepted(2), accepted(3),
// completed(1).
func buildCrashImage(t *testing.T) (dir string, ids [3]string) {
	t.Helper()
	jdir := t.TempDir()
	s, err := New(Config{Workers: 1, QueueDepth: 8, CacheSize: 8, JournalDir: jdir, FsyncPolicy: "off"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	release := make(chan struct{})
	stubExec(s, blockingExec(release))
	s.Start()
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		close(release) // unpark whatever is still blocked so Drain finishes
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx)
	})

	for i := 0; i < 3; i++ {
		resp, st := postJob(t, ts, specBody(i))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d = %s, want 202", i, resp.Status)
		}
		ids[i] = st.ID
	}
	waitAppends(t, s, 3) // 3 accepted; the send below waits for the worker parked on job 1
	release <- struct{}{}
	waitState(t, ts, ids[0], StateDone)
	// Job 1's completed event brings the WAL to 4 frames; job 2's start
	// (the single worker moves straight on) writes none.
	waitAppends(t, s, 4)
	return copyCrashImage(t, jdir), ids
}

// TestRestartRecoversCrashImage boots a second server on a crash
// image: the completed job must come back terminal with its result and
// warm cache entry, the unfinished jobs must be re-enqueued and run to
// completion, and /readyz must report "recovering" until Start's
// replay completes.
func TestRestartRecoversCrashImage(t *testing.T) {
	dir, ids := buildCrashImage(t)

	s, err := New(Config{Workers: 1, QueueDepth: 8, CacheSize: 8, JournalDir: dir, FsyncPolicy: "off"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	stubExec(s, fastExec)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx)
	})

	// Between New and Start the replay has not been applied: the
	// readiness probe must steer traffic away.
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	var ready struct {
		Ready  bool   `json:"ready"`
		Reason string `json:"reason"`
	}
	json.NewDecoder(resp.Body).Decode(&ready)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || ready.Ready || ready.Reason != "recovering" {
		t.Fatalf("/readyz before Start = %d %+v, want 503 recovering", resp.StatusCode, ready)
	}

	s.Start()

	// The completed job survived with its result intact.
	st := getStatus(t, ts, ids[0])
	if st.State != StateDone {
		t.Fatalf("job %s after recovery = %s, want done", ids[0], st.State)
	}
	res, err := http.Get(ts.URL + "/v1/jobs/" + ids[0] + "/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK || string(body) != `{"ok":true}` {
		t.Fatalf("recovered result = %d %q, want the journaled document", res.StatusCode, body)
	}

	// The started-but-unfinished and queued jobs re-ran to completion.
	waitState(t, ts, ids[1], StateDone)
	waitState(t, ts, ids[2], StateDone)

	doc := metricsDoc(t, ts)
	if got := counter(t, doc, "journal", "replayed"); got != 4 {
		t.Errorf("journal.replayed = %v, want 4", got)
	}
	if got := counter(t, doc, "journal", "recovered_jobs"); got != 2 {
		t.Errorf("journal.recovered_jobs = %v, want 2", got)
	}
	if got := counter(t, doc, "jobs", "completed"); got != 3 {
		t.Errorf("completed = %v, want 3 (1 replayed + 2 re-run, never a double-count)", got)
	}
	// The recovered result warmed the cache: an identical resubmission
	// is a hit, not a third execution of job 1's spec.
	resp2, st2 := postJob(t, ts, specBody(0))
	if resp2.StatusCode != http.StatusOK || !st2.FromCache {
		t.Fatalf("resubmit after recovery = %d fromCache=%v, want 200 cached", resp2.StatusCode, st2.FromCache)
	}

	// After Start the probe is green again.
	resp3, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("/readyz after Start = %d, want 200", resp3.StatusCode)
	}

	// New submissions must not collide with recovered ids.
	resp4, st4 := postJob(t, ts, specBody(99))
	if resp4.StatusCode != http.StatusAccepted {
		t.Fatalf("fresh submit = %s, want 202", resp4.Status)
	}
	for _, id := range ids {
		if st4.ID == id {
			t.Fatalf("fresh job reused recovered id %s", id)
		}
	}
}

// TestTornWriteSweep is the crash-consistency acceptance test: for
// EVERY byte prefix of a real server's WAL, recovery must succeed
// without panicking, must never count a completed job twice, and must
// never re-enqueue a job the journal shows as terminal.
func TestTornWriteSweep(t *testing.T) {
	dir, ids := buildCrashImage(t)
	wal, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatalf("read wal: %v", err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, "snapshot.db"))
	if err != nil {
		t.Fatalf("read snapshot: %v", err)
	}
	if len(wal) == 0 {
		t.Fatal("crash image WAL is empty; the sweep would test nothing")
	}

	sweep := t.TempDir()
	for n := 0; n <= len(wal); n++ {
		if err := os.WriteFile(filepath.Join(sweep, "snapshot.db"), snap, 0o644); err != nil {
			t.Fatalf("prefix %d: seed snapshot: %v", n, err)
		}
		if err := os.WriteFile(filepath.Join(sweep, "wal.log"), wal[:n], 0o644); err != nil {
			t.Fatalf("prefix %d: seed wal: %v", n, err)
		}
		s, err := New(Config{Workers: 1, QueueDepth: 8, CacheSize: 8, JournalDir: sweep, FsyncPolicy: "off"})
		if err != nil {
			t.Fatalf("prefix %d: New: %v", n, err)
		}
		// applyReplay alone (no Start) keeps the sweep from spinning up
		// 2×len(wal) worker pools; it is exactly the recovery path.
		s.applyReplay()

		var done, pending int
		for id, j := range s.jobs {
			switch j.status().State {
			case StateDone, StateFailed, StateCanceled:
				done++
			default:
				pending++
			}
			if id != ids[0] && id != ids[1] && id != ids[2] {
				t.Fatalf("prefix %d: recovered unknown job id %s", n, id)
			}
		}
		doc := liveMetrics(t, s)
		if got := int(counter(t, doc, "jobs", "submitted")); got != len(s.jobs) {
			t.Fatalf("prefix %d: submitted = %d but table has %d jobs", n, got, len(s.jobs))
		}
		if got := counter(t, doc, "jobs", "completed"); got > 1 {
			t.Fatalf("prefix %d: completed = %v; a torn tail resurrected a completed job twice", n, got)
		}
		if got := s.sched.len(); got != pending {
			t.Fatalf("prefix %d: queue holds %d jobs but %d are pending (%d terminal) — a terminal job was re-enqueued",
				n, got, pending, done)
		}
		// The accounting identity holds modulo still-pending work.
		terminal := counter(t, doc, "cache", "hits") + counter(t, doc, "jobs", "completed") +
			counter(t, doc, "jobs", "failed") + counter(t, doc, "jobs", "canceled") + counter(t, doc, "jobs", "rejected")
		if submitted := counter(t, doc, "jobs", "submitted"); submitted != terminal+float64(pending) {
			t.Fatalf("prefix %d: submitted=%v != terminal %v + pending %d",
				n, submitted, terminal, pending)
		}
		s.journal.Close()
	}
}

// TestReplaySnapshotWALOverlap covers the crash window between
// snapshot rename and WAL truncation: the WAL still holds events the
// snapshot already folded in. Replay must apply them idempotently —
// one job, counted once.
func TestReplaySnapshotWALOverlap(t *testing.T) {
	dir := t.TempDir()
	jnl, _, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncOff})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	spec, _ := json.Marshal(map[string]string{"kind": "timing", "config": "TH", "workload": "bitcount"})
	res := json.RawMessage(`{"ok":1}`)
	accepted := journal.Event{Type: journal.EventAccepted, ID: "job-000001", Spec: spec, Key: "k1", At: "2026-08-06T00:00:00Z"}
	completed := journal.Event{Type: journal.EventCompleted, ID: "job-000001", Result: res, At: "2026-08-06T00:00:01Z"}
	jnl.Append(accepted)
	jnl.Append(completed)
	// Snapshot folds the done job in and truncates the WAL...
	if err := jnl.WriteSnapshot(journal.Snapshot{Jobs: []journal.JobRecord{{
		ID: "job-000001", Spec: spec, Key: "k1", State: string(StateDone), Result: res,
		Submitted: "2026-08-06T00:00:00Z", Finished: "2026-08-06T00:00:01Z",
	}}}); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	// ...then the "crash" resurrects the same events behind it, exactly
	// what a kill between rename and truncate leaves on disk.
	jnl.Append(accepted)
	jnl.Append(completed)
	jnl.Close()

	s, err := New(Config{Workers: 1, JournalDir: dir, FsyncPolicy: "off"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.applyReplay()
	defer s.journal.Close()
	if len(s.jobs) != 1 {
		t.Fatalf("job table has %d entries, want 1", len(s.jobs))
	}
	if got := counter(t, liveMetrics(t, s), "jobs", "completed"); got != 1 {
		t.Fatalf("completed = %v, want exactly 1 (idempotent overlap replay)", got)
	}
	if got := s.sched.len(); got != 0 {
		t.Fatalf("queue holds %d jobs; the done job must not re-run", got)
	}
}

// TestGracefulDrainWritesCleanClose is the drain-order regression
// test, on a fake clock for deterministic timestamps: Drain must
// cancel queued-but-unstarted jobs BEFORE waiting on the running one,
// journal those cancellations, and leave a clean-close snapshot a
// restart replays with zero WAL records.
func TestGracefulDrainWritesCleanClose(t *testing.T) {
	dir := t.TempDir()
	fake := clock.NewFake(time.Unix(1754000000, 0))
	s, err := New(Config{Workers: 1, QueueDepth: 8, CacheSize: 8,
		JournalDir: dir, FsyncPolicy: "always", Clock: fake})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	release := make(chan struct{})
	stubExec(s, blockingExec(release))
	s.Start()
	ts := httptest.NewServer(s)
	defer ts.Close()

	var ids [3]string
	for i := 0; i < 3; i++ {
		resp, st := postJob(t, ts, specBody(i))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d = %s", i, resp.Status)
		}
		ids[i] = st.ID
	}
	waitState(t, ts, ids[0], StateRunning)

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	// Drain order: the queued jobs are canceled synchronously before
	// the pool wait, while job 1 is still parked in its executor.
	for _, id := range ids[1:] {
		st := waitState(t, ts, id, StateCanceled)
		if st.Error == "" {
			t.Errorf("drained job %s has no cancellation reason", id)
		}
	}
	if st := getStatus(t, ts, ids[0]); st.State != StateRunning {
		t.Fatalf("running job was %s during drain, want running until released", st.State)
	}
	release <- struct{}{}
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v (want clean)", err)
	}
	waitState(t, ts, ids[0], StateDone)

	// The restart sees a clean close: snapshot only, zero WAL events.
	s2, err := New(Config{Workers: 1, JournalDir: dir, FsyncPolicy: "always", Clock: fake})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.journal.Close()
	rep := s2.replay
	if rep == nil || !rep.CleanClose {
		t.Fatalf("replay = %+v, want a clean close marker", rep)
	}
	if len(rep.Events) != 0 {
		t.Fatalf("clean restart replayed %d WAL events, want 0", len(rep.Events))
	}
	s2.applyReplay()
	if len(s2.jobs) != 3 {
		t.Fatalf("snapshot restored %d jobs, want 3", len(s2.jobs))
	}
	if got := s2.sched.len(); got != 0 {
		t.Fatalf("clean restart re-enqueued %d jobs, want 0 (all terminal)", got)
	}
	states := map[State]int{}
	for _, j := range s2.jobs {
		states[j.status().State]++
	}
	if states[StateDone] != 1 || states[StateCanceled] != 2 {
		t.Fatalf("recovered states = %v, want 1 done + 2 canceled", states)
	}
}

// TestIdempotencyDedupAcrossRestart: a key accepted before a clean
// restart must dedupe a resubmission after it — the journal carries
// the idempotency table.
func TestIdempotencyDedupAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Workers: 1, QueueDepth: 8, CacheSize: 8, JournalDir: dir, FsyncPolicy: "always"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	stubExec(s, fastExec)
	s.Start()
	ts := httptest.NewServer(s)

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(specBody(0)))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Idempotency-Key", "retry-me")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var st Status
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", resp.StatusCode)
	}
	waitState(t, ts, st.ID, StateDone)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	s.Drain(ctx)
	cancel()
	ts.Close()

	s2, err := New(Config{Workers: 1, QueueDepth: 8, CacheSize: 8, JournalDir: dir, FsyncPolicy: "always"})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	stubExec(s2, fastExec)
	s2.Start()
	ts2 := httptest.NewServer(s2)
	t.Cleanup(func() {
		ts2.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s2.Drain(ctx)
	})

	req2, _ := http.NewRequest(http.MethodPost, ts2.URL+"/v1/jobs", strings.NewReader(specBody(0)))
	req2.Header.Set("Content-Type", "application/json")
	req2.Header.Set("Idempotency-Key", "retry-me")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	var st2 Status
	json.NewDecoder(resp2.Body).Decode(&st2)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("resubmit across restart = %d, want 200 (deduped)", resp2.StatusCode)
	}
	if st2.ID != st.ID {
		t.Fatalf("dedup returned job %s, want original %s", st2.ID, st.ID)
	}
	doc := metricsDoc(t, ts2)
	if got := counter(t, doc, "jobs", "deduped"); got != 1 {
		t.Errorf("jobs.deduped = %v, want 1", got)
	}
	if got := counter(t, doc, "jobs", "completed"); got != 1 {
		t.Errorf("completed = %v, want 1 (the retry must not re-execute)", got)
	}
}
