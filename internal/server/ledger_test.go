package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"thermalherd/internal/clock"
	"thermalherd/internal/faultinject"
	"thermalherd/internal/journal"
)

// ledgerKeys pairs each global accounting identity counter in /metrics
// with its leaf in the per-tenant sub-documents.
var ledgerKeys = []struct{ section, name, leaf string }{
	{"jobs", "submitted", "submitted"},
	{"cache", "hits", "hits"},
	{"jobs", "completed", "completed"},
	{"jobs", "failed", "failed"},
	{"jobs", "canceled", "canceled"},
	{"jobs", "rejected", "rejected"},
	{"jobs", "migrated", "migrated"},
}

// checkLedger asserts every global identity counter equals the sum of
// its tenant counters and the expected value (keyed by tenant leaf
// name; absent means 0).
func checkLedger(t *testing.T, doc map[string]any, want map[string]float64) {
	t.Helper()
	tenants, ok := doc["tenants"].(map[string]any)
	if !ok {
		t.Fatalf("metrics missing tenants section: %v", doc)
	}
	for _, k := range ledgerKeys {
		global := counter(t, doc, k.section, k.name)
		var sum float64
		for _, td := range tenants {
			sum += td.(map[string]any)[k.leaf].(float64)
		}
		if global != sum {
			t.Errorf("%s.%s = %v but tenants sum to %v", k.section, k.name, global, sum)
		}
		if global != want[k.leaf] {
			t.Errorf("%s.%s = %v, want %v", k.section, k.name, global, want[k.leaf])
		}
	}
}

// submitAs POSTs one spec under a tenant and optional Idempotency-Key.
func submitAs(t *testing.T, ts *httptest.Server, tenant, idemKey, body string) (int, Status) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(TenantHeader, tenant)
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	var st Status
	json.NewDecoder(resp.Body).Decode(&st)
	return resp.StatusCode, st
}

// expectCode fails the test unless an admission answered want.
func expectCode(t *testing.T, what string, got, want int) {
	t.Helper()
	if got != want {
		t.Fatalf("%s = %d, want %d", what, got, want)
	}
}

// ledgerEvents is a journal holding one job per restorable state, each
// under its own tenant: a cache-hit completion, an executed
// completion, a failure, a cancellation, a migration, and an accepted
// job that never finished.
func ledgerEvents() []journal.Event {
	at := "2026-08-06T00:00:00Z"
	accepted := func(id, tenant string, n int) journal.Event {
		return journal.Event{Type: journal.EventAccepted, ID: id, Spec: json.RawMessage(specBody(n)),
			Key: "k-" + id, Tenant: tenant, At: at}
	}
	res := json.RawMessage(`{"ok":true}`)
	return []journal.Event{
		accepted("job-000001", "r1", 51),
		{Type: journal.EventCompleted, ID: "job-000001", Result: res, FromCache: true, At: at},
		accepted("job-000002", "r2", 52),
		{Type: journal.EventCompleted, ID: "job-000002", Result: res, At: at},
		accepted("job-000003", "r3", 53),
		{Type: journal.EventFailed, ID: "job-000003", Error: "boom", At: at},
		accepted("job-000004", "r4", 54),
		{Type: journal.EventCanceled, ID: "job-000004", Error: "canceled by client", At: at},
		accepted("job-000005", "r5", 55),
		{Type: journal.EventMigrated, ID: "job-000005", MigratedTo: "elsewhere", At: at},
		accepted("job-000006", "r6", 56),
	}
}

// TestAccountingAllSettlePaths drives every way a submission settles
// and checks that each global identity counter equals the sum of its
// tenant counters and a fixed expected value.
func TestAccountingAllSettlePaths(t *testing.T) {
	t.Run("cache-hit-and-dedup", func(t *testing.T) {
		s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, CacheSize: 8})
		stubExec(s, fastExec)
		code, st := submitAs(t, ts, "h1", "key-1", specBody(1))
		expectCode(t, "first submit", code, http.StatusAccepted)
		waitState(t, ts, st.ID, StateDone)
		code, _ = submitAs(t, ts, "h2", "", specBody(1))
		expectCode(t, "cache hit", code, http.StatusOK)
		code, _ = submitAs(t, ts, "h3", "key-1", specBody(2))
		expectCode(t, "dedup", code, http.StatusOK)
		checkLedger(t, metricsDoc(t, ts), map[string]float64{"submitted": 3, "hits": 2, "completed": 1})
	})

	t.Run("done-failed-panic-deadline", func(t *testing.T) {
		s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, CacheSize: 8, JobTimeout: 100 * time.Millisecond})
		stubExec(s, func(ctx context.Context, spec Spec, report progressFunc) (json.RawMessage, error) {
			switch spec.Depths.FastForward - 3000 {
			case 1:
				return nil, errors.New("executor error")
			case 2:
				panic("executor panic")
			case 3:
				<-ctx.Done()
				return nil, ctx.Err()
			}
			return json.RawMessage(`{"ok":true}`), nil
		})
		want := []State{StateDone, StateFailed, StateFailed, StateFailed}
		for i, state := range want {
			code, st := submitAs(t, ts, "e"+itoa(i), "", specBody(i))
			expectCode(t, "submit", code, http.StatusAccepted)
			waitState(t, ts, st.ID, state)
		}
		doc := metricsDoc(t, ts)
		checkLedger(t, doc, map[string]float64{"submitted": 4, "completed": 1, "failed": 3})
		if p, d := counter(t, doc, "jobs", "panics_recovered"), counter(t, doc, "jobs", "deadline_exceeded"); p != 1 || d != 1 {
			t.Errorf("panics_recovered = %v, deadline_exceeded = %v, want 1 each", p, d)
		}
	})

	t.Run("canceled-queued-and-running", func(t *testing.T) {
		s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, CacheSize: 8})
		stubExec(s, blockingExec(make(chan struct{})))
		_, running := submitAs(t, ts, "c1", "", specBody(1))
		waitState(t, ts, running.ID, StateRunning)
		_, queued := submitAs(t, ts, "c2", "", specBody(2))
		expectCode(t, "cancel queued", deleteJob(t, ts, queued.ID).StatusCode, http.StatusOK)
		waitState(t, ts, queued.ID, StateCanceled)
		expectCode(t, "cancel running", deleteJob(t, ts, running.ID).StatusCode, http.StatusOK)
		waitState(t, ts, running.ID, StateCanceled)
		checkLedger(t, metricsDoc(t, ts), map[string]float64{"submitted": 2, "canceled": 2})
	})

	t.Run("quota-brownout-admit-rejections", func(t *testing.T) {
		fake := clock.NewFake(time.Unix(1_700_000_000, 0))
		s, ts := chaosServer(t, Config{
			Workers: 1, QueueDepth: 8, CacheSize: 8,
			TenantRate: 0.001, TenantBurst: 1,
			BrownoutAfter: 40 * time.Millisecond,
			Clock:         fake,
		}, "queue.admit=error:admit refused,count:1", 1)
		release := make(chan struct{})
		stubExec(s, blockingExec(release))
		code, _ := submitAs(t, ts, "q1", "", specBody(1))
		expectCode(t, "admit-fault submit", code, http.StatusServiceUnavailable)
		code, running := submitAs(t, ts, "q2", "", specBody(2))
		expectCode(t, "running submit", code, http.StatusAccepted)
		waitState(t, ts, running.ID, StateRunning)
		code, queued := submitAs(t, ts, "q3", "", specBody(3))
		expectCode(t, "queued submit", code, http.StatusAccepted)
		code, _ = submitAs(t, ts, "q2", "", specBody(4))
		expectCode(t, "over-quota submit", code, http.StatusTooManyRequests)
		fake.Advance(80 * time.Millisecond) // age the queued job past BrownoutAfter
		code, _ = submitAs(t, ts, "q4", "", specBody(5))
		expectCode(t, "brownout submit", code, http.StatusTooManyRequests)
		close(release)
		waitState(t, ts, running.ID, StateDone)
		waitState(t, ts, queued.ID, StateDone)
		doc := metricsDoc(t, ts)
		checkLedger(t, doc, map[string]float64{"submitted": 5, "rejected": 3, "completed": 2})
		if q, b := counter(t, doc, "admission", "quota_rejects"), counter(t, doc, "admission", "brownout_rejects"); q != 1 || b != 1 {
			t.Errorf("quota_rejects = %v, brownout_rejects = %v, want 1 each", q, b)
		}
	})

	t.Run("quota-fault", func(t *testing.T) {
		s, ts := chaosServer(t, Config{Workers: 1, QueueDepth: 8, CacheSize: 8},
			"qos.quota=error:quota refused,count:1", 1)
		stubExec(s, fastExec)
		code, _ := submitAs(t, ts, "f1", "", specBody(1))
		expectCode(t, "quota-fault submit", code, http.StatusTooManyRequests)
		code, st := submitAs(t, ts, "f2", "", specBody(2))
		expectCode(t, "next submit", code, http.StatusAccepted)
		waitState(t, ts, st.ID, StateDone)
		doc := metricsDoc(t, ts)
		checkLedger(t, doc, map[string]float64{"submitted": 2, "rejected": 1, "completed": 1})
		if q := counter(t, doc, "admission", "quota_rejects"); q != 1 {
			t.Errorf("quota_rejects = %v, want 1", q)
		}
	})

	t.Run("queue-full-and-journal-refused", func(t *testing.T) {
		reg := faultinject.New()
		s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, CacheSize: 8,
			JournalDir: t.TempDir(), FsyncPolicy: "off", Faults: reg})
		release := make(chan struct{})
		stubExec(s, blockingExec(release))
		code, running := submitAs(t, ts, "j1", "", specBody(1))
		expectCode(t, "running submit", code, http.StatusAccepted)
		waitState(t, ts, running.ID, StateRunning)
		code, queued := submitAs(t, ts, "j2", "", specBody(2))
		expectCode(t, "queued submit", code, http.StatusAccepted)
		code, _ = submitAs(t, ts, "j3", "", specBody(3))
		expectCode(t, "queue-full submit", code, http.StatusServiceUnavailable)
		if err := reg.Arm("journal.append=error:disk gone,count:1", 1); err != nil {
			t.Fatal(err)
		}
		code, _ = submitAs(t, ts, "j4", "", specBody(4))
		expectCode(t, "journal-refused submit", code, http.StatusServiceUnavailable)
		close(release)
		waitState(t, ts, running.ID, StateDone)
		waitState(t, ts, queued.ID, StateDone)
		checkLedger(t, metricsDoc(t, ts), map[string]float64{"submitted": 4, "rejected": 2, "completed": 2})
	})

	t.Run("drain-queued-and-draining-submits", func(t *testing.T) {
		s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, CacheSize: 8})
		release := make(chan struct{})
		stubExec(s, blockingExec(release))
		_, running := submitAs(t, ts, "d1", "", specBody(1))
		waitState(t, ts, running.ID, StateRunning)
		_, queued := submitAs(t, ts, "d2", "", specBody(2))
		drained := make(chan error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			drained <- s.Drain(ctx)
		}()
		waitState(t, ts, queued.ID, StateCanceled)
		code, _ := submitAs(t, ts, "d3", "", specBody(3))
		expectCode(t, "submit while draining", code, http.StatusServiceUnavailable)
		resp, _ := submitBatch(t, ts.URL, `{"jobs":[`+specBody(4)+`,`+specBody(5)+`],"tenants":["d4","d5"]}`)
		expectCode(t, "batch while draining", resp.StatusCode, http.StatusServiceUnavailable)
		close(release)
		if err := <-drained; err != nil {
			t.Fatalf("Drain = %v, want a clean drain", err)
		}
		checkLedger(t, metricsDoc(t, ts), map[string]float64{"submitted": 5, "canceled": 1, "rejected": 3, "completed": 1})
	})

	t.Run("watchdog-reap", func(t *testing.T) {
		s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, CacheSize: 8,
			StuckAfter: 80 * time.Millisecond, WatchdogInterval: 10 * time.Millisecond})
		unstick := make(chan struct{})
		stubExec(s, func(ctx context.Context, spec Spec, report progressFunc) (json.RawMessage, error) {
			<-unstick // hard-stuck: ignores ctx entirely
			return json.RawMessage(`{"ok":true}`), nil
		})
		_, st := submitAs(t, ts, "w1", "", specBody(1))
		waitState(t, ts, st.ID, StateFailed)
		want := map[string]float64{"submitted": 1, "failed": 1}
		checkLedger(t, metricsDoc(t, ts), want)
		// The abandoned executor returns a result; its settle finds the
		// job already claimed and counts nothing.
		close(unstick)
		deadline := time.Now().Add(5 * time.Second)
		for counter(t, metricsDoc(t, ts), "jobs", "running") != 0 {
			if time.Now().After(deadline) {
				t.Fatal("abandoned executor never returned")
			}
			time.Sleep(5 * time.Millisecond)
		}
		doc := metricsDoc(t, ts)
		checkLedger(t, doc, want)
		if got := counter(t, doc, "workers", "restarts"); got != 1 {
			t.Errorf("workers.restarts = %v, want 1", got)
		}
	})

	t.Run("refused-requeues", func(t *testing.T) {
		s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, CacheSize: 8, NodeName: "b"})
		release := make(chan struct{})
		stubExec(s, blockingExec(release))
		_, running := submitAs(t, ts, "r1", "", specBody(1))
		waitState(t, ts, running.ID, StateRunning)
		_, queued := submitAs(t, ts, "r2", "", specBody(2))
		// A closed scheduler refuses every requeue: the migration
		// revert's and the adoption's.
		s.sched.close()
		dead := httptest.NewServer(http.NotFoundHandler())
		dead.Close()
		mresp, err := http.Post(ts.URL+"/v1/migrate", "application/json",
			strings.NewReader(`{"target_name":"x","target_url":"`+dead.URL+`"}`))
		if err != nil {
			t.Fatalf("migrate: %v", err)
		}
		mresp.Body.Close()
		expectCode(t, "migrate to a dead target", mresp.StatusCode, http.StatusBadGateway)
		waitState(t, ts, queued.ID, StateCanceled)
		frames, err := journal.EncodeFrames(ledgerEvents()[10:]) // job-000006: accepted, never finished
		if err != nil {
			t.Fatal(err)
		}
		presp, err := http.Post(ts.URL+"/v1/replica/a", "application/octet-stream", strings.NewReader(string(frames)))
		if err != nil {
			t.Fatalf("replica append: %v", err)
		}
		presp.Body.Close()
		aresp, err := http.Post(ts.URL+"/v1/replica/a/adopt", "application/json", nil)
		if err != nil {
			t.Fatalf("adopt: %v", err)
		}
		aresp.Body.Close()
		expectCode(t, "adopt", aresp.StatusCode, http.StatusOK)
		waitState(t, ts, "job-000006@a", StateCanceled)
		close(release)
		waitState(t, ts, running.ID, StateDone)
		checkLedger(t, metricsDoc(t, ts), map[string]float64{"submitted": 3, "canceled": 2, "completed": 1})
	})

	t.Run("migrated-and-adopted-by-migration", func(t *testing.T) {
		sb, tsb := newTestServer(t, Config{Workers: 1, QueueDepth: 8, CacheSize: 8, NodeName: "b"})
		stubExec(sb, fastExec)
		sa, tsa := newTestServer(t, Config{Workers: 1, QueueDepth: 8, CacheSize: 8, NodeName: "a"})
		release := make(chan struct{})
		stubExec(sa, blockingExec(release))
		_, running := submitAs(t, tsa, "m1", "", specBody(1))
		waitState(t, tsa, running.ID, StateRunning)
		_, queued := submitAs(t, tsa, "m2", "", specBody(2))
		body := `{"target_name":"b","target_url":"` + tsb.URL + `"}`
		mresp, err := http.Post(tsa.URL+"/v1/migrate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("migrate: %v", err)
		}
		mresp.Body.Close()
		expectCode(t, "migrate", mresp.StatusCode, http.StatusOK)
		waitState(t, tsb, queued.ID+"@a", StateDone)
		close(release)
		waitState(t, tsa, running.ID, StateDone)
		checkLedger(t, metricsDoc(t, tsa), map[string]float64{"submitted": 2, "migrated": 1, "completed": 1})
		checkLedger(t, metricsDoc(t, tsb), map[string]float64{"submitted": 1, "completed": 1})
	})

	restored := map[string]float64{"submitted": 6, "hits": 1, "completed": 2, "failed": 1, "canceled": 1, "migrated": 1}

	t.Run("recovered", func(t *testing.T) {
		dir := t.TempDir()
		jnl, _, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncOff})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		for _, ev := range ledgerEvents() {
			if err := jnl.Append(ev); err != nil {
				t.Fatalf("Append: %v", err)
			}
		}
		jnl.Close()
		s, err := New(Config{Workers: 1, QueueDepth: 8, CacheSize: 8, JournalDir: dir, FsyncPolicy: "off"})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		stubExec(s, fastExec)
		s.Start()
		ts := httptest.NewServer(s)
		t.Cleanup(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			s.Drain(ctx)
		})
		waitState(t, ts, "job-000006", StateDone)
		checkLedger(t, metricsDoc(t, ts), restored)
	})

	t.Run("adopted", func(t *testing.T) {
		s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, CacheSize: 8, NodeName: "b"})
		stubExec(s, fastExec)
		frames, err := journal.EncodeFrames(ledgerEvents())
		if err != nil {
			t.Fatal(err)
		}
		presp, err := http.Post(ts.URL+"/v1/replica/a", "application/octet-stream", strings.NewReader(string(frames)))
		if err != nil {
			t.Fatalf("replica append: %v", err)
		}
		presp.Body.Close()
		aresp, err := http.Post(ts.URL+"/v1/replica/a/adopt", "application/json", nil)
		if err != nil {
			t.Fatalf("adopt: %v", err)
		}
		aresp.Body.Close()
		expectCode(t, "adopt", aresp.StatusCode, http.StatusOK)
		waitState(t, ts, "job-000006@a", StateDone)
		checkLedger(t, metricsDoc(t, ts), restored)
	})
}

// TestLegacyWALRestoresTable replays a WAL in the format older
// binaries wrote — a started record per executed job — and checks it
// restores the same table: the finished job keeps its result and
// started_at, and the started-only job is requeued as never started.
func TestLegacyWALRestoresTable(t *testing.T) {
	dir := t.TempDir()
	jnl, _, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncOff})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for _, ev := range []journal.Event{
		{Type: journal.EventAccepted, ID: "job-000001", Spec: json.RawMessage(specBody(1)), Key: "k1", At: "2026-08-06T00:00:00Z"},
		{Type: journal.EventStarted, ID: "job-000001", At: "2026-08-06T00:00:01Z"},
		{Type: journal.EventCompleted, ID: "job-000001", Result: json.RawMessage(`{"ok":1}`), At: "2026-08-06T00:00:02Z"},
		{Type: journal.EventAccepted, ID: "job-000002", Spec: json.RawMessage(specBody(2)), Key: "k2", At: "2026-08-06T00:00:03Z"},
		{Type: journal.EventStarted, ID: "job-000002", At: "2026-08-06T00:00:04Z"},
	} {
		if err := jnl.Append(ev); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	jnl.Close()

	s, err := New(Config{Workers: 1, QueueDepth: 8, CacheSize: 8, JournalDir: dir, FsyncPolicy: "off"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.journal.Close()
	s.applyReplay()

	done, ok := s.lookup("job-000001")
	if !ok {
		t.Fatal("finished job not restored")
	}
	st := done.status()
	if st.State != StateDone || st.SubmittedAt != "2026-08-06T00:00:00Z" ||
		st.StartedAt != "2026-08-06T00:00:01Z" || st.FinishedAt != "2026-08-06T00:00:02Z" {
		t.Fatalf("finished job = %+v, want done with its journaled timestamps", st)
	}
	if _, res, _ := done.snapshotResult(); string(res) != `{"ok":1}` {
		t.Fatalf("finished job result = %s, want the journaled document", res)
	}
	open, ok := s.lookup("job-000002")
	if !ok {
		t.Fatal("started-only job not restored")
	}
	if st := open.status(); st.State != StateQueued || st.StartedAt != "" {
		t.Fatalf("started-only job = %+v, want queued and never started", st)
	}
	if got := s.sched.len(); got != 1 {
		t.Fatalf("queue holds %d jobs, want the started-only job requeued", got)
	}
	if got := s.replayStats.recovered; got != 1 {
		t.Fatalf("recovered_jobs = %d, want 1", got)
	}
}

// TestTerminalEventRestoresStartedAt crashes a server after one job
// completed and one panicked, then restores from the WAL: both keep
// the started_at and the error their live statuses showed, read from
// the terminal events alone.
func TestTerminalEventRestoresStartedAt(t *testing.T) {
	jdir := t.TempDir()
	s, err := New(Config{Workers: 1, QueueDepth: 8, CacheSize: 8, JournalDir: jdir, FsyncPolicy: "off"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	stubExec(s, func(ctx context.Context, spec Spec, report progressFunc) (json.RawMessage, error) {
		if spec.Depths.FastForward == 3002 {
			panic("executor panic")
		}
		return json.RawMessage(`{"ok":true}`), nil
	})
	s.Start()
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	_, first := postJob(t, ts, specBody(1))
	live1 := waitState(t, ts, first.ID, StateDone)
	_, second := postJob(t, ts, specBody(2))
	live2 := waitState(t, ts, second.ID, StateFailed)
	waitAppends(t, s, 4) // accepted + terminal per job
	dir := copyCrashImage(t, jdir)
	wal, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if events, _ := journal.DecodeFrames(wal); len(events) != 4 {
		t.Fatalf("WAL holds %d records, want accepted + terminal for each of 2 jobs", len(events))
	}

	s2, err := New(Config{Workers: 1, QueueDepth: 8, CacheSize: 8, JournalDir: dir, FsyncPolicy: "off"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s2.journal.Close()
	s2.applyReplay()
	for _, live := range []Status{live1, live2} {
		j, ok := s2.lookup(live.ID)
		if !ok {
			t.Fatalf("job %s not restored", live.ID)
		}
		got := j.status()
		if live.StartedAt == "" || got.StartedAt != live.StartedAt {
			t.Errorf("job %s started_at = %q, want the live %q", live.ID, got.StartedAt, live.StartedAt)
		}
		if got.State != live.State || got.Error != live.Error {
			t.Errorf("job %s restored as %s %q, want %s %q", live.ID, got.State, got.Error, live.State, live.Error)
		}
	}
}
