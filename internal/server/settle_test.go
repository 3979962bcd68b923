package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"thermalherd/internal/faultinject"
	"thermalherd/internal/journal"
	"thermalherd/internal/replication"
)

// replicaGate fronts a successor and holds every replica POST that
// carries a terminal record until release is closed; accepted records
// pass straight through, so submissions are still acked.
type replicaGate struct {
	next    http.Handler
	arrived chan struct{} // closed when the first terminal record reaches the gate
	release chan struct{}
	arrive  sync.Once
	open    sync.Once
}

func newReplicaGate(next http.Handler) *replicaGate {
	return &replicaGate{next: next, arrived: make(chan struct{}), release: make(chan struct{})}
}

func (g *replicaGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/replica/") &&
		!strings.HasSuffix(r.URL.Path, "/adopt") {
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		events, _ := journal.DecodeFrames(body)
		for _, ev := range events {
			if ev.Type != journal.EventAccepted {
				g.arrive.Do(func() { close(g.arrived) })
				<-g.release
				break
			}
		}
	}
	g.next.ServeHTTP(w, r)
}

// releaseAll lets every held and future terminal record through.
func (g *replicaGate) releaseAll() { g.open.Do(func() { close(g.release) }) }

// waitArrived blocks until a terminal record reaches the gate.
func (g *replicaGate) waitArrived(t *testing.T) {
	t.Helper()
	select {
	case <-g.arrived:
	case <-time.After(10 * time.Second):
		t.Fatal("no terminal replica record reached the successor")
	}
}

// gatedPair builds origin "a" streaming synchronously to successor "b"
// through a replicaGate. cfgA may carry a journal and a watchdog.
func gatedPair(t *testing.T, cfgA Config) (sa *Server, tsa *httptest.Server, sb *Server, gate *replicaGate) {
	t.Helper()
	sb, _ = newTestServer(t, Config{Workers: 1, QueueDepth: 8, CacheSize: 8, NodeName: "b"})
	stubExec(sb, fastExec)
	gate = newReplicaGate(sb)
	tsb := httptest.NewServer(gate)
	t.Cleanup(tsb.Close)
	stream, err := replication.New(replication.Options{
		Policy: replication.PolicySync,
		Origin: "a",
		Target: func() (string, string) { return "b", tsb.URL },
	})
	if err != nil {
		t.Fatalf("replication.New: %v", err)
	}
	cfgA.NodeName, cfgA.Repl = "a", stream
	sa, tsa = newTestServer(t, cfgA)
	stubExec(sa, fastExec)
	t.Cleanup(gate.releaseAll) // before sa's drain, which waits on held settles
	return sa, tsa, sb, gate
}

// replicaRecords counts the records the successor holds for one of
// origin's jobs.
func replicaRecords(s *Server, origin, id string) int {
	s.replica.mu.Lock()
	defer s.replica.mu.Unlock()
	n := 0
	for _, ev := range s.replica.events[origin] {
		if ev.ID == id {
			n++
		}
	}
	return n
}

// pollWhileRunning polls a job until it leaves running and returns the
// first status that does; every read before it must be running.
func pollWhileRunning(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if got := getStatus(t, ts, id); got.State != StateRunning {
			return got
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never left running", id)
	return Status{}
}

// TestSettleDurableBeforeVisible: a job's terminal state reaches
// clients only after its record is in the local journal and on the
// successor. While the successor holds the terminal record, the origin
// keeps answering running; and a terminal record the local journal
// refuses settles the job as failed, never as an un-journaled done.
func TestSettleDurableBeforeVisible(t *testing.T) {
	t.Run("replicated", func(t *testing.T) {
		_, tsa, sb, gate := gatedPair(t, Config{Workers: 1, QueueDepth: 8, CacheSize: 8})
		resp, st := postJob(t, tsa, specBody(1))
		expectCode(t, "submit", resp.StatusCode, http.StatusAccepted)
		gate.waitArrived(t)
		for i := 0; i < 20; i++ {
			if got := getStatus(t, tsa, st.ID); got.State != StateRunning {
				t.Fatalf("status while the terminal record is unreplicated = %s, want running", got.State)
			}
			time.Sleep(5 * time.Millisecond)
		}
		gate.releaseAll()
		got := pollWhileRunning(t, tsa, st.ID)
		if got.State != StateDone {
			t.Fatalf("status = %s, want running then done", got.State)
		}
		if n := replicaRecords(sb, "a", st.ID); n != 2 {
			t.Fatalf("origin reads done while the successor holds %d records for %s, want 2", n, st.ID)
		}
	})

	// A terminal record the journal refuses — a torn write, or an
	// fsync that fails after a whole frame was written — settles the
	// job failed, and a restart from the crash image restores that
	// same failed outcome, never the refused done.
	for _, tc := range []struct{ name, fault, fsync string }{
		{"journal-append-fails", "journal.append=error:disk gone,count:1", "off"},
		{"journal-fsync-fails", "journal.fsync=error:disk gone,count:1", "always"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg, jdir := faultinject.New(), t.TempDir()
			s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, CacheSize: 8,
				JournalDir: jdir, FsyncPolicy: tc.fsync, Faults: reg})
			release := make(chan struct{})
			stubExec(s, blockingExec(release))
			code, st := submitAs(t, ts, "f1", "", specBody(2))
			expectCode(t, "submit", code, http.StatusAccepted)
			waitState(t, ts, st.ID, StateRunning)
			if err := reg.Arm(tc.fault, 1); err != nil {
				t.Fatal(err)
			}
			close(release)
			got := pollWhileRunning(t, ts, st.ID)
			if got.State != StateFailed || !strings.Contains(got.Error, "journal append failed") ||
				!strings.Contains(got.Error, "disk gone") {
				t.Fatalf("job after a refused terminal append = %s %q, want failed with the journal error", got.State, got.Error)
			}
			checkLedger(t, metricsDoc(t, ts), map[string]float64{"submitted": 1, "failed": 1})
			if state, _, msg := restoredJob(t, copyCrashImage(t, jdir), st.ID); state != StateFailed || msg != got.Error {
				t.Fatalf("restart restores %s %q, want the %s %q clients saw", state, msg, got.State, got.Error)
			}
		})
	}
}

// restoredJob restarts a server from journal directory dir and returns
// the restored state, result and error of job id.
func restoredJob(t *testing.T, dir, id string) (State, json.RawMessage, string) {
	t.Helper()
	s, err := New(Config{Workers: 1, QueueDepth: 8, CacheSize: 8, JournalDir: dir, FsyncPolicy: "off"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.journal.Close()
	s.applyReplay()
	j, ok := s.lookup(id)
	if !ok {
		t.Fatalf("job %s not restored", id)
	}
	if n := s.sched.len(); n != 0 {
		t.Fatalf("restore requeued %d jobs, want 0", n)
	}
	return j.snapshotResult()
}

// TestSettleMigratedSurvivesRefusedAppend: once the handoff has landed
// the adopter holds the job, so a local journal that refuses the
// migrated record does not turn it failed: clients still see it
// migrated to the adopter, and it is counted migrated, not failed; the
// record's best-effort second append restores it migrated.
func TestSettleMigratedSurvivesRefusedAppend(t *testing.T) {
	sb, tsb := newTestServer(t, Config{Workers: 1, QueueDepth: 8, CacheSize: 8, NodeName: "b"})
	stubExec(sb, fastExec)
	reg, jdir := faultinject.New(), t.TempDir()
	sa, tsa := newTestServer(t, Config{Workers: 1, QueueDepth: 8, CacheSize: 8, NodeName: "a",
		JournalDir: jdir, FsyncPolicy: "off", Faults: reg})
	release := make(chan struct{})
	stubExec(sa, blockingExec(release))
	_, stRunning := postJob(t, tsa, specBody(41))
	_, stQueued := postJob(t, tsa, specBody(42))
	waitState(t, tsa, stRunning.ID, StateRunning)

	if err := reg.Arm("journal.append=error:disk gone,count:1", 1); err != nil {
		t.Fatal(err)
	}
	body := `{"target_name":"b","target_url":"` + tsb.URL + `"}`
	mresp, err := http.Post(tsa.URL+"/v1/migrate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("migrate: %v", err)
	}
	mresp.Body.Close()
	expectCode(t, "migrate", mresp.StatusCode, http.StatusOK)
	if st := getStatus(t, tsa, stQueued.ID); st.State != StateMigrated || st.MigratedTo != "b" {
		t.Fatalf("job after a refused migrated append = %s → %q, want migrated → b", st.State, st.MigratedTo)
	}
	waitState(t, tsb, stQueued.ID+"@a", StateDone)
	close(release)
	waitState(t, tsa, stRunning.ID, StateDone)
	checkLedger(t, metricsDoc(t, tsa), map[string]float64{"submitted": 2, "completed": 1, "migrated": 1})
	if state, _, _ := restoredJob(t, copyCrashImage(t, jdir), stQueued.ID); state != StateMigrated {
		t.Fatalf("restart restores %s, want migrated", state)
	}
}

// TestSettleCompactionWhileReplicating: a compaction that lands while
// a settle waits on its replication snapshots the claimed outcome, so
// a crash right then restores the job as done with its result, not
// requeued. The watchdog, which reads the same durable view, does not
// reap the job meanwhile.
func TestSettleCompactionWhileReplicating(t *testing.T) {
	jdir := t.TempDir()
	sa, tsa, _, gate := gatedPair(t, Config{Workers: 1, QueueDepth: 8, CacheSize: 8,
		JournalDir: jdir, FsyncPolicy: "off",
		StuckAfter: 30 * time.Millisecond, WatchdogInterval: 5 * time.Millisecond})
	resp, st := postJob(t, tsa, specBody(3))
	expectCode(t, "submit", resp.StatusCode, http.StatusAccepted)
	gate.waitArrived(t)
	if err := sa.journal.Compact(func() journal.Snapshot {
		return journal.Snapshot{Jobs: sa.snapshotJobs()}
	}); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	dir := copyCrashImage(t, jdir)
	time.Sleep(150 * time.Millisecond) // several watchdog scans past StuckAfter
	if got := getStatus(t, tsa, st.ID); got.State != StateRunning {
		t.Fatalf("status while the settle is in flight = %s, want running", got.State)
	}
	gate.releaseAll()
	waitState(t, tsa, st.ID, StateDone)
	doc := metricsDoc(t, tsa)
	if got := counter(t, doc, "workers", "restarts"); got != 0 {
		t.Errorf("workers.restarts = %v, want 0: the watchdog reaped a settling job", got)
	}
	checkLedger(t, doc, map[string]float64{"submitted": 1, "completed": 1})

	if state, res, _ := restoredJob(t, dir, st.ID); state != StateDone || string(res) != `{"ok":true}` {
		t.Fatalf("restored job = %s %s, want done with its result", state, res)
	}
}
