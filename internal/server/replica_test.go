package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"thermalherd/internal/journal"
	"thermalherd/internal/replication"
)

// replTestPair builds two servers: origin "a" streaming its journal
// records synchronously to successor "b".
func replTestPair(t *testing.T, cfgA, cfgB Config) (sa *Server, tsa *httptest.Server, sb *Server, tsb *httptest.Server) {
	t.Helper()
	cfgB.NodeName = "b"
	sb, tsb = newTestServer(t, cfgB)
	stubExec(sb, fastExec)
	stream, err := replication.New(replication.Options{
		Policy: replication.PolicySync,
		Origin: "a",
		Target: func() (string, string) { return "b", tsb.URL },
	})
	if err != nil {
		t.Fatalf("replication.New: %v", err)
	}
	cfgA.NodeName = "a"
	cfgA.Repl = stream
	sa, tsa = newTestServer(t, cfgA)
	stubExec(sa, fastExec)
	return sa, tsa, sb, tsb
}

func readyzDoc(t *testing.T, ts *httptest.Server) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	json.NewDecoder(resp.Body).Decode(&doc)
	return resp.StatusCode, doc
}

// TestReplicaAdoptEndToEnd: records stream to the successor as jobs
// are acked, and adoption replays them — finished jobs resolve with
// their results, unfinished ones re-run, and /readyz reports
// "recovering" until the adopted frontier settles.
func TestReplicaAdoptEndToEnd(t *testing.T) {
	sa, tsa, sb, tsb := replTestPair(t,
		Config{Workers: 1, QueueDepth: 16, CacheSize: 16},
		Config{Workers: 1, QueueDepth: 16, CacheSize: 16})

	// Job 1 runs to done on a; job 2 stays queued behind a parked job 1
	// is too racy with one worker, so park the worker first.
	release := make(chan struct{})
	stubExec(sa, blockingExec(release))
	resp1, st1 := postJob(t, tsa, specBody(1))
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 1 = %s", resp1.Status)
	}
	resp2, st2 := postJob(t, tsa, specBody(2))
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 2 = %s", resp2.Status)
	}
	release <- struct{}{} // job 1 finishes
	waitState(t, tsa, st1.ID, StateDone)

	// "a" dies (we simply stop routing to it). Park b's worker so the
	// recovering window is observable, then adopt.
	released := make(chan struct{})
	stubExec(sb, blockingExec(released))
	aresp, err := http.Post(tsb.URL+"/v1/replica/a/adopt", "application/json", nil)
	if err != nil {
		t.Fatalf("adopt: %v", err)
	}
	var adoc map[string]any
	json.NewDecoder(aresp.Body).Decode(&adoc)
	aresp.Body.Close()
	if aresp.StatusCode != http.StatusOK {
		t.Fatalf("adopt = %d: %v", aresp.StatusCode, adoc)
	}
	if adoc["adopted"].(float64) != 2 || adoc["requeued"].(float64) != 1 {
		t.Fatalf("adopt doc = %v, want 2 adopted / 1 requeued", adoc)
	}

	// The finished job's old id resolves on the successor, done, with
	// its result served.
	stDone := getStatus(t, tsb, st1.ID+"@a")
	if stDone.State != StateDone {
		t.Fatalf("adopted finished job state = %s, want done", stDone.State)
	}
	rresp, err := http.Get(tsb.URL + "/v1/jobs/" + st1.ID + "@a/result")
	if err != nil {
		t.Fatalf("GET adopted result: %v", err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("adopted result = %s, want 200", rresp.Status)
	}

	// While the requeued adoptee is pending, the successor reports
	// recovering.
	code, doc := readyzDoc(t, tsb)
	if code != http.StatusServiceUnavailable || doc["reason"] != "recovering" {
		t.Fatalf("readyz during adoption = %d %v, want 503 recovering", code, doc)
	}
	close(released)
	waitState(t, tsb, st2.ID+"@a", StateDone)
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, _ = readyzDoc(t, tsb)
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never returned to ready after the adopted frontier settled")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Re-adoption is a no-op.
	aresp, _ = http.Post(tsb.URL+"/v1/replica/a/adopt", "application/json", nil)
	adoc = map[string]any{}
	json.NewDecoder(aresp.Body).Decode(&adoc)
	aresp.Body.Close()
	if adoc["adopted"].(float64) != 0 {
		t.Fatalf("re-adoption adopted %v jobs, want 0", adoc["adopted"])
	}

	// The successor's accounting identity holds over the adopted jobs.
	mdoc := metricsDoc(t, tsb)
	sub := counter(t, mdoc, "jobs", "submitted")
	settled := counter(t, mdoc, "cache", "hits") + counter(t, mdoc, "jobs", "completed") +
		counter(t, mdoc, "jobs", "failed") + counter(t, mdoc, "jobs", "canceled") +
		counter(t, mdoc, "jobs", "rejected") + counter(t, mdoc, "jobs", "migrated")
	if sub != settled {
		t.Fatalf("successor identity: submitted %v != settled %v (%v)", sub, settled, mdoc)
	}
	if got := counter(t, mdoc, "repl", "adopted"); got != 2 {
		t.Fatalf("repl.adopted = %v, want 2", got)
	}
	// Unpark a's copy of job 2 so the cleanup drain is immediate.
	close(release)
	_ = sa
}

// TestAdoptBodyAdoptsOnlyShippedRecords: an adopt request carrying
// framed records (a draining peer's migration) adopts exactly those,
// even though the successor's replica buffer holds more of the peer's
// records; an empty adopt request (a takeover) still adopts the whole
// buffer. A torn body is refused.
func TestAdoptBodyAdoptsOnlyShippedRecords(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, CacheSize: 8, NodeName: "b"})
	stubExec(s, fastExec)
	var spec Spec
	json.Unmarshal([]byte(specBody(3)), &spec)
	spec.normalize()
	rawSpec, _ := json.Marshal(spec)
	frame := func(id string) string {
		frames, err := journal.EncodeFrames([]journal.Event{{Type: journal.EventAccepted, ID: id, Spec: rawSpec}})
		if err != nil {
			t.Fatal(err)
		}
		return string(frames)
	}
	adopt := func(body string) (int, map[string]any) {
		resp, err := http.Post(ts.URL+"/v1/replica/a/adopt", "application/octet-stream", strings.NewReader(body))
		if err != nil {
			t.Fatalf("adopt: %v", err)
		}
		defer resp.Body.Close()
		var doc map[string]any
		json.NewDecoder(resp.Body).Decode(&doc)
		return resp.StatusCode, doc
	}

	// The peer streamed two acceptances: job 1 is still running there,
	// job 2 is the one it migrates.
	presp, err := http.Post(ts.URL+"/v1/replica/a", "application/octet-stream",
		strings.NewReader(frame("job-000001")+frame("job-000002")))
	if err != nil {
		t.Fatalf("replica append: %v", err)
	}
	presp.Body.Close()

	if code, _ := adopt(frame("job-000003")[:10]); code != http.StatusBadRequest {
		t.Fatalf("torn adopt body = HTTP %d, want 400", code)
	}
	if code, doc := adopt(frame("job-000002")); code != http.StatusOK || doc["adopted"].(float64) != 1 {
		t.Fatalf("migration adopt = HTTP %d %v, want 200 with 1 adopted", code, doc)
	}
	waitState(t, ts, "job-000002@a", StateDone)
	resp, err := http.Get(ts.URL + "/v1/jobs/job-000001@a")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("job 1 after the migration adopt: HTTP %d, want 404 (only job 2 was shipped)", resp.StatusCode)
	}
	if code, doc := adopt(""); code != http.StatusOK || doc["adopted"].(float64) != 1 {
		t.Fatalf("takeover adopt = HTTP %d %v, want 200 with 1 adopted (job 2 is known)", code, doc)
	}
	waitState(t, ts, "job-000001@a", StateDone)
}

// TestAdoptIdempotencyAlias: a replica record whose Idempotency-Key
// the successor has already seen gains an alias instead of a second
// registration — the dedup that keeps adopted work from
// double-executing — and the dead node's id still resolves.
func TestAdoptIdempotencyAlias(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, CacheSize: 8, NodeName: "b"})
	stubExec(s, fastExec)

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(specBody(7)))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Idempotency-Key", "key-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var st Status
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	waitState(t, ts, st.ID, StateDone)

	// The dead peer "a" acked the same logical submission under its own
	// id before dying.
	var spec Spec
	json.Unmarshal([]byte(specBody(7)), &spec)
	spec.normalize()
	rawSpec, _ := json.Marshal(spec)
	frames, err := journal.EncodeFrames([]journal.Event{{
		Type: journal.EventAccepted, ID: "job-000042", Spec: rawSpec, IdemKey: "key-7",
	}})
	if err != nil {
		t.Fatal(err)
	}
	presp, err := http.Post(ts.URL+"/v1/replica/a", "application/octet-stream", strings.NewReader(string(frames)))
	if err != nil {
		t.Fatalf("replica append: %v", err)
	}
	presp.Body.Close()
	aresp, _ := http.Post(ts.URL+"/v1/replica/a/adopt", "application/json", nil)
	var adoc map[string]any
	json.NewDecoder(aresp.Body).Decode(&adoc)
	aresp.Body.Close()
	if adoc["aliased"].(float64) != 1 || adoc["adopted"].(float64) != 0 {
		t.Fatalf("adopt doc = %v, want 1 aliased / 0 adopted", adoc)
	}

	got := getStatus(t, ts, "job-000042@a")
	if got.ID != st.ID || got.State != StateDone {
		t.Fatalf("aliased lookup = %+v, want the original done job %s", got, st.ID)
	}
}

// TestMigrateHerdsQueuedJobs: /v1/migrate freezes queued jobs, ships
// them to the target, and settles them as migrated locally; the target
// runs them under the alias namespace.
func TestMigrateHerdsQueuedJobs(t *testing.T) {
	cfgB := Config{Workers: 2, QueueDepth: 16, CacheSize: 16, NodeName: "b"}
	sb, tsb := newTestServer(t, cfgB)
	stubExec(sb, fastExec)

	sa, tsa := newTestServer(t, Config{Workers: 1, QueueDepth: 16, CacheSize: 16, NodeName: "a"})
	release := make(chan struct{})
	stubExec(sa, blockingExec(release))

	_, stRunning := postJob(t, tsa, specBody(11))
	var queued []Status
	for i := 12; i < 15; i++ {
		resp, st := postJob(t, tsa, specBody(i))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d = %s", i, resp.Status)
		}
		queued = append(queued, st)
	}
	waitState(t, tsa, stRunning.ID, StateRunning)

	body := `{"target_name":"b","target_url":"` + tsb.URL + `"}`
	mresp, err := http.Post(tsa.URL+"/v1/migrate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("migrate: %v", err)
	}
	var mdoc map[string]any
	json.NewDecoder(mresp.Body).Decode(&mdoc)
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK || mdoc["migrated"].(float64) != 3 {
		t.Fatalf("migrate = %d %v, want 200 with 3 migrated", mresp.StatusCode, mdoc)
	}

	for _, st := range queued {
		local := getStatus(t, tsa, st.ID)
		if local.State != StateMigrated || local.MigratedTo != "b" {
			t.Fatalf("source job %s = %+v, want migrated → b", st.ID, local)
		}
		adopted := waitState(t, tsb, st.ID+"@a", StateDone)
		if adopted.State != StateDone {
			t.Fatalf("adopted job %s = %s", st.ID, adopted.State)
		}
	}
	// The running job stayed home.
	close(release)
	waitState(t, tsa, stRunning.ID, StateDone)

	mdocA := metricsDoc(t, tsa)
	if got := counter(t, mdocA, "jobs", "migrated"); got != 3 {
		t.Fatalf("source jobs.migrated = %v, want 3", got)
	}
	sub := counter(t, mdocA, "jobs", "submitted")
	settled := counter(t, mdocA, "cache", "hits") + counter(t, mdocA, "jobs", "completed") +
		counter(t, mdocA, "jobs", "failed") + counter(t, mdocA, "jobs", "canceled") +
		counter(t, mdocA, "jobs", "rejected") + counter(t, mdocA, "jobs", "migrated")
	if sub != settled {
		t.Fatalf("source identity: submitted %v != settled %v", sub, settled)
	}
}

// TestMigrateRevertOnFailure: a failed handoff releases every held job
// back to queued — a failed migration degrades to running the work
// locally, never to losing it, and no client ever sees the job
// migrated. Two failures: a target that stalls and then refuses the
// handoff (during the stall the job reads queued, and a cancel answers
// 409 naming the migration), an unreachable one, and an unreachable
// one while the held job alone fills the queue.
func TestMigrateRevertOnFailure(t *testing.T) {
	t.Run("stall-then-500", func(t *testing.T) {
		arrived, refuse := make(chan struct{}), make(chan struct{})
		var arrive, refuseOnce sync.Once
		target := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			arrive.Do(func() { close(arrived) })
			<-refuse
			http.Error(w, "target refuses", http.StatusInternalServerError)
		}))
		t.Cleanup(target.Close)
		refuseAll := func() { refuseOnce.Do(func() { close(refuse) }) }
		t.Cleanup(refuseAll) // unblocks the handler before target.Close waits on it
		migrateAndRevert(t, target.URL, 16, func(tsa *httptest.Server, id string) {
			<-arrived
			for i := 0; i < 20; i++ {
				if st := getStatus(t, tsa, id); st.State != StateQueued {
					t.Fatalf("job during the handoff = %s, want queued", st.State)
				}
				time.Sleep(2 * time.Millisecond)
			}
			req, _ := http.NewRequest(http.MethodDelete, tsa.URL+"/v1/jobs/"+id, nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("cancel: %v", err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusConflict || !strings.Contains(string(msg), "migrated") {
				t.Fatalf("cancel during the handoff = %d %s, want 409 naming the migration", resp.StatusCode, msg)
			}
			refuseAll()
		})
	})
	t.Run("unreachable", func(t *testing.T) {
		dead := httptest.NewServer(http.NotFoundHandler())
		dead.Close()
		migrateAndRevert(t, dead.URL, 16, func(*httptest.Server, string) {})
	})
	t.Run("full-queue", func(t *testing.T) {
		dead := httptest.NewServer(http.NotFoundHandler())
		dead.Close()
		migrateAndRevert(t, dead.URL, 1, func(*httptest.Server, string) {})
	})
}

// migrateAndRevert migrates a node with one running and one queued job
// to a target that fails the handoff, calling during while the
// migration is in flight, and checks that the queued job is released
// to queued and then runs locally, even when it alone fills a queue of
// queueDepth.
func migrateAndRevert(t *testing.T, targetURL string, queueDepth int, during func(tsa *httptest.Server, queuedID string)) {
	t.Helper()
	sa, tsa := newTestServer(t, Config{Workers: 1, QueueDepth: queueDepth, CacheSize: 16, NodeName: "a"})
	release := make(chan struct{})
	stubExec(sa, blockingExec(release))
	_, stRunning := postJob(t, tsa, specBody(21))
	waitState(t, tsa, stRunning.ID, StateRunning)
	_, stQueued := postJob(t, tsa, specBody(22))

	body := `{"target_name":"x","target_url":"` + targetURL + `"}`
	migrated := make(chan int, 1)
	go func() {
		mresp, err := http.Post(tsa.URL+"/v1/migrate", "application/json", strings.NewReader(body))
		if err != nil {
			migrated <- 0
			return
		}
		mresp.Body.Close()
		migrated <- mresp.StatusCode
	}()
	during(tsa, stQueued.ID)
	if code := <-migrated; code != http.StatusBadGateway {
		t.Fatalf("migrate with a failing handoff = %d, want 502", code)
	}
	if st := getStatus(t, tsa, stQueued.ID); st.State != StateQueued {
		t.Fatalf("job after failed migration = %s, want queued", st.State)
	}
	close(release)
	waitState(t, tsa, stQueued.ID, StateDone)
}

// TestSyncAckGate: with an unreachable successor under the sync
// policy, a queue-bound submission is rejected un-acked — the 202 is a
// fleet-durability promise, not just a local one.
func TestSyncAckGate(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	stream, err := replication.New(replication.Options{
		Policy: replication.PolicySync,
		Origin: "a",
		Target: func() (string, string) { return "ghost", dead.URL },
	})
	if err != nil {
		t.Fatal(err)
	}
	sa, tsa := newTestServer(t, Config{Workers: 1, QueueDepth: 8, CacheSize: 8, NodeName: "a", Repl: stream})
	stubExec(sa, fastExec)
	resp, _ := postJob(t, tsa, specBody(31))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit with dead successor = %s, want 503", resp.Status)
	}
	mdoc := metricsDoc(t, tsa)
	if got := counter(t, mdoc, "repl", "stream_errors"); got < 1 {
		t.Fatalf("repl.stream_errors = %v, want >= 1", got)
	}
	sub := counter(t, mdoc, "jobs", "submitted")
	rej := counter(t, mdoc, "jobs", "rejected")
	if sub != 1 || rej != 1 {
		t.Fatalf("submitted/rejected = %v/%v, want 1/1", sub, rej)
	}
}

// TestReplicaStoreSurvivesRestart: a file-backed replica store reloads
// peers' buffered records after the successor's own restart, so a
// chain where both links bounce still adopts.
func TestReplicaStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	var spec Spec
	json.Unmarshal([]byte(specBody(41)), &spec)
	spec.normalize()
	rawSpec, _ := json.Marshal(spec)
	frames, err := journal.EncodeFrames([]journal.Event{{
		Type: journal.EventAccepted, ID: "job-000007", Spec: rawSpec,
	}})
	if err != nil {
		t.Fatal(err)
	}

	s1, ts1 := func() (*Server, *httptest.Server) {
		s, err := New(Config{Workers: 1, QueueDepth: 8, CacheSize: 8, NodeName: "b", JournalDir: dir, FsyncPolicy: "off"})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		stubExec(s, fastExec)
		s.Start()
		return s, httptest.NewServer(s)
	}()
	presp, err := http.Post(ts1.URL+"/v1/replica/a", "application/octet-stream", strings.NewReader(string(frames)))
	if err != nil {
		t.Fatalf("replica append: %v", err)
	}
	presp.Body.Close()
	if got := s1.replica.receivedEvents(); got != 1 {
		t.Fatalf("received = %d, want 1", got)
	}
	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	s1.Drain(ctx)
	cancel()

	s2, err := New(Config{Workers: 1, QueueDepth: 8, CacheSize: 8, NodeName: "b", JournalDir: dir, FsyncPolicy: "off"})
	if err != nil {
		t.Fatalf("restart New: %v", err)
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
	aresp, _ := http.Post(ts2.URL+"/v1/replica/a/adopt", "application/json", nil)
	var adoc map[string]any
	json.NewDecoder(aresp.Body).Decode(&adoc)
	aresp.Body.Close()
	if adoc["adopted"].(float64) != 1 {
		t.Fatalf("adopt after restart = %v, want 1 adopted", adoc)
	}
	waitState(t, ts2, "job-000007@a", StateDone)
}
