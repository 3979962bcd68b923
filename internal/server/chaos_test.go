package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"thermalherd/internal/clock"
	"thermalherd/internal/faultinject"
	"thermalherd/internal/httpjson"
)

// chaosServer builds a started server with an armed fault registry.
func chaosServer(t *testing.T, cfg Config, faultSpec string, seed int64) (*Server, *httptest.Server) {
	t.Helper()
	if faultSpec != "" {
		reg := faultinject.New()
		if err := reg.Arm(faultSpec, seed); err != nil {
			t.Fatalf("Arm(%q): %v", faultSpec, err)
		}
		cfg.Faults = reg
	}
	return newTestServer(t, cfg)
}

// faultCount digs the per-point injected counter out of /metrics.
func faultCount(t *testing.T, doc map[string]any, point string) float64 {
	t.Helper()
	sec, ok := doc["faults"].(map[string]any)
	if !ok {
		t.Fatalf("metrics missing faults section: %v", doc)
	}
	injected, ok := sec["injected"].(map[string]any)
	if !ok {
		t.Fatalf("metrics faults missing injected map: %v", sec)
	}
	v, ok := injected[point].(float64)
	if !ok {
		t.Fatalf("faults.injected missing %q: %v", point, injected)
	}
	return v
}

// reconcile asserts the terminal-accounting identity every chaos run
// must preserve: each submission is settled exactly once.
func reconcile(t *testing.T, doc map[string]any) {
	t.Helper()
	submitted := counter(t, doc, "jobs", "submitted")
	terminal := counter(t, doc, "cache", "hits") +
		counter(t, doc, "jobs", "completed") +
		counter(t, doc, "jobs", "failed") +
		counter(t, doc, "jobs", "canceled") +
		counter(t, doc, "jobs", "rejected")
	if submitted != terminal {
		t.Fatalf("accounting identity broken: submitted %v != hits+completed+failed+canceled+rejected %v\n%v",
			submitted, terminal, doc)
	}
}

// TestChaosInjectedPanicsRecovered is the headline self-healing test:
// injected executor panics become failed jobs with the stack in the
// error, the daemon keeps serving, and the counters reconcile.
func TestChaosInjectedPanicsRecovered(t *testing.T) {
	s, ts := chaosServer(t, Config{Workers: 1, QueueDepth: 8, CacheSize: 8},
		"job.exec=panic:injected-chaos-panic,count:2", 1)
	stubExec(s, func(ctx context.Context, spec Spec, report progressFunc) (json.RawMessage, error) {
		return json.RawMessage(`{}`), nil
	})
	var sts []Status
	for _, wl := range []string{"mcf", "crafty", "gzip"} {
		resp, st := postJob(t, ts, fmt.Sprintf(`{"kind":"timing","workload":%q}`, wl))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s = %s", wl, resp.Status)
		}
		sts = append(sts, st)
	}
	// First two jobs hit the panic fault, the third runs clean.
	for _, st := range sts[:2] {
		fin := waitState(t, ts, st.ID, StateFailed)
		if !strings.Contains(fin.Error, "recovered panic") || !strings.Contains(fin.Error, "injected-chaos-panic") {
			t.Fatalf("recovered-panic error = %q", fin.Error)
		}
		if !strings.Contains(fin.Error, "faultinject") {
			t.Fatalf("panic error carries no stack: %q", fin.Error)
		}
	}
	waitState(t, ts, sts[2].ID, StateDone)

	// The daemon survived: liveness holds and new work still runs.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("daemon dead after panics: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panics = %s", resp.Status)
	}

	doc := metricsDoc(t, ts)
	if got := counter(t, doc, "jobs", "panics_recovered"); got != 2 {
		t.Fatalf("panics_recovered = %v, want 2", got)
	}
	if got := counter(t, doc, "jobs", "failed"); got != 2 {
		t.Fatalf("failed = %v, want 2 (panicked jobs count as failed)", got)
	}
	if got := faultCount(t, doc, FaultExec); got != 2 {
		t.Fatalf("faults.injected[job.exec] = %v, want 2", got)
	}
	reconcile(t, doc)
}

// TestJobDeadlineExceeded pins Config.JobTimeout: a job that runs past
// it is failed with a deadline error (distinct from a client cancel)
// and counted.
func TestJobDeadlineExceeded(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, CacheSize: 4, JobTimeout: 50 * time.Millisecond})
	stubExec(s, func(ctx context.Context, spec Spec, report progressFunc) (json.RawMessage, error) {
		<-ctx.Done() // a cooperative executor observing its deadline
		return nil, ctx.Err()
	})
	_, st := postJob(t, ts, `{"kind":"timing","workload":"mcf"}`)
	fin := waitState(t, ts, st.ID, StateFailed)
	if !strings.Contains(fin.Error, "deadline exceeded") {
		t.Fatalf("deadline error = %q", fin.Error)
	}
	doc := metricsDoc(t, ts)
	if got := counter(t, doc, "jobs", "deadline_exceeded"); got != 1 {
		t.Fatalf("deadline_exceeded = %v, want 1", got)
	}
	if got := counter(t, doc, "jobs", "canceled"); got != 0 {
		t.Fatalf("deadline was miscounted as a cancel: canceled = %v", got)
	}
	reconcile(t, doc)
}

// TestWatchdogRestartsStuckWorker pins the watchdog: an executor that
// ignores its context forever is reaped, the job fails with a watchdog
// error, and a replacement worker keeps the (single-slot) pool alive.
func TestWatchdogRestartsStuckWorker(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 8, CacheSize: 8,
		StuckAfter: 80 * time.Millisecond, WatchdogInterval: 10 * time.Millisecond,
	})
	unstick := make(chan struct{})
	t.Cleanup(func() { close(unstick) }) // let the abandoned goroutine exit
	var firstJob atomic.Bool
	stubExec(s, func(ctx context.Context, spec Spec, report progressFunc) (json.RawMessage, error) {
		if firstJob.CompareAndSwap(false, true) {
			<-unstick // hard-stuck: ignores ctx entirely
		}
		return json.RawMessage(`{}`), nil
	})

	_, stuck := postJob(t, ts, `{"kind":"timing","workload":"mcf"}`)
	fin := waitState(t, ts, stuck.ID, StateFailed)
	if !strings.Contains(fin.Error, "watchdog") {
		t.Fatalf("reaped job error = %q", fin.Error)
	}
	// The single worker slot was stuck; only a restarted slot can run
	// the next job.
	_, next := postJob(t, ts, `{"kind":"timing","workload":"crafty"}`)
	waitState(t, ts, next.ID, StateDone)

	doc := metricsDoc(t, ts)
	if got := counter(t, doc, "workers", "restarts"); got != 1 {
		t.Fatalf("workers.restarts = %v, want 1", got)
	}
	reconcile(t, doc)
}

// TestBrownoutSheds429 pins the queue-wait admission controller: once
// the head-of-queue job has waited past BrownoutAfter, new submissions
// bounce with 429 + Retry-After while /readyz flips not-ready, and the
// daemon recovers once the backlog clears.
func TestBrownoutSheds429(t *testing.T) {
	// A fake clock drives the queue-age measurement, so the test ages
	// the backlog synchronously instead of sleeping and hoping the
	// scheduler cooperates.
	fake := clock.NewFake(time.Unix(1_700_000_000, 0))
	s, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 16, CacheSize: 4,
		BrownoutAfter: 40 * time.Millisecond,
		Clock:         fake,
	})
	release := make(chan struct{})
	stubExec(s, func(ctx context.Context, spec Spec, report progressFunc) (json.RawMessage, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return json.RawMessage(`{}`), nil
	})
	// One job occupies the worker, one ages at the head of the queue.
	_, running := postJob(t, ts, `{"kind":"timing","workload":"mcf"}`)
	waitState(t, ts, running.ID, StateRunning)
	_, queued := postJob(t, ts, `{"kind":"timing","workload":"crafty"}`)
	fake.Advance(80 * time.Millisecond) // age the queued job past the threshold

	resp, _ := postJob(t, ts, `{"kind":"timing","workload":"gzip"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("brownout submit = %s, want 429", resp.Status)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("brownout Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
	}

	ready, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rdoc map[string]any
	json.NewDecoder(ready.Body).Decode(&rdoc)
	ready.Body.Close()
	if ready.StatusCode != http.StatusServiceUnavailable || rdoc["reason"] != "brownout" {
		t.Fatalf("readyz during brownout = %s %v, want 503/brownout", ready.Status, rdoc)
	}

	doc := metricsDoc(t, ts)
	if got := counter(t, doc, "admission", "brownout_rejects"); got != 1 {
		t.Fatalf("brownout_rejects = %v, want 1", got)
	}
	if got := counter(t, doc, "jobs", "rejected"); got != 1 {
		t.Fatalf("rejected = %v, want 1 (brownout rejects are rejections)", got)
	}

	// Clearing the backlog ends the brownout.
	close(release)
	waitState(t, ts, queued.ID, StateDone)
	ready2, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	ready2.Body.Close()
	if ready2.StatusCode != http.StatusOK {
		t.Fatalf("readyz after backlog cleared = %s, want 200", ready2.Status)
	}
	reconcile(t, metricsDoc(t, ts))
}

// TestCacheFaultsForceRecompute pins cache-fault degradation: dropped
// puts and forced-miss gets cost recomputation, never correctness.
func TestCacheFaultsForceRecompute(t *testing.T) {
	t.Run("put dropped", func(t *testing.T) {
		s, ts := chaosServer(t, Config{Workers: 1, QueueDepth: 4, CacheSize: 4},
			"rescache.put=error:store dropped,count:1", 1)
		stubExec(s, func(ctx context.Context, spec Spec, report progressFunc) (json.RawMessage, error) {
			return json.RawMessage(`{}`), nil
		})
		body := `{"kind":"timing","workload":"mcf"}`
		for i := 0; i < 2; i++ {
			// Both runs recompute: the first put was dropped.
			_, st := postJob(t, ts, body)
			if fin := waitState(t, ts, st.ID, StateDone); fin.FromCache {
				t.Fatalf("submission %d served from cache despite dropped put", i+1)
			}
		}
		// The second run's put stuck; now it hits.
		resp, st := postJob(t, ts, body)
		if resp.StatusCode != http.StatusOK || !st.FromCache {
			t.Fatalf("third submission = %s fromCache=%v, want cached 200", resp.Status, st.FromCache)
		}
		doc := metricsDoc(t, ts)
		if got := faultCount(t, doc, FaultCachePut); got != 1 {
			t.Fatalf("faults.injected[rescache.put] = %v, want 1", got)
		}
		reconcile(t, doc)
	})
	t.Run("get forced miss", func(t *testing.T) {
		s, ts := chaosServer(t, Config{Workers: 1, QueueDepth: 4, CacheSize: 4},
			"rescache.get=error:cache offline,count:2", 1)
		stubExec(s, func(ctx context.Context, spec Spec, report progressFunc) (json.RawMessage, error) {
			return json.RawMessage(`{}`), nil
		})
		body := `{"kind":"timing","workload":"mcf"}`
		// First get faults (would miss anyway), second faults a real hit
		// into a recompute, third hits.
		for i := 0; i < 2; i++ {
			_, st := postJob(t, ts, body)
			if fin := waitState(t, ts, st.ID, StateDone); fin.FromCache {
				t.Fatalf("submission %d hit despite get fault", i+1)
			}
		}
		_, st := postJob(t, ts, body)
		if !st.FromCache {
			t.Fatal("third submission missed after faults were exhausted")
		}
		doc := metricsDoc(t, ts)
		if got := counter(t, doc, "jobs", "completed"); got != 2 {
			t.Fatalf("completed = %v, want 2 (one recompute per forced miss)", got)
		}
		reconcile(t, doc)
	})
}

// TestAdmitAndRespondFaults covers the remaining fault points: an
// injected admission failure is a clean 503, and an injected response
// failure loses only the response, never the admitted job.
func TestAdmitAndRespondFaults(t *testing.T) {
	t.Run("queue.admit", func(t *testing.T) {
		_, ts := chaosServer(t, Config{Workers: 1, QueueDepth: 4, CacheSize: 4},
			"queue.admit=error:injected admission failure,count:1", 1)
		resp, _ := postJob(t, ts, `{"kind":"timing","workload":"mcf"}`)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("faulted admission = %s, want 503", resp.Status)
		}
		doc := metricsDoc(t, ts)
		if got := counter(t, doc, "jobs", "rejected"); got != 1 {
			t.Fatalf("rejected = %v, want 1", got)
		}
		reconcile(t, doc)
	})
	t.Run("http.respond", func(t *testing.T) {
		s, ts := chaosServer(t, Config{Workers: 1, QueueDepth: 4, CacheSize: 4},
			"http.respond=error:injected response failure,count:1", 1)
		stubExec(s, func(ctx context.Context, spec Spec, report progressFunc) (json.RawMessage, error) {
			return json.RawMessage(`{}`), nil
		})
		resp, _ := postJob(t, ts, `{"kind":"timing","workload":"mcf"}`)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("faulted response = %s, want 500", resp.Status)
		}
		// The job was admitted before the response write failed; it must
		// still settle, keeping the books balanced.
		deadline := time.Now().Add(5 * time.Second)
		for {
			doc := metricsDoc(t, ts)
			if counter(t, doc, "jobs", "completed") == 1 {
				reconcile(t, doc)
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job lost after response fault: %v", doc)
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

// TestSpecMarshalFailure400 is the regression test for the daemon
// panic this PR removed: a spec the encoder rejects must come back as
// a 400, not kill the process.
func TestSpecMarshalFailure400(t *testing.T) {
	orig := marshalSpec
	marshalSpec = func(any) ([]byte, error) { return nil, fmt.Errorf("forced encoder failure") }
	defer func() { marshalSpec = orig }()

	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2, CacheSize: 2})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"timing","workload":"mcf"}`))
	if err != nil {
		t.Fatalf("submit with failing encoder: %v (daemon died?)", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unmarshalable spec = %s, want 400", resp.Status)
	}
	var doc httpjson.ErrorDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil || !strings.Contains(doc.Error, "not marshalable") {
		t.Fatalf("error body = %+v, %v", doc, err)
	}
	doc2 := metricsDoc(t, ts)
	if got := counter(t, doc2, "jobs", "submitted"); got != 0 {
		t.Fatalf("rejected-at-validation spec counted as submitted: %v", got)
	}
}

// TestReadyzFresh pins the happy path: a fresh daemon is ready.
func TestReadyzFresh(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2, CacheSize: 2})
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz = %s, want 200", resp.Status)
	}
}

// TestDrainRacesSubmissionsAndCancels hammers Drain with concurrent
// submissions and cancellations (run under -race in CI): no crash, no
// stuck job, and post-drain submissions bounce with 503.
func TestDrainRacesSubmissionsAndCancels(t *testing.T) {
	s, err := New(Config{Workers: 4, QueueDepth: 32, CacheSize: 8})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	stubExec(s, func(ctx context.Context, spec Spec, report progressFunc) (json.RawMessage, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
			return json.RawMessage(`{}`), nil
		}
	})
	s.Start()
	ts := httptest.NewServer(s)
	defer ts.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	workloads := []string{"mcf", "crafty", "gzip", "patricia", "yacr2", "susan_s"}
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(wl string) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				// Distinct depths defeat the result cache so every
				// submission exercises the queue and pool.
				body := fmt.Sprintf(`{"kind":"timing","workload":%q,"depths":{"measure":%d}}`, wl, 1000+n)
				resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
				if err != nil {
					return // server shut down under us; fine
				}
				var st Status
				json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				if resp.StatusCode == http.StatusAccepted && n%3 == 0 {
					req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
					if dresp, err := http.DefaultClient.Do(req); err == nil {
						dresp.Body.Close()
					}
				}
			}
		}(workloads[i])
	}

	time.Sleep(25 * time.Millisecond)
	dctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("drain under load: %v", err)
	}
	close(stop)
	wg.Wait()

	// Every registered job must be terminal.
	s.mu.Lock()
	for id, j := range s.jobs {
		if st := j.status(); st.State == StateQueued || st.State == StateRunning {
			t.Errorf("job %s left non-terminal after drain: %s", id, st.State)
		}
	}
	s.mu.Unlock()

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"timing","workload":"mcf"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit = %s, want 503", resp.Status)
	}
	reconcile(t, metricsDoc(t, ts))
}

// TestDrainWhileBrownout drains a daemon that is actively shedding:
// the aged backlog is canceled, readiness reports draining (drain
// outranks brownout), and nothing deadlocks.
func TestDrainWhileBrownout(t *testing.T) {
	s, err := New(Config{Workers: 1, QueueDepth: 16, CacheSize: 4, BrownoutAfter: 30 * time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	stubExec(s, func(ctx context.Context, spec Spec, report progressFunc) (json.RawMessage, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	s.Start()
	ts := httptest.NewServer(s)
	defer ts.Close()

	_, running := postJob(t, ts, `{"kind":"timing","workload":"mcf"}`)
	waitState(t, ts, running.ID, StateRunning)
	_, queued := postJob(t, ts, `{"kind":"timing","workload":"crafty"}`)
	time.Sleep(60 * time.Millisecond)
	if resp, _ := postJob(t, ts, `{"kind":"timing","workload":"gzip"}`); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("pre-drain brownout submit = %s, want 429", resp.Status)
	}

	dctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(dctx); err != context.DeadlineExceeded {
		t.Fatalf("Drain = %v, want deadline exceeded (running job forced)", err)
	}
	if st := getStatus(t, ts, queued.ID); st.State != StateCanceled {
		t.Fatalf("aged queued job after drain = %s, want canceled", st.State)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rdoc map[string]any
	json.NewDecoder(resp.Body).Decode(&rdoc)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || rdoc["reason"] != "draining" {
		t.Fatalf("readyz while draining = %s %v, want 503/draining", resp.Status, rdoc)
	}
	reconcile(t, metricsDoc(t, ts))
}
