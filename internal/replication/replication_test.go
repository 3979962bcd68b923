package replication

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"thermalherd/internal/faultinject"
	"thermalherd/internal/journal"
)

// replicaSink is a fake successor: it records every framed event
// appended to its /v1/replica/{origin} endpoint.
type replicaSink struct {
	ts *httptest.Server

	mu     sync.Mutex
	events map[string][]journal.Event
	fail   bool
}

func newReplicaSink(t *testing.T) *replicaSink {
	t.Helper()
	rs := &replicaSink{events: make(map[string][]journal.Event)}
	rs.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		origin := strings.TrimPrefix(r.URL.Path, "/v1/replica/")
		body, _ := io.ReadAll(r.Body)
		events, torn := journal.DecodeFrames(body)
		rs.mu.Lock()
		defer rs.mu.Unlock()
		if rs.fail {
			http.Error(w, "injected", http.StatusServiceUnavailable)
			return
		}
		if torn {
			http.Error(w, "torn frame", http.StatusBadRequest)
			return
		}
		rs.events[origin] = append(rs.events[origin], events...)
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(rs.ts.Close)
	return rs
}

func (rs *replicaSink) count(origin string) int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return len(rs.events[origin])
}

func (rs *replicaSink) setFail(v bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.fail = v
}

func target(rs *replicaSink) func() (string, string) {
	return func() (string, string) { return "succ", rs.ts.URL }
}

func TestParsePolicy(t *testing.T) {
	for _, s := range []string{"", "none", "sync"} {
		if _, err := ParsePolicy(s); err != nil {
			t.Errorf("ParsePolicy(%q): %v", s, err)
		}
	}
	for _, s := range []string{"quorum", "async"} {
		if _, err := ParsePolicy(s); err == nil {
			t.Errorf("ParsePolicy accepted the unknown policy %q", s)
		}
	}
}

// TestSyncReplicate: the sync policy's Replicate blocks on the
// successor's append and propagates its failure — the caller's ack
// gate.
func TestSyncReplicate(t *testing.T) {
	rs := newReplicaSink(t)
	s, err := New(Options{Policy: PolicySync, Origin: "n0", Target: target(rs)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ev := journal.Event{Type: journal.EventAccepted, ID: "job-000001", Spec: []byte(`{"kind":"timing"}`)}
	if err := s.Replicate(ev); err != nil {
		t.Fatalf("sync replicate: %v", err)
	}
	if got := rs.count("n0"); got != 1 {
		t.Fatalf("successor holds %d events, want 1", got)
	}
	if st := s.Stats(); st.Streamed != 1 || st.StreamErrors != 0 {
		t.Fatalf("stats = %+v, want 1 streamed, 0 errors", st)
	}

	rs.setFail(true)
	if err := s.Replicate(ev); err == nil {
		t.Fatal("sync replicate to a failing successor returned nil; the ack gate is broken")
	}
	if st := s.Stats(); st.StreamErrors != 1 {
		t.Fatalf("stats = %+v, want 1 stream error", st)
	}
}

// TestSyncReplicateFaultPoint: the repl.stream fault point withholds
// the append (and the ack) deterministically.
func TestSyncReplicateFaultPoint(t *testing.T) {
	rs := newReplicaSink(t)
	reg := faultinject.New()
	if err := reg.Arm(FaultStream+"=error:stream severed,count:1", 1); err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{Policy: PolicySync, Origin: "n0", Target: target(rs), Faults: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ev := journal.Event{Type: journal.EventAccepted, ID: "job-000001"}
	if err := s.Replicate(ev); err == nil {
		t.Fatal("armed repl.stream did not fail the replicate")
	}
	if got := rs.count("n0"); got != 0 {
		t.Fatalf("successor holds %d events after an injected stream failure, want 0", got)
	}
	if err := s.Replicate(ev); err != nil {
		t.Fatalf("replicate after the fault's count expired: %v", err)
	}
}

// TestNonePolicyNoop: none (and a nil streamer) replicate vacuously.
func TestNonePolicyNoop(t *testing.T) {
	s, err := New(Options{Policy: PolicyNone})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Replicate(journal.Event{Type: journal.EventAccepted, ID: "x"}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	var nilStreamer *Streamer
	if err := nilStreamer.Replicate(journal.Event{}); err != nil {
		t.Fatal(err)
	}
	nilStreamer.Close()
	if nilStreamer.Policy() != PolicyNone {
		t.Fatal("nil streamer policy != none")
	}
}

// TestNoSuccessor: an empty target URL (one-node herd) succeeds
// vacuously under sync.
func TestNoSuccessor(t *testing.T) {
	s, err := New(Options{
		Policy: PolicySync,
		Origin: "n0",
		Target: func() (string, string) { return "", "" },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Replicate(journal.Event{Type: journal.EventAccepted, ID: "x"}); err != nil {
		t.Fatalf("replicate with no successor: %v", err)
	}
}
