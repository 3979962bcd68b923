package loadgen

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestChaosCheckAccountingIdentityBroken: a daemon whose /metrics
// settles fewer jobs than it admitted fails the chaos check.
func TestChaosCheckAccountingIdentityBroken(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		switch r.URL.Path {
		case "/healthz":
			w.Write([]byte(`{"status":"ok"}`))
		case "/v1/jobs":
			w.Write([]byte(`{"jobs":[],"total":0}`))
		case "/metrics":
			w.Write([]byte(`{"jobs":{"submitted":5,"completed":3,"failed":0,"canceled":0,"rejected":0,"migrated":0},"cache":{"hits":1}}`))
		default:
			http.NotFound(w, r)
		}
	}))
	defer ts.Close()

	_, err := ChaosCheck(context.Background(), NewClient(ts.URL, 0, time.Millisecond, 1), &Report{})
	if err == nil || !strings.Contains(err.Error(), "accounting identity broken") {
		t.Fatalf("err = %v, want an accounting identity error", err)
	}
}

// TestReconcileAckedCountsMissingJobLost: an acked id the fleet no
// longer knows (404 until the audit gives up) is one lost acked job;
// an id that reports a terminal state is resolved.
func TestReconcileAckedCountsMissingJobLost(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/jobs/job-000001" {
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`{"id":"job-000001","state":"done"}`))
			return
		}
		w.WriteHeader(http.StatusNotFound)
		w.Write([]byte(`{"error":"no such job"}`))
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	fo := ReconcileAcked(ctx, NewClient(ts.URL, 0, time.Millisecond, 1), "none", []string{"job-000001", "job-000002"})
	if fo.Policy != "none" || fo.Acked != 2 || fo.Resolved != 1 || fo.Lost != 1 {
		t.Fatalf("failover stats = %+v, want none: 2 acked, 1 resolved, 1 lost", fo)
	}
}
