package loadgen

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestRetryDelayFullJitter pins the backoff contract: each delay is a
// uniform draw from [0, backoff<<attempt), equal seeds reproduce equal
// schedules, and the ceiling caps at maxRetryDelay.
func TestRetryDelayFullJitter(t *testing.T) {
	backoff := 100 * time.Millisecond
	a := NewClient("http://x", 5, backoff, 42)
	b := NewClient("http://x", 5, backoff, 42)
	c := NewClient("http://x", 5, backoff, 43)
	var sameSeedEqual, diffSeedDiffer bool = true, false
	for attempt := 0; attempt < 5; attempt++ {
		da := a.retryDelay(attempt, "")
		db := b.retryDelay(attempt, "")
		dc := c.retryDelay(attempt, "")
		ceil := backoff << attempt
		if da < 0 || da >= ceil {
			t.Fatalf("attempt %d: delay %s outside [0, %s)", attempt, da, ceil)
		}
		if da != db {
			sameSeedEqual = false
		}
		if da != dc {
			diffSeedDiffer = true
		}
	}
	if !sameSeedEqual {
		t.Fatal("equal seeds produced different retry schedules")
	}
	if !diffSeedDiffer {
		t.Fatal("different seeds produced identical retry schedules (jitter not seeded?)")
	}
	// Far-out attempts (including shift overflow) stay under the cap.
	for _, attempt := range []int{20, 40, 63} {
		if d := a.retryDelay(attempt, ""); d < 0 || d >= maxRetryDelay {
			t.Fatalf("attempt %d: delay %s outside [0, %s)", attempt, d, maxRetryDelay)
		}
	}
}

// TestRetryDelayHonorsRetryAfter pins the server-hint path: a valid
// Retry-After overrides the jitter verbatim (capped), anything else
// falls back to the jittered draw.
func TestRetryDelayHonorsRetryAfter(t *testing.T) {
	c := NewClient("http://x", 3, 10*time.Millisecond, 1)
	if d := c.retryDelay(0, "2"); d != 2*time.Second {
		t.Fatalf("Retry-After 2 → %s, want 2s", d)
	}
	if d := c.retryDelay(0, " 3 "); d != 3*time.Second {
		t.Fatalf("padded Retry-After → %s, want 3s", d)
	}
	if d := c.retryDelay(0, "9999"); d != maxRetryDelay {
		t.Fatalf("huge Retry-After → %s, want cap %s", d, maxRetryDelay)
	}
	for _, bad := range []string{"", "0", "-1", "soon", "1.5"} {
		if d := c.retryDelay(0, bad); d < 0 || d >= 10*time.Millisecond {
			t.Fatalf("Retry-After %q → %s, want jittered [0, 10ms)", bad, d)
		}
	}
}

// TestPostRetryBacksOffAndRecovers drives postRetry against a handler
// that sheds twice (with a Retry-After hint) before accepting, and
// checks the retry accounting.
func TestPostRetryBacksOffAndRecovers(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			// A sub-second Retry-After is not representable in integer
			// seconds; send none so the client's jitter (bounded by the
			// tiny backoff) keeps the test fast.
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"id":"job-000001"}`))
	}))
	defer ts.Close()

	c := NewClient(ts.URL, 3, time.Millisecond, 7)
	body, code, err := c.postRetry(context.Background(), "/v1/jobs", []byte(`{}`), "", "")
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusAccepted {
		t.Fatalf("final status = %d, want 202", code)
	}
	if len(body) == 0 {
		t.Fatal("empty final body")
	}
	if got := c.RetriesUsed(); got != 2 {
		t.Fatalf("RetriesUsed = %d, want 2", got)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3", got)
	}
}

// TestPostRetryExhaustsBudget: a server that always sheds returns its
// final 429 (not an error) once the attempt budget is spent.
func TestPostRetryExhaustsBudget(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"shedding load"}`))
	}))
	defer ts.Close()

	c := NewClient(ts.URL, 2, time.Millisecond, 7)
	_, code, err := c.postRetry(context.Background(), "/v1/jobs", []byte(`{}`), "", "")
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusTooManyRequests {
		t.Fatalf("final status = %d, want 429", code)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 1 + 2 retries", got)
	}
}

// TestMetricsRejectsErrorStatus: a 5xx answer from /metrics is an
// error carrying the server's message, not a metrics document made of
// its error body.
func TestMetricsRejectsErrorStatus(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
		w.Write([]byte(`{"error":"metrics unavailable"}`))
	}))
	defer ts.Close()

	doc, err := NewClient(ts.URL, 0, time.Millisecond, 1).Metrics(context.Background())
	if err == nil {
		t.Fatalf("Metrics on HTTP 500 = %v, want an error", doc)
	}
	if !strings.Contains(err.Error(), "HTTP 500") || !strings.Contains(err.Error(), "metrics unavailable") {
		t.Fatalf("Metrics error %q does not carry the status and message", err)
	}
}
