package server

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// runJob submits body, waits for it to finish and returns the raw
// result bytes.
func runJob(t *testing.T, ts *httptest.Server, body string) []byte {
	t.Helper()
	resp, st := postJob(t, ts, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %s, want 202", resp.Status)
	}
	waitState(t, ts, st.ID, StateDone)
	res, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil || res.StatusCode != http.StatusOK {
		t.Fatalf("GET result = %s, %v", res.Status, err)
	}
	return b
}

// TestThermalJobReusesTimingSimulation: a thermal job after the timing
// job with the same machine, workload and depths takes its simulation
// from the server's memo, still executes (counted as completed, not as
// a result-cache hit), and returns exactly the bytes the same thermal
// job returns on a fresh server.
func TestThermalJobReusesTimingSimulation(t *testing.T) {
	const depths = `"depths":{"fast_forward":20000,"warmup":5000,"measure":5000,"grid":8}}`
	const timing = `{"kind":"timing","config":"3D","workload":"bitcount",` + depths
	const thermal = `{"kind":"thermal","config":"3D","workload":"bitcount",` + depths

	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, CacheSize: 4})
	runJob(t, ts, timing)
	shared := runJob(t, ts, thermal)
	doc := metricsDoc(t, ts)
	for name, want := range map[string]float64{"hits": 1, "misses": 1, "entries": 1} {
		if got := counter(t, doc, "memo", name); got != want {
			t.Errorf("memo.%s = %v, want %v", name, got, want)
		}
	}
	if got := counter(t, doc, "jobs", "completed"); got != 2 {
		t.Errorf("jobs.completed = %v, want 2", got)
	}
	if got := counter(t, doc, "cache", "hits"); got != 0 {
		t.Errorf("cache.hits = %v, want 0", got)
	}
	reconcile(t, doc)

	_, fresh := newTestServer(t, Config{Workers: 1, QueueDepth: 4, CacheSize: 4})
	alone := runJob(t, fresh, thermal)
	if !bytes.Equal(shared, alone) {
		t.Errorf("thermal result differs with a memo hit:\nshared %s\nalone  %s", shared, alone)
	}
	if got := counter(t, metricsDoc(t, fresh), "memo", "hits"); got != 0 {
		t.Errorf("fresh server memo.hits = %v, want 0", got)
	}
}
