package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"thermalherd/internal/httpjson"
)

func submitBatch(t *testing.T, url, body string) (*http.Response, BatchResponse) {
	t.Helper()
	resp, err := http.Post(url+"/v1/jobs:batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs:batch: %v", err)
	}
	defer resp.Body.Close()
	var br BatchResponse
	json.NewDecoder(resp.Body).Decode(&br) // error docs leave br zero
	return resp, br
}

func TestBatchSubmitMixedOutcomes(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8, CacheSize: 8})
	stubExec(s, func(ctx context.Context, spec Spec, report progressFunc) (json.RawMessage, error) {
		return json.RawMessage(fmt.Sprintf(`{"workload":%q}`, spec.Workload)), nil
	})
	resp, br := submitBatch(t, ts.URL, `{"jobs":[
		{"kind":"timing","workload":"mcf"},
		{"kind":"timing","workload":"doom2016"},
		{"kind":"timing","workload":"crafty"}
	]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch = %s, want 200", resp.Status)
	}
	if len(br.Jobs) != 3 {
		t.Fatalf("batch items = %d, want 3", len(br.Jobs))
	}
	if br.Jobs[0].Status == nil || br.Jobs[0].Status.ID == "" {
		t.Fatalf("item 0 not admitted: %+v", br.Jobs[0])
	}
	if br.Jobs[1].Status != nil || br.Jobs[1].Code != http.StatusBadRequest {
		t.Fatalf("item 1 (unknown workload) = %+v, want 400 error", br.Jobs[1])
	}
	if br.Jobs[2].Status == nil {
		t.Fatalf("item 2 not admitted: %+v", br.Jobs[2])
	}
	waitState(t, ts, br.Jobs[0].Status.ID, StateDone)
	waitState(t, ts, br.Jobs[2].Status.ID, StateDone)

	// An identical batch is answered entirely from the cache with no
	// new simulations; /metrics counts one batch request per call.
	_, br2 := submitBatch(t, ts.URL, `{"jobs":[
		{"kind":"timing","workload":"mcf"},
		{"kind":"timing","workload":"doom2016"},
		{"kind":"timing","workload":"crafty"}
	]}`)
	for _, i := range []int{0, 2} {
		if br2.Jobs[i].Status == nil || !br2.Jobs[i].Status.FromCache {
			t.Fatalf("resubmitted item %d not served from cache: %+v", i, br2.Jobs[i])
		}
	}
	doc := metricsDoc(t, ts)
	if got := counter(t, doc, "http", "batch_requests"); got != 2 {
		t.Fatalf("batch_requests = %v, want 2", got)
	}
	if hits := counter(t, doc, "cache", "hits"); hits != 2 {
		t.Fatalf("cache hits = %v, want 2", hits)
	}
	if completed := counter(t, doc, "jobs", "completed"); completed != 2 {
		t.Fatalf("completed = %v, want 2", completed)
	}
}

func TestBatchSubmitQueueOverflowPerItem(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, CacheSize: 2})
	release := make(chan struct{})
	stubExec(s, func(ctx context.Context, spec Spec, report progressFunc) (json.RawMessage, error) {
		<-release
		return json.RawMessage(`{}`), nil
	})
	defer close(release)
	// Occupy the single worker so queued items stay queued.
	_, first := postJob(t, ts, `{"kind":"timing","workload":"patricia"}`)
	waitState(t, ts, first.ID, StateRunning)
	resp, br := submitBatch(t, ts.URL, `{"jobs":[
		{"kind":"timing","workload":"mcf"},
		{"kind":"timing","workload":"crafty"},
		{"kind":"timing","workload":"gzip"}
	]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch = %s, want 200 (item-level failures)", resp.Status)
	}
	if br.Jobs[0].Status == nil {
		t.Fatalf("item 0 should fill the queue: %+v", br.Jobs[0])
	}
	for _, i := range []int{1, 2} {
		if br.Jobs[i].Status != nil || br.Jobs[i].Code != http.StatusServiceUnavailable {
			t.Fatalf("item %d = %+v, want 503 overflow error", i, br.Jobs[i])
		}
	}
}

func TestBatchSubmitRejectsBadShapes(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2, CacheSize: 2})
	var big strings.Builder
	big.WriteString(`{"jobs":[`)
	for i := 0; i <= MaxBatchJobs; i++ {
		if i > 0 {
			big.WriteString(",")
		}
		big.WriteString(`{"kind":"timing","workload":"mcf"}`)
	}
	big.WriteString(`]}`)
	for _, c := range []struct{ name, body string }{
		{"not json", `{{{`},
		{"empty batch", `{"jobs":[]}`},
		{"missing jobs", `{}`},
		{"unknown field", `{"jobs":[],"mode":"x"}`},
		{"oversized", big.String()},
	} {
		resp, _ := submitBatch(t, ts.URL, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %s, want 400", c.name, resp.Status)
		}
	}
}

func TestBatchSubmitDraining503(t *testing.T) {
	s, err := New(Config{Workers: 1, QueueDepth: 2, CacheSize: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 5e9)
	defer cancel()
	s.Drain(ctx)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs:batch", strings.NewReader(
		`{"jobs":[{"kind":"timing","workload":"mcf"},{"kind":"timing","workload":"gzip"},{"kind":"timing","workload":"gcc"}],
		  "tenants":["a","","b"]}`))
	req.Header.Set(TenantHeader, "h")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /v1/jobs:batch: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("batch while draining = %s, want 503", resp.Status)
	}
	// Every refused spec is one submission and one rejection, charged to
	// its own tenant (the header's when the spec names none).
	doc := metricsDoc(t, ts)
	if sub, rej := counter(t, doc, "jobs", "submitted"), counter(t, doc, "jobs", "rejected"); sub != 3 || rej != 3 {
		t.Fatalf("draining batch of 3 counted submitted %v / rejected %v, want 3 / 3", sub, rej)
	}
	for _, tenant := range []string{"a", "h", "b"} {
		td := tenantDoc(t, doc, tenant)
		if td["submitted"].(float64) != 1 || td["rejected"].(float64) != 1 {
			t.Errorf("tenant %s = %v, want 1 submitted / 1 rejected", tenant, td)
		}
	}
	reconcileTenants(t, doc)
}

func TestListJobsFilterAndPagination(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 16, CacheSize: 4})
	stubExec(s, func(ctx context.Context, spec Spec, report progressFunc) (json.RawMessage, error) {
		if spec.Workload == "yacr2" {
			return nil, fmt.Errorf("boom")
		}
		return json.RawMessage(`{}`), nil
	})
	ids := []string{}
	for _, wl := range []string{"mcf", "crafty", "gzip", "patricia", "yacr2"} {
		_, st := postJob(t, ts, fmt.Sprintf(`{"kind":"timing","workload":%q}`, wl))
		ids = append(ids, st.ID)
	}
	for _, id := range ids[:4] {
		waitState(t, ts, id, StateDone)
	}
	waitState(t, ts, ids[4], StateFailed)

	list := func(params string) ListResponse {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/jobs" + params)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/jobs%s = %s", params, resp.Status)
		}
		var lr ListResponse
		if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
			t.Fatal(err)
		}
		return lr
	}

	all := list("")
	if all.Total != 5 || len(all.Jobs) != 5 || all.NextOffset != nil {
		t.Fatalf("list all = total %d, %d jobs, next %v", all.Total, len(all.Jobs), all.NextOffset)
	}
	for i := 1; i < len(all.Jobs); i++ {
		if all.Jobs[i-1].ID >= all.Jobs[i].ID {
			t.Fatalf("list not in id order: %s then %s", all.Jobs[i-1].ID, all.Jobs[i].ID)
		}
	}

	done := list("?status=done")
	if done.Total != 4 || len(done.Jobs) != 4 {
		t.Fatalf("status=done total = %d (%d jobs), want 4", done.Total, len(done.Jobs))
	}
	failed := list("?status=failed")
	if failed.Total != 1 || failed.Jobs[0].ID != ids[4] {
		t.Fatalf("status=failed = %+v, want just %s", failed, ids[4])
	}

	page1 := list("?limit=2")
	if len(page1.Jobs) != 2 || page1.NextOffset == nil || *page1.NextOffset != 2 {
		t.Fatalf("page1 = %d jobs, next %v; want 2 jobs next 2", len(page1.Jobs), page1.NextOffset)
	}
	page2 := list(fmt.Sprintf("?limit=2&offset=%d", *page1.NextOffset))
	if len(page2.Jobs) != 2 || page2.Jobs[0].ID != all.Jobs[2].ID {
		t.Fatalf("page2 starts at %s, want %s", page2.Jobs[0].ID, all.Jobs[2].ID)
	}
	page3 := list("?limit=2&offset=4")
	if len(page3.Jobs) != 1 || page3.NextOffset != nil {
		t.Fatalf("page3 = %d jobs, next %v; want 1 job, no next", len(page3.Jobs), page3.NextOffset)
	}
	beyond := list("?offset=99")
	if len(beyond.Jobs) != 0 || beyond.Total != 5 {
		t.Fatalf("offset beyond end = %+v, want empty page with total 5", beyond)
	}

	for _, bad := range []string{"?status=pending", "?limit=0", "?limit=9999", "?limit=x", "?offset=-1", "?offset=x"} {
		resp, err := http.Get(ts.URL + "/v1/jobs" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /v1/jobs%s = %s, want 400", bad, resp.Status)
		}
	}

	doc := metricsDoc(t, ts)
	if got := counter(t, doc, "http", "list_requests"); got < 5 {
		t.Fatalf("list_requests = %v, want >= 5", got)
	}
}

// TestMethodNotAllowed is the satellite's table-driven check: every
// route answers wrong-method requests with a JSON 405 and an accurate
// Allow header.
func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2, CacheSize: 2})
	cases := []struct {
		path   string
		method string
		allow  string
	}{
		{"/v1/jobs", http.MethodDelete, "GET, HEAD, POST"},
		{"/v1/jobs", http.MethodPut, "GET, HEAD, POST"},
		{"/v1/jobs:batch", http.MethodGet, "POST"},
		{"/v1/jobs:batch", http.MethodDelete, "POST"},
		{"/v1/jobs/job-000001", http.MethodPost, "DELETE, GET, HEAD"},
		{"/v1/jobs/job-000001/result", http.MethodDelete, "GET, HEAD"},
		{"/v1/workloads", http.MethodPost, "GET, HEAD"},
		{"/v1/configs", http.MethodDelete, "GET, HEAD"},
		{"/healthz", http.MethodPost, "GET, HEAD"},
		{"/metrics", http.MethodPut, "GET, HEAD"},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var doc httpjson.ErrorDoc
		json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s = %s, want 405", c.method, c.path, resp.Status)
			continue
		}
		if got := resp.Header.Get("Allow"); got != c.allow {
			t.Errorf("%s %s Allow = %q, want %q", c.method, c.path, got, c.allow)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s Content-Type = %q, want application/json", c.method, c.path, ct)
		}
		if doc.Error == "" {
			t.Errorf("%s %s: 405 body carries no error document", c.method, c.path)
		}
	}
}
