package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"thermalherd/internal/clock"
)

// postJobT submits one job with an explicit X-Tenant-ID header.
func postJobT(t *testing.T, ts *httptest.Server, tenant, body string) (*http.Response, Status) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var st Status
	json.NewDecoder(resp.Body).Decode(&st) // error docs leave st zero
	return resp, st
}

// tenantDoc digs one tenant's counter sub-document out of /metrics.
func tenantDoc(t *testing.T, doc map[string]any, tenant string) map[string]any {
	t.Helper()
	sec, ok := doc["tenants"].(map[string]any)
	if !ok {
		t.Fatalf("metrics missing tenants section: %v", doc)
	}
	td, ok := sec[tenant].(map[string]any)
	if !ok {
		t.Fatalf("metrics tenants missing %q: %v", tenant, sec)
	}
	return td
}

// reconcileTenants asserts the accounting identity holds inside every
// tenant's sub-document, and that the tenant submitted counters sum to
// the global one — no submission is unattributed or double-attributed.
func reconcileTenants(t *testing.T, doc map[string]any) {
	t.Helper()
	sec, ok := doc["tenants"].(map[string]any)
	if !ok {
		t.Fatalf("metrics missing tenants section: %v", doc)
	}
	var sumSubmitted float64
	for tenant, v := range sec {
		td, ok := v.(map[string]any)
		if !ok {
			t.Fatalf("tenant %q sub-document malformed: %v", tenant, v)
		}
		submitted := td["submitted"].(float64)
		terminal := td["hits"].(float64) + td["completed"].(float64) +
			td["failed"].(float64) + td["canceled"].(float64) + td["rejected"].(float64)
		if submitted != terminal {
			t.Fatalf("tenant %q identity broken: submitted %v != hits+completed+failed+canceled+rejected %v",
				tenant, submitted, terminal)
		}
		sumSubmitted += submitted
	}
	if global := counter(t, doc, "jobs", "submitted"); sumSubmitted != global {
		t.Fatalf("tenant submitted sum %v != global submitted %v", sumSubmitted, global)
	}
}

// TestQoSDemoteThenRetrain pins the mid-flight demotion loop: a
// predicted-short job that overruns the short budget is demoted to the
// long pool while still running, and its predictor bucket is retrained
// so the next submission of the same bucket is classed long at
// admission — the service-level analogue of the paper's
// unsafe-mispredict stall-and-retrain.
func TestQoSDemoteThenRetrain(t *testing.T) {
	fake := clock.NewFake(time.Unix(1_700_000_000, 0))
	s, ts := newTestServer(t, Config{
		Workers: 2, QueueDepth: 8, CacheSize: 8,
		SchedPolicy: SchedQoS, ShortBudget: 100 * time.Millisecond, ShortReserve: 1,
		Clock: fake,
	})
	release := make(chan struct{})
	stubExec(s, func(ctx context.Context, spec Spec, report progressFunc) (json.RawMessage, error) {
		if spec.Depths.Measure == 1000 {
			select {
			case <-release:
			case <-ctx.Done():
			}
		}
		return json.RawMessage(`{}`), nil
	})

	// A cold predictor classes everything short (weakly-short init).
	_, st := postJob(t, ts, `{"kind":"timing","workload":"mcf","depths":{"measure":1000}}`)
	if st.Class != "short" {
		t.Fatalf("cold-predictor class = %q, want short", st.Class)
	}
	waitState(t, ts, st.ID, StateRunning)

	// Age the running job past the short budget and sweep. The sweep may
	// race the background demote loop (the fake-clock Advance fires its
	// timer too), so assert on the observable outcome, not the count.
	fake.Advance(150 * time.Millisecond)
	s.sched.demoteOverruns()
	mid := getStatus(t, ts, st.ID)
	if !mid.Demoted || mid.Class != "long" {
		t.Fatalf("overrunning job demoted=%v class=%q, want demoted long", mid.Demoted, mid.Class)
	}

	close(release)
	waitState(t, ts, st.ID, StateDone)

	// Same predictor bucket (measure 1001 shares 1000's log2 class),
	// different cache key: admission must now predict long.
	_, st2 := postJob(t, ts, `{"kind":"timing","workload":"mcf","depths":{"measure":1001}}`)
	if st2.Class != "long" {
		t.Fatalf("post-demotion class = %q, want long (bucket retrained)", st2.Class)
	}
	waitState(t, ts, st2.ID, StateDone)

	doc := metricsDoc(t, ts)
	if got := counter(t, doc, "qos", "demotions"); got < 1 {
		t.Fatalf("qos.demotions = %v, want >= 1", got)
	}
	if got := counter(t, doc, "qos", "mispredicts"); got < 1 {
		t.Fatalf("qos.mispredicts = %v, want >= 1", got)
	}
	if got := counter(t, doc, "qos", "predicted_long"); got < 1 {
		t.Fatalf("qos.predicted_long = %v, want >= 1", got)
	}
	reconcile(t, doc)
	reconcileTenants(t, doc)
}

// TestQoSShortPoolSurvivesLongFlood is the starvation chaos test: a
// flood of trained-long jobs from a batch tenant is capped at longCap
// running slots, so an interactive tenant's short job cuts past the
// backlog and completes while most of the flood is still queued. Under
// FIFO the short job would wait behind every flood job.
func TestQoSShortPoolSurvivesLongFlood(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers: 2, QueueDepth: 64, CacheSize: 8,
		SchedPolicy: SchedQoS, ShortBudget: 20 * time.Millisecond, ShortReserve: 1,
	})
	stubExec(s, func(ctx context.Context, spec Spec, report progressFunc) (json.RawMessage, error) {
		if spec.Depths.Measure != 0 {
			select {
			case <-ctx.Done():
			case <-time.After(60 * time.Millisecond):
			}
		}
		return json.RawMessage(`{}`), nil
	})

	// Train the heavy bucket: the first overrunning job is demoted by
	// the live demote loop, flipping its weakly-short bucket to long;
	// the second run then confirms the long prediction and saturates
	// the counter.
	for i := 0; i < 2; i++ {
		_, st := postJobT(t, ts, "batch",
			fmt.Sprintf(`{"kind":"timing","workload":"crafty","depths":{"measure":%d}}`, 1000+i))
		waitState(t, ts, st.ID, StateDone)
	}

	// Flood from the batch tenant: all predicted long now, so at most
	// longCap (= workers - reserve = 1) runs at a time.
	var flood []string
	for i := 0; i < 8; i++ {
		resp, st := postJobT(t, ts, "batch",
			fmt.Sprintf(`{"kind":"timing","workload":"crafty","depths":{"measure":%d}}`, 1002+i))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("flood submit %d = %s", i, resp.Status)
		}
		if st.Class != "long" {
			t.Fatalf("flood job class = %q, want long (bucket was trained)", st.Class)
		}
		flood = append(flood, st.ID)
	}

	// The interactive tenant's short job must complete while the flood
	// is still mostly pending — the reserved slot cannot be starved.
	_, short := postJobT(t, ts, "live", `{"kind":"timing","workload":"mcf"}`)
	waitState(t, ts, short.ID, StateDone)
	pending := 0
	for _, id := range flood {
		if st := getStatus(t, ts, id); st.State == StateQueued || st.State == StateRunning {
			pending++
		}
	}
	if pending < 4 {
		t.Fatalf("only %d/8 flood jobs still pending when the short job finished; short pool was starved", pending)
	}

	for _, id := range flood {
		waitState(t, ts, id, StateDone)
	}
	doc := metricsDoc(t, ts)
	if got := counter(t, doc, "qos", "demotions"); got < 1 {
		t.Fatalf("qos.demotions = %v, want >= 1 (training overrun)", got)
	}
	bd := tenantDoc(t, doc, "batch")
	if got := bd["submitted"].(float64); got != 10 {
		t.Fatalf("tenant batch submitted = %v, want 10", got)
	}
	ld := tenantDoc(t, doc, "live")
	if got := ld["submitted"].(float64); got != 1 {
		t.Fatalf("tenant live submitted = %v, want 1", got)
	}
	reconcile(t, doc)
	reconcileTenants(t, doc)
}

// TestTenantQuota429 pins the per-tenant token bucket: a tenant over
// its admission rate bounces with 429 + Retry-After without touching
// other tenants, and refills with time.
func TestTenantQuota429(t *testing.T) {
	fake := clock.NewFake(time.Unix(1_700_000_000, 0))
	s, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 8, CacheSize: 8,
		TenantRate: 1, TenantBurst: 1,
		Clock: fake,
	})
	stubExec(s, func(ctx context.Context, spec Spec, report progressFunc) (json.RawMessage, error) {
		return json.RawMessage(`{}`), nil
	})

	resp, st := postJobT(t, ts, "a", `{"kind":"timing","workload":"mcf"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %s, want 202", resp.Status)
	}
	waitState(t, ts, st.ID, StateDone)

	resp2, _ := postJobT(t, ts, "a", `{"kind":"timing","workload":"crafty"}`)
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit = %s, want 429", resp2.Status)
	}
	if ra, err := strconv.Atoi(resp2.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("quota Retry-After = %q, want a positive integer", resp2.Header.Get("Retry-After"))
	}

	// Another tenant has its own bucket.
	resp3, st3 := postJobT(t, ts, "b", `{"kind":"timing","workload":"gzip"}`)
	if resp3.StatusCode != http.StatusAccepted {
		t.Fatalf("other-tenant submit = %s, want 202", resp3.Status)
	}
	waitState(t, ts, st3.ID, StateDone)

	// The bucket refills at TenantRate tokens/sec.
	fake.Advance(2 * time.Second)
	resp4, st4 := postJobT(t, ts, "a", `{"kind":"timing","workload":"patricia"}`)
	if resp4.StatusCode != http.StatusAccepted {
		t.Fatalf("post-refill submit = %s, want 202", resp4.Status)
	}
	waitState(t, ts, st4.ID, StateDone)

	doc := metricsDoc(t, ts)
	if got := counter(t, doc, "admission", "quota_rejects"); got != 1 {
		t.Fatalf("quota_rejects = %v, want 1", got)
	}
	ad := tenantDoc(t, doc, "a")
	if got := ad["rejected"].(float64); got != 1 {
		t.Fatalf("tenant a rejected = %v, want 1", got)
	}
	reconcile(t, doc)
	reconcileTenants(t, doc)
}

// TestBatchTenantsAndListFilter pins the batch tenants array and the
// ?tenant= list filter end to end.
func TestBatchTenantsAndListFilter(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 16, CacheSize: 8})
	stubExec(s, func(ctx context.Context, spec Spec, report progressFunc) (json.RawMessage, error) {
		return json.RawMessage(`{}`), nil
	})
	body := `{"jobs":[{"kind":"timing","workload":"mcf"},{"kind":"timing","workload":"crafty"}],` +
		`"tenants":["live","batch"]}`
	resp, err := http.Post(ts.URL+"/v1/jobs:batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var br BatchResponse
	json.NewDecoder(resp.Body).Decode(&br)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(br.Jobs) != 2 {
		t.Fatalf("batch = %s with %d items, want 200 with 2", resp.Status, len(br.Jobs))
	}
	for i, tenant := range []string{"live", "batch"} {
		if br.Jobs[i].Status == nil || br.Jobs[i].Status.Tenant != tenant {
			t.Fatalf("batch item %d tenant = %+v, want %q", i, br.Jobs[i].Status, tenant)
		}
		waitState(t, ts, br.Jobs[i].Status.ID, StateDone)
	}

	lr, err := http.Get(ts.URL + "/v1/jobs?tenant=live")
	if err != nil {
		t.Fatal(err)
	}
	var list ListResponse
	json.NewDecoder(lr.Body).Decode(&list)
	lr.Body.Close()
	if list.Total != 1 || len(list.Jobs) != 1 || list.Jobs[0].Tenant != "live" {
		t.Fatalf("list?tenant=live = %+v, want exactly the live job", list)
	}

	// Mismatched tenants length is a 400, not a partial admit.
	bad := `{"jobs":[{"kind":"timing","workload":"gzip"}],"tenants":["a","b"]}`
	br2, err := http.Post(ts.URL+"/v1/jobs:batch", "application/json", strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	br2.Body.Close()
	if br2.StatusCode != http.StatusBadRequest {
		t.Fatalf("mismatched tenants batch = %s, want 400", br2.Status)
	}
	reconcileTenants(t, metricsDoc(t, ts))
}
