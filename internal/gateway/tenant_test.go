package gateway

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"thermalherd/internal/server"
)

// TestGatewayTenantForwarding pins multi-tenant plumbing through the
// gateway: X-Tenant-ID travels byte-for-byte on submit and batch, the
// scatter-gather list surfaces ?tenant= filtering, and the merged
// /metrics document reconciles the per-tenant accounting identity
// fleet-wide.
func TestGatewayTenantForwarding(t *testing.T) {
	_, ts, _ := startHerd(t, 2, herdOpts{})

	// Single submit with a tenant header.
	st := submitVia(t, ts.URL, quickSpec("mcf"), map[string]string{server.TenantHeader: "live"})
	if st.Tenant != "live" {
		t.Fatalf("submitted job tenant = %q, want live (header not forwarded)", st.Tenant)
	}

	// Batch with per-item tenants; specs spread across the ring.
	breq := server.BatchRequest{
		Jobs:    []server.Spec{},
		Tenants: []string{},
	}
	for i, wl := range []string{"crafty", "gzip", "patricia", "yacr2"} {
		var spec server.Spec
		if err := json.Unmarshal([]byte(quickSpec(wl)), &spec); err != nil {
			t.Fatal(err)
		}
		breq.Jobs = append(breq.Jobs, spec)
		tenant := "live"
		if i%2 == 1 {
			tenant = "batch"
		}
		breq.Tenants = append(breq.Tenants, tenant)
	}
	payload, _ := json.Marshal(breq)
	resp, raw := postJSON(t, ts.URL+"/v1/jobs:batch", string(payload), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch = HTTP %d: %s", resp.StatusCode, raw)
	}
	var br server.BatchResponse
	if err := json.Unmarshal(raw, &br); err != nil {
		t.Fatalf("decode batch reply: %v", err)
	}
	for i, item := range br.Jobs {
		if item.Status == nil {
			t.Fatalf("batch item %d failed: %s", i, item.Error)
		}
		if item.Status.Tenant != breq.Tenants[i] {
			t.Fatalf("batch item %d tenant = %q, want %q", i, item.Status.Tenant, breq.Tenants[i])
		}
	}

	// Wait for everything to settle so list/metrics are stable.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var doc ListDoc
		getJSON(t, ts.URL+"/v1/jobs?status=done", &doc)
		if doc.Total == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs never settled: %d/5 done", doc.Total)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// ?tenant= filters across the whole herd: 3 live (1 single + 2
	// batch items), 2 batch.
	for tenant, want := range map[string]int{"live": 3, "batch": 2} {
		var doc ListDoc
		getJSON(t, fmt.Sprintf("%s/v1/jobs?tenant=%s", ts.URL, tenant), &doc)
		if doc.Partial || doc.Total != want {
			t.Fatalf("list?tenant=%s: total=%d partial=%v, want %d complete", tenant, doc.Total, doc.Partial, want)
		}
		for _, st := range doc.Jobs {
			if st.Tenant != tenant {
				t.Fatalf("list?tenant=%s returned job of tenant %q", tenant, st.Tenant)
			}
		}
	}

	// The merged metrics document sums each tenant's counters across
	// backends and the identity reconciles fleet-wide.
	var mdoc map[string]any
	getJSON(t, ts.URL+"/metrics", &mdoc)
	tenants, ok := mdoc["tenants"].(map[string]any)
	if !ok {
		t.Fatalf("merged metrics missing tenants section: %v", mdoc)
	}
	var sum float64
	for tenant, v := range tenants {
		td := v.(map[string]any)
		submitted := td["submitted"].(float64)
		terminal := td["hits"].(float64) + td["completed"].(float64) +
			td["failed"].(float64) + td["canceled"].(float64) + td["rejected"].(float64)
		if submitted != terminal {
			t.Fatalf("fleet-wide tenant %q identity broken: submitted %v != terminal %v", tenant, submitted, terminal)
		}
		sum += submitted
	}
	jobs := mdoc["jobs"].(map[string]any)
	if global := jobs["submitted"].(float64); sum != global {
		t.Fatalf("fleet-wide tenant submitted sum %v != global %v", sum, global)
	}
}
