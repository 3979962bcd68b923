package gateway

import (
	"encoding/json"
	"net/http"
	"sort"
	"testing"

	"thermalherd/internal/server"
)

// TestFleetMetricNamesUnion is the fleet-wide registry pin: the union
// of every //thermlint:metricnames registry (the server's backend keys
// plus the gateway's own additions) must be collision-free, and a live
// herd's aggregated /metrics response must emit exactly that union.
// Between this test and the per-package metrickeys analyzer, no metric
// key can appear, vanish, or collide anywhere in the fleet without the
// registries changing in the same commit.
func TestFleetMetricNamesUnion(t *testing.T) {
	union := make(map[string]string)
	for _, k := range server.MetricNames() {
		union[k] = "server"
	}
	for _, k := range MetricNames() {
		if owner, dup := union[k]; dup {
			t.Errorf("metric key %q registered by both %s and gateway", k, owner)
			continue
		}
		union[k] = "gateway"
	}
	if t.Failed() {
		t.Fatal("registry union has collisions; aggregation would fold distinct meanings into one key")
	}

	_, ts, _ := startHerd(t, 2, herdOpts{})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gateway /metrics = %s", resp.Status)
	}
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}

	// Flatten with registry-aware descent: a registered key is a leaf
	// even when its value is a sub-document with dynamic keys (per-kind
	// latency, per-tenant counters, the backends snapshot array).
	registered := func(k string) bool { _, ok := union[k]; return ok }
	var emitted []string
	var flatten func(key string, v any)
	flatten = func(key string, v any) {
		if registered(key) {
			emitted = append(emitted, key)
			return
		}
		if sub, ok := v.(map[string]any); ok {
			for k, child := range sub {
				flatten(key+"."+k, child)
			}
			return
		}
		emitted = append(emitted, key)
	}
	for k, v := range doc {
		flatten(k, v)
	}
	sort.Strings(emitted)

	emittedSet := make(map[string]bool, len(emitted))
	for _, k := range emitted {
		if emittedSet[k] {
			t.Errorf("aggregated /metrics emits %q twice", k)
		}
		emittedSet[k] = true
	}
	for k, owner := range union {
		if !emittedSet[k] {
			t.Errorf("%s registry key %q is not emitted by the live herd's /metrics", owner, k)
		}
	}
	for _, k := range emitted {
		if !registered(k) {
			t.Errorf("live herd /metrics emits %q, which no registry declares", k)
		}
	}
}
