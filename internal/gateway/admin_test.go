package gateway

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

const testAdminToken = "test-admin-token"

// adminDo issues one admin-API request with the given bearer token.
func adminDo(t *testing.T, method, url, token, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s %s reply: %v", method, url, err)
	}
	return resp, buf
}

func mustUnmarshal(t *testing.T, raw []byte, out any) {
	t.Helper()
	if err := json.Unmarshal(raw, out); err != nil {
		t.Fatalf("unmarshal %s: %v", raw, err)
	}
}

// TestGatewayAdminAuth: without a configured token the admin API is
// disabled outright; with one, only the exact bearer token passes.
func TestGatewayAdminAuth(t *testing.T) {
	_, tsNoToken, _ := startHerd(t, 2, herdOpts{})
	if resp, _ := adminDo(t, http.MethodGet, tsNoToken.URL+"/v1/admin/nodes", "whatever", ""); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("admin call on tokenless gateway: HTTP %d, want 403", resp.StatusCode)
	}

	_, ts, _ := startHerd(t, 2, herdOpts{gw: func(c *Config) { c.AdminToken = testAdminToken }})
	if resp, _ := adminDo(t, http.MethodGet, ts.URL+"/v1/admin/nodes", "", ""); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("admin call without token: HTTP %d, want 401", resp.StatusCode)
	}
	if resp, _ := adminDo(t, http.MethodGet, ts.URL+"/v1/admin/nodes", "wrong-token", ""); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("admin call with wrong token: HTTP %d, want 401", resp.StatusCode)
	}
	var doc adminTopologyDoc
	resp, raw := adminDo(t, http.MethodGet, ts.URL+"/v1/admin/nodes", testAdminToken, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("authorized admin list: HTTP %d: %s", resp.StatusCode, raw)
	}
	mustUnmarshal(t, raw, &doc)
	if doc.Epoch != 1 || len(doc.Nodes) != 2 {
		t.Fatalf("topology = epoch %d with %d nodes, want epoch 1 with 2", doc.Epoch, len(doc.Nodes))
	}
	for _, n := range doc.Nodes {
		if n.Breaker != string(breakerClosed) {
			t.Fatalf("node %s breaker = %q, want closed", n.Name, n.Breaker)
		}
	}
}

// TestGatewayAdminAddNode: a backend added at runtime enters as
// joining, is promoted by a probe, takes exactly the ring shard a
// static 4-node gateway would give it, and bumps the epoch.
func TestGatewayAdminAddNode(t *testing.T) {
	g, ts, _ := startHerd(t, 3, herdOpts{gw: func(c *Config) { c.AdminToken = testAdminToken }})
	joiner := startBackend(t, "n3", nil)

	resp, raw := adminDo(t, http.MethodPost, ts.URL+"/v1/admin/nodes", testAdminToken,
		fmt.Sprintf(`{"name":"n3","url":%q}`, joiner.ts.URL))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("add node: HTTP %d: %s", resp.StatusCode, raw)
	}
	if g.Epoch() != 2 {
		t.Fatalf("epoch after add = %d, want 2", g.Epoch())
	}

	// The joiner is live, so the kicked-off probe promotes it shortly.
	deadline := time.Now().Add(5 * time.Second)
	for g.stateOf("n3") != NodeHealthy {
		if time.Now().After(deadline) {
			t.Fatalf("joiner never reached healthy (state %s)", g.stateOf("n3"))
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Deterministic rehash: the live gateway's ring now answers
	// identically to a ring built over 4 static nodes.
	want := NewRing(0)
	for _, n := range []string{"n0", "n1", "n2", "n3"} {
		want.Add(n)
	}
	workload := ""
	for _, name := range []string{"bitcount", "mcf", "gzip", "crc32", "fft", "dijkstra"} {
		if want.Lookup(quickSpecHash(t, name)) == "n3" {
			workload = name
			break
		}
	}
	if workload == "" {
		workload = workloadHomedOn(t, g, "n3") // fall back to the suite scan
	}
	if got := g.ring.Lookup(quickSpecHash(t, workload)); got != "n3" {
		t.Fatalf("live ring homes %s on %q, static 4-node ring says n3", workload, got)
	}
	st := submitVia(t, ts.URL, quickSpec(workload), nil)
	if _, node, _ := splitID(st.ID); node != "n3" {
		t.Fatalf("submit landed on %q, want the joiner n3", node)
	}
	waitDone(t, ts.URL, st.ID)

	// Duplicate adds are refused.
	if resp, _ := adminDo(t, http.MethodPost, ts.URL+"/v1/admin/nodes", testAdminToken,
		fmt.Sprintf(`{"name":"n3","url":%q}`, joiner.ts.URL)); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate add: HTTP %d, want 409", resp.StatusCode)
	}
}

// TestGatewayAdminJoiningTakesNoTraffic: a joiner that never probes
// healthy (dead URL) is in the ring but not in the rotation — its shard
// keeps failing over instead of eating live submits.
func TestGatewayAdminJoiningTakesNoTraffic(t *testing.T) {
	g, ts, _ := startHerd(t, 2, herdOpts{gw: func(c *Config) { c.AdminToken = testAdminToken }})
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close()

	resp, raw := adminDo(t, http.MethodPost, ts.URL+"/v1/admin/nodes", testAdminToken,
		fmt.Sprintf(`{"name":"n2","url":%q}`, dead.URL))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("add node: HTTP %d: %s", resp.StatusCode, raw)
	}
	workload := workloadHomedOn(t, g, "n2")
	st := submitVia(t, ts.URL, quickSpec(workload), nil)
	if _, node, _ := splitID(st.ID); node == "n2" {
		t.Fatal("submit routed to a joiner that was never probed healthy")
	}
}

// TestGatewayAdminDrainRemoveLifecycle: drain pins the node out of the
// submit rotation while its existing jobs stay readable; remove bumps
// the epoch, shrinks the ring, and leaves a tombstone so old namespaced
// ids still route to the living process.
func TestGatewayAdminDrainRemoveLifecycle(t *testing.T) {
	g, ts, _ := startHerd(t, 3, herdOpts{gw: func(c *Config) { c.AdminToken = testAdminToken }})
	workload := workloadHomedOn(t, g, "n1")
	st := submitVia(t, ts.URL, quickSpec(workload), nil)
	waitDone(t, ts.URL, st.ID)

	resp, raw := adminDo(t, http.MethodPost, ts.URL+"/v1/admin/nodes/n1/drain", testAdminToken, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("drain: HTTP %d: %s", resp.StatusCode, raw)
	}
	if got := g.stateOf("n1"); got != NodeDraining {
		t.Fatalf("state after drain = %s, want draining", got)
	}
	g.ProbeNow() // the healthy backend cannot unpin itself
	if got := g.stateOf("n1"); got != NodeDraining {
		t.Fatalf("state after post-drain probe = %s, want still draining", got)
	}

	// New placements avoid the draining node; its old job stays readable.
	st2 := submitVia(t, ts.URL, quickSpec(workload), nil)
	if _, node, _ := splitID(st2.ID); node == "n1" {
		t.Fatal("submit routed to a draining node")
	}
	waitDone(t, ts.URL, st.ID)

	// The node's jobs are settled (done), so removal is permitted.
	resp, raw = adminDo(t, http.MethodDelete, ts.URL+"/v1/admin/nodes/n1", testAdminToken, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("remove: HTTP %d: %s", resp.StatusCode, raw)
	}
	if g.Epoch() != 2 {
		t.Fatalf("epoch after remove = %d, want 2", g.Epoch())
	}
	if nodes := g.ringNodes(); len(nodes) != 2 {
		t.Fatalf("ring after remove = %v, want 2 nodes", nodes)
	}

	// Tombstone: the removed node's namespaced id still resolves while
	// the backend process lives.
	got := waitDone(t, ts.URL, st.ID)
	if got.ID != st.ID {
		t.Fatalf("tombstone read returned id %q, want %q", got.ID, st.ID)
	}

	// Removing an unknown node is a clean 404.
	if resp, _ := adminDo(t, http.MethodDelete, ts.URL+"/v1/admin/nodes/ghost", testAdminToken, ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("remove unknown node: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestGatewayAdminRemoveRefusesUnknownLoad: when the gateway cannot
// prove a node idle (its list endpoint is unreachable), removal is
// refused without force=1 — losing acked jobs must take an explicit
// override.
func TestGatewayAdminRemoveRefusesUnknownLoad(t *testing.T) {
	fakes := make([]*fakeBackend, 2)
	backends := make([]Backend, 2)
	for i := range fakes {
		fakes[i] = newFakeBackend(t) // no GET /v1/jobs handler
		backends[i] = Backend{Name: fmt.Sprintf("n%d", i), URL: fakes[i].ts.URL}
	}
	g, err := New(Config{Backends: backends, ProbeInterval: time.Hour, AdminToken: testAdminToken})
	if err != nil {
		t.Fatalf("gateway.New: %v", err)
	}
	ts := httptest.NewServer(g)
	t.Cleanup(func() {
		ts.Close()
		g.Close()
	})

	resp, raw := adminDo(t, http.MethodDelete, ts.URL+"/v1/admin/nodes/n1", testAdminToken, "")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("remove with unknown load: HTTP %d: %s, want 409", resp.StatusCode, raw)
	}
	if resp, raw = adminDo(t, http.MethodDelete, ts.URL+"/v1/admin/nodes/n1?force=1", testAdminToken, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("forced remove: HTTP %d: %s, want 200", resp.StatusCode, raw)
	}
	if g.Epoch() != 2 {
		t.Fatalf("epoch after forced remove = %d, want 2", g.Epoch())
	}
}
