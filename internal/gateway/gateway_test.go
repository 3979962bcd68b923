package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"thermalherd/internal/replication"
	"thermalherd/internal/server"
	"thermalherd/internal/trace"
)

// backendHandle is one real thermherdd node under test.
type backendHandle struct {
	name string
	srv  *server.Server
	ts   *httptest.Server
}

// startBackend starts one real backend; node, when set, adjusts its
// server.Config first.
func startBackend(t *testing.T, name string, node func(*server.Config)) *backendHandle {
	t.Helper()
	cfg := server.Config{Workers: 2, QueueDepth: 64, CacheSize: 64}
	if node != nil {
		node(&cfg)
	}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatalf("server.New(%s): %v", name, err)
	}
	s.Start()
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return &backendHandle{name: name, srv: s, ts: ts}
}

// herdOpts shapes a startHerd herd.
type herdOpts struct {
	// node adjusts each backend's server.Config before it starts.
	node func(name string, cfg *server.Config)
	// repl chains the backends with sync successor replication (each
	// streams its journal to its successor on the same vnode ring the
	// gateway routes with) and arms takeover: one failed probe marks a
	// node down, and it is adopted a millisecond later.
	repl bool
	// gw adjusts the gateway's Config before it starts.
	gw func(*Config)
}

// startHerd builds n real backends n0..n(n-1) behind one gateway whose
// prober only runs when a test calls ProbeNow. Package gateway's tests
// cannot use internal/herd, which imports gateway, so this is their
// herd builder.
func startHerd(t *testing.T, n int, o herdOpts) (*Gateway, *httptest.Server, []*backendHandle) {
	t.Helper()
	ring := NewRing(0)
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i)
		ring.Add(names[i])
	}
	var mu sync.Mutex
	urls := make(map[string]string, n)
	handles := make([]*backendHandle, n)
	backends := make([]Backend, n)
	for i, name := range names {
		handles[i] = startBackend(t, name, func(cfg *server.Config) {
			if o.repl {
				succ := ring.SuccessorOf(name)
				repl, err := replication.New(replication.Options{
					Policy: replication.PolicySync,
					Origin: name,
					Target: func() (string, string) {
						mu.Lock()
						defer mu.Unlock()
						return succ, urls[succ]
					},
				})
				if err != nil {
					t.Fatalf("replication.New(%s): %v", name, err)
				}
				cfg.NodeName, cfg.Repl = name, repl
			}
			if o.node != nil {
				o.node(name, cfg)
			}
		})
		mu.Lock()
		urls[name] = handles[i].ts.URL
		mu.Unlock()
		backends[i] = Backend{Name: name, URL: handles[i].ts.URL}
	}
	cfg := Config{Backends: backends, ProbeInterval: time.Hour}
	if o.repl {
		cfg.FailThreshold = 1
		cfg.TakeoverAfter = time.Millisecond
		cfg.AdminToken = testAdminToken
	}
	if o.gw != nil {
		o.gw(&cfg)
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatalf("gateway.New: %v", err)
	}
	g.Start()
	ts := httptest.NewServer(g)
	t.Cleanup(func() {
		ts.Close()
		g.Close()
	})
	return g, ts, handles
}

// quickSpec is a timing job fast enough for tests to run to done.
func quickSpec(workload string) string {
	return fmt.Sprintf(`{"kind":"timing","workload":%q,"config":"TH","depths":{"fast_forward":200,"warmup":100,"measure":200}}`, workload)
}

func quickSpecHash(t *testing.T, workload string) string {
	t.Helper()
	var spec server.Spec
	if err := json.Unmarshal([]byte(quickSpec(workload)), &spec); err != nil {
		t.Fatalf("unmarshal spec: %v", err)
	}
	h, err := spec.CanonicalHash()
	if err != nil {
		t.Fatalf("CanonicalHash: %v", err)
	}
	return h
}

// workloadHomedOn finds a suite workload whose quick-spec hash the
// gateway's ring homes on the named node.
func workloadHomedOn(t *testing.T, g *Gateway, node string) string {
	t.Helper()
	for _, p := range trace.Suite() {
		if g.ring.Lookup(quickSpecHash(t, p.Name)) == node {
			return p.Name
		}
	}
	t.Fatalf("no suite workload homes on %s", node)
	return ""
}

func postJSON(t *testing.T, url, body string, header map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode GET %s: %v", url, err)
		}
	}
	return resp
}

func submitVia(t *testing.T, gwURL, body string, header map[string]string) server.Status {
	t.Helper()
	resp, raw := postJSON(t, gwURL+"/v1/jobs", body, header)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, raw)
	}
	var st server.Status
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("decode submit reply: %v (%s)", err, raw)
	}
	return st
}

func waitDone(t *testing.T, gwURL, gid string) server.Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st server.Status
		getJSON(t, gwURL+"/v1/jobs/"+gid, &st)
		switch st.State {
		case server.StateDone:
			return st
		case server.StateFailed, server.StateCanceled:
			t.Fatalf("job %s settled %s: %s", gid, st.State, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished (last state %s)", gid, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// metricAt walks a nested /metrics document by dotted path.
func metricAt(t *testing.T, doc map[string]any, path string) float64 {
	t.Helper()
	cur := any(doc)
	for _, part := range strings.Split(path, ".") {
		m, ok := cur.(map[string]any)
		if !ok {
			t.Fatalf("metric path %s: %T is not a map", path, cur)
		}
		cur = m[part]
	}
	f, ok := cur.(float64)
	if !ok {
		t.Fatalf("metric path %s: %T is not a number", path, cur)
	}
	return f
}

func fetchMetrics(t *testing.T, baseURL string) map[string]any {
	t.Helper()
	var doc map[string]any
	getJSON(t, baseURL+"/metrics", &doc)
	return doc
}

// TestGatewayCacheAffinity is the headline acceptance property: the
// same spec submitted twice through a 3-node herd routes to the same
// backend both times, and the second submission is that backend's
// cache hit — verified against each backend's own /metrics.
func TestGatewayCacheAffinity(t *testing.T) {
	g, ts, handles := startHerd(t, 3, herdOpts{})
	workload := workloadHomedOn(t, g, "n1") // any fixed node; n1 keeps the test deterministic
	body := quickSpec(workload)

	st1 := submitVia(t, ts.URL, body, nil)
	if _, node, ok := splitID(st1.ID); !ok || node != "n1" {
		t.Fatalf("first submit landed on %q (id %s), ring says home is n1", node, st1.ID)
	}
	if want := quickSpecHash(t, workload); st1.SpecHash != want {
		t.Fatalf("submit reply spec_hash = %q, want %q", st1.SpecHash, want)
	}
	waitDone(t, ts.URL, st1.ID)

	st2 := submitVia(t, ts.URL, body, nil)
	_, node2, _ := splitID(st2.ID)
	if node2 != "n1" {
		t.Fatalf("second submit landed on %q, want the same home n1", node2)
	}
	if !st2.FromCache {
		t.Fatalf("second submit of an identical spec not served from cache: %+v", st2)
	}

	for _, h := range handles {
		doc := fetchMetrics(t, h.ts.URL)
		submitted := metricAt(t, doc, "jobs.submitted")
		hits := metricAt(t, doc, "cache.hits")
		if h.name == "n1" {
			if submitted != 2 || hits != 1 {
				t.Fatalf("home backend %s: submitted=%v hits=%v, want 2 and 1", h.name, submitted, hits)
			}
		} else if submitted != 0 {
			t.Fatalf("backend %s saw %v submissions, want 0 (affinity broken)", h.name, submitted)
		}
	}
}

// TestGatewayIdempotencyKeyForward: the client's Idempotency-Key rides
// the proxy hop, so a retried submission dedupes on the home backend
// and returns the original (namespaced) job id.
func TestGatewayIdempotencyKeyForward(t *testing.T) {
	g, ts, handles := startHerd(t, 3, herdOpts{})
	workload := workloadHomedOn(t, g, "n0")
	hdr := map[string]string{"Idempotency-Key": "retry-me"}

	st1 := submitVia(t, ts.URL, quickSpec(workload), hdr)
	st2 := submitVia(t, ts.URL, quickSpec(workload), hdr)
	if st1.ID != st2.ID {
		t.Fatalf("idempotent resubmission minted a new id: %s vs %s", st1.ID, st2.ID)
	}
	doc := fetchMetrics(t, handles[0].ts.URL)
	if deduped := metricAt(t, doc, "jobs.deduped"); deduped != 1 {
		t.Fatalf("home backend deduped=%v, want 1", deduped)
	}
}

// TestGatewayResultAndCancelRouting: namespaced ids route status,
// result, and cancel to the minting backend; malformed or unknown ids
// are a clean 404.
func TestGatewayResultAndCancelRouting(t *testing.T) {
	g, ts, _ := startHerd(t, 3, herdOpts{})
	workload := workloadHomedOn(t, g, "n2")
	st := submitVia(t, ts.URL, quickSpec(workload), nil)
	waitDone(t, ts.URL, st.ID)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	var result map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&result); err != nil {
		t.Fatalf("decode result: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(result) == 0 {
		t.Fatalf("result: HTTP %d with %d keys, want 200 with payload", resp.StatusCode, len(result))
	}

	for _, bad := range []string{"no-separator", "job-000001@ghost", "@n0", "job-000001@"} {
		resp := getJSON(t, ts.URL+"/v1/jobs/"+bad, nil)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %q: HTTP %d, want 404", bad, resp.StatusCode)
		}
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	dresp.Body.Close()
	// The job is already done; the backend's 409 must relay untouched.
	if dresp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel of done job: HTTP %d, want 409", dresp.StatusCode)
	}
}

// TestGatewayListScatterGather: GET /v1/jobs merges every backend's
// jobs with namespaced ids, a fleet-wide total, and working
// pagination.
func TestGatewayListScatterGather(t *testing.T) {
	_, ts, _ := startHerd(t, 3, herdOpts{})
	workloads := []string{"bitcount", "mcf", "gzip"}
	ids := make(map[string]bool)
	for _, wl := range workloads {
		st := submitVia(t, ts.URL, quickSpec(wl), nil)
		ids[st.ID] = true
	}

	var doc ListDoc
	getJSON(t, ts.URL+"/v1/jobs?limit=500", &doc)
	if doc.Total != len(workloads) || len(doc.Jobs) != len(workloads) {
		t.Fatalf("list total=%d jobs=%d, want %d", doc.Total, len(doc.Jobs), len(workloads))
	}
	if doc.Partial {
		t.Fatalf("list partial=true with all backends up: %+v", doc.BackendErrors)
	}
	for _, st := range doc.Jobs {
		if !ids[st.ID] {
			t.Fatalf("list returned unknown id %q (want namespaced ids %v)", st.ID, ids)
		}
	}

	var page ListDoc
	getJSON(t, ts.URL+"/v1/jobs?limit=2", &page)
	if len(page.Jobs) != 2 || page.NextOffset == nil || *page.NextOffset != 2 {
		t.Fatalf("page 1: %d jobs, next=%v; want 2 jobs with next_offset 2", len(page.Jobs), page.NextOffset)
	}
	var page2 ListDoc
	getJSON(t, ts.URL+"/v1/jobs?limit=2&offset=2", &page2)
	if len(page2.Jobs) != 1 || page2.NextOffset != nil {
		t.Fatalf("page 2: %d jobs, next=%v; want 1 job and no next_offset", len(page2.Jobs), page2.NextOffset)
	}
	if page.Jobs[0].ID == page2.Jobs[0].ID {
		t.Fatalf("pagination repeated id %s", page.Jobs[0].ID)
	}
}

// TestGatewayMetricsAggregation: the fleet /metrics document sums the
// backends' counters (the accounting identity reconciles herd-wide)
// and carries the gateway's own sections.
func TestGatewayMetricsAggregation(t *testing.T) {
	_, ts, handles := startHerd(t, 3, herdOpts{})
	for _, wl := range []string{"bitcount", "mcf", "gzip", "crc32"} {
		st := submitVia(t, ts.URL, quickSpec(wl), nil)
		waitDone(t, ts.URL, st.ID)
	}

	doc := fetchMetrics(t, ts.URL)
	if got := metricAt(t, doc, "jobs.submitted"); got != 4 {
		t.Fatalf("aggregated jobs.submitted = %v, want 4", got)
	}
	var perBackend float64
	for _, h := range handles {
		perBackend += metricAt(t, fetchMetrics(t, h.ts.URL), "jobs.submitted")
	}
	if perBackend != 4 {
		t.Fatalf("per-backend submitted sum = %v, want 4", perBackend)
	}
	identity := metricAt(t, doc, "cache.hits") + metricAt(t, doc, "jobs.completed") +
		metricAt(t, doc, "jobs.failed") + metricAt(t, doc, "jobs.canceled") + metricAt(t, doc, "jobs.rejected")
	if got := metricAt(t, doc, "jobs.submitted"); got != identity {
		t.Fatalf("fleet accounting identity broken: submitted=%v, hits+terminal=%v", got, identity)
	}

	if got := metricAt(t, doc, "gateway.submits_routed"); got != 4 {
		t.Fatalf("gateway.submits_routed = %v, want 4", got)
	}
	if got := metricAt(t, doc, "gateway.backends_routable"); got != 3 {
		t.Fatalf("gateway.backends_routable = %v, want 3", got)
	}
	if partial, ok := doc["partial"].(bool); !ok || partial {
		t.Fatalf("partial = %v, want false", doc["partial"])
	}
	backends, ok := doc["backends"].([]any)
	if !ok || len(backends) != 3 {
		t.Fatalf("backends section = %T (%v), want 3 entries", doc["backends"], doc["backends"])
	}
}

// TestGatewayFailover: a dead backend's shard fails over to its ring
// successor — first via the submit path's suspect-and-retry, then
// directly once membership has ejected the node — while other shards
// keep their homes.
func TestGatewayFailover(t *testing.T) {
	g, ts, handles := startHerd(t, 3, herdOpts{})
	victim := handles[1]
	victimWL := workloadHomedOn(t, g, victim.name)
	survivorWL := workloadHomedOn(t, g, "n0")
	expectedFailover := g.ring.Successors(quickSpecHash(t, victimWL), 3)[1]

	victim.ts.Close() // connections now refused

	st := submitVia(t, ts.URL, quickSpec(victimWL), nil)
	_, node, _ := splitID(st.ID)
	if node != expectedFailover {
		t.Fatalf("failover landed on %q, want deterministic successor %q", node, expectedFailover)
	}
	if g.metrics.forwardRetries.Load() == 0 {
		t.Fatal("submit succeeded without recording a forward retry against the dead home")
	}

	// Let membership observe the death, then routing skips the node
	// outright (failover without a failed first hop).
	for i := 0; i < 3; i++ {
		g.ProbeNow()
	}
	if got := g.stateOf(victim.name); got != NodeDown {
		t.Fatalf("victim state after probes = %s, want down", got)
	}
	before := g.metrics.failovers.Load()
	st2 := submitVia(t, ts.URL, quickSpec(victimWL), nil)
	if _, node2, _ := splitID(st2.ID); node2 != expectedFailover {
		t.Fatalf("post-ejection submit landed on %q, want %q", node2, expectedFailover)
	}
	if g.metrics.failovers.Load() <= before {
		t.Fatal("post-ejection submit did not count a failover")
	}

	// A shard homed on a surviving node is untouched by the ejection.
	st3 := submitVia(t, ts.URL, quickSpec(survivorWL), nil)
	if _, node3, _ := splitID(st3.ID); node3 != "n0" {
		t.Fatalf("surviving shard moved to %q, want n0", node3)
	}

	// Scatter-gather degrades to a partial result, not an error.
	doc := fetchMetrics(t, ts.URL)
	if partial, _ := doc["partial"].(bool); !partial {
		t.Fatal("fleet /metrics with a dead backend should be marked partial")
	}
}

// TestGatewaySpillOnBrownout: a cold spec homed on a browning-out
// backend spills to a healthy peer, while a warm spec sticks to its
// home (the cache entry is the point of affinity).
func TestGatewaySpillOnBrownout(t *testing.T) {
	fakes := make([]*fakeBackend, 3)
	backends := make([]Backend, 3)
	for i := range fakes {
		fakes[i] = newFakeBackend(t)
		backends[i] = Backend{Name: fmt.Sprintf("n%d", i), URL: fakes[i].ts.URL}
	}
	g, err := New(Config{Backends: backends, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatalf("gateway.New: %v", err)
	}
	ts := httptest.NewServer(g)
	t.Cleanup(func() {
		ts.Close()
		g.Close()
	})

	workload := workloadHomedOn(t, g, "n1")
	hash := quickSpecHash(t, workload)
	fakes[1].set(false, "brownout", "")
	g.ProbeNow()
	if got := g.stateOf("n1"); got != NodeBrownout {
		t.Fatalf("home state = %s, want brownout", got)
	}

	st := submitVia(t, ts.URL, quickSpec(workload), nil)
	_, node, _ := splitID(st.ID)
	if node == "n1" {
		t.Fatal("cold spec routed to its browning-out home; want a spill to a healthy peer")
	}
	if g.metrics.spills.Load() != 1 {
		t.Fatalf("spills = %d, want 1", g.metrics.spills.Load())
	}

	// Mark the hash warm on its home and resubmit: affinity wins.
	g.warm.add(hash)
	before := fakes[1].submitCount()
	st2 := submitVia(t, ts.URL, quickSpec(workload), nil)
	if _, node2, _ := splitID(st2.ID); node2 != "n1" {
		t.Fatalf("warm spec spilled to %q, want its home n1", node2)
	}
	if fakes[1].submitCount() != before+1 {
		t.Fatal("home backend did not receive the warm submit")
	}
}

// TestGatewayBatchSplit: a batch fans out to each spec's home shard
// and reassembles in order; resubmitting with the same idempotency
// keys returns the same namespaced ids.
func TestGatewayBatchSplit(t *testing.T) {
	g, ts, _ := startHerd(t, 3, herdOpts{})
	workloads := []string{"bitcount", "mcf", "gzip", "crc32"}
	req := server.BatchRequest{IdempotencyKeys: make([]string, len(workloads))}
	for i, wl := range workloads {
		var spec server.Spec
		if err := json.Unmarshal([]byte(quickSpec(wl)), &spec); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		req.Jobs = append(req.Jobs, spec)
		req.IdempotencyKeys[i] = fmt.Sprintf("batch-%d", i)
	}
	payload, _ := json.Marshal(req)

	submit := func() server.BatchResponse {
		resp, raw := postJSON(t, ts.URL+"/v1/jobs:batch", string(payload), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch: HTTP %d: %s", resp.StatusCode, raw)
		}
		var br server.BatchResponse
		if err := json.Unmarshal(raw, &br); err != nil {
			t.Fatalf("decode batch: %v", err)
		}
		return br
	}

	br := submit()
	if len(br.Jobs) != len(workloads) {
		t.Fatalf("batch returned %d items, want %d", len(br.Jobs), len(workloads))
	}
	for i, item := range br.Jobs {
		if item.Status == nil {
			t.Fatalf("item %d failed: %s (code %d)", i, item.Error, item.Code)
		}
		_, node, ok := splitID(item.Status.ID)
		if !ok {
			t.Fatalf("item %d id %q not namespaced", i, item.Status.ID)
		}
		if home := g.ring.Lookup(quickSpecHash(t, workloads[i])); node != home {
			t.Fatalf("item %d (workload %s) landed on %s, ring home is %s", i, workloads[i], node, home)
		}
	}

	br2 := submit()
	for i := range br.Jobs {
		if br2.Jobs[i].Status == nil || br2.Jobs[i].Status.ID != br.Jobs[i].Status.ID {
			t.Fatalf("item %d: idempotent batch resubmit changed id", i)
		}
	}
}

// TestGatewayReadyz: ready while any backend is routable; 503 with a
// reason once the whole herd is ejected.
func TestGatewayReadyz(t *testing.T) {
	fakes := make([]*fakeBackend, 2)
	backends := make([]Backend, 2)
	for i := range fakes {
		fakes[i] = newFakeBackend(t)
		backends[i] = Backend{Name: fmt.Sprintf("n%d", i), URL: fakes[i].ts.URL}
	}
	g, err := New(Config{Backends: backends, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatalf("gateway.New: %v", err)
	}
	ts := httptest.NewServer(g)
	t.Cleanup(func() {
		ts.Close()
		g.Close()
	})

	var doc readyDoc
	if resp := getJSON(t, ts.URL+"/readyz", &doc); resp.StatusCode != http.StatusOK || !doc.Ready {
		t.Fatalf("readyz with healthy herd: HTTP %d ready=%v", resp.StatusCode, doc.Ready)
	}
	if len(doc.Backends) != 2 {
		t.Fatalf("readyz backends = %d, want 2", len(doc.Backends))
	}

	for _, f := range fakes {
		f.set(false, "draining", "")
	}
	g.ProbeNow()
	var down readyDoc
	if resp := getJSON(t, ts.URL+"/readyz", &down); resp.StatusCode != http.StatusServiceUnavailable || down.Ready {
		t.Fatalf("readyz with drained herd: HTTP %d ready=%v, want 503 not-ready", resp.StatusCode, down.Ready)
	}
	if down.Reason == "" {
		t.Fatal("not-ready readyz carries no reason")
	}
}
