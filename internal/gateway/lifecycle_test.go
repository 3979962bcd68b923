package gateway

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"thermalherd/internal/clock"
	"thermalherd/internal/httpjson"
	"thermalherd/internal/server"
)

// topoBackend is a fake thermherdd node for topology tests. It records
// the local id every by-id read arrives under, answers the list, submit
// and adopt calls the admin and takeover paths make, and can hold its
// /readyz replies (then answer them with an undecodable body), hold its
// submit replies, or answer reads with 503.
type topoBackend struct {
	ts *httptest.Server

	mu         sync.Mutex
	reads      []string
	readyzHits int
	failReads  bool
	// readyzGate, when set, holds every /readyz until it is closed;
	// readyzDown fails every /readyz with an undecodable body.
	readyzGate chan struct{}
	readyzDown bool
	// submitGate, when set, holds every submit until it is closed;
	// submitSeen receives once per held submit as it arrives.
	submitGate chan struct{}
	submitSeen chan struct{}
}

func newTopoBackend(t *testing.T) *topoBackend {
	t.Helper()
	f := &topoBackend{}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.readyzHits++
		gate, down := f.readyzGate, f.readyzDown
		f.mu.Unlock()
		if gate != nil {
			<-gate
		}
		if down {
			http.Error(w, "not json", http.StatusInternalServerError)
			return
		}
		httpjson.Write(w, http.StatusOK, readyzDoc{Ready: true})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		f.mu.Lock()
		f.reads = append(f.reads, id)
		fail := f.failReads
		f.mu.Unlock()
		if fail {
			httpjson.Error(w, http.StatusServiceUnavailable, "unavailable")
			return
		}
		httpjson.Write(w, http.StatusOK, server.Status{ID: id, State: server.StateQueued})
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		httpjson.Write(w, http.StatusOK, server.ListResponse{Jobs: []server.Status{}})
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		gate, seen := f.submitGate, f.submitSeen
		f.mu.Unlock()
		if gate != nil {
			seen <- struct{}{}
			<-gate
		}
		httpjson.Write(w, http.StatusAccepted, server.Status{ID: "job-000001", State: server.StateQueued})
	})
	mux.HandleFunc("POST /v1/replica/{origin}/adopt", func(w http.ResponseWriter, r *http.Request) {
		httpjson.Write(w, http.StatusOK, map[string]any{"adopted": 0})
	})
	f.ts = httptest.NewServer(mux)
	t.Cleanup(func() {
		f.mu.Lock()
		if f.readyzGate != nil {
			close(f.readyzGate)
			f.readyzGate = nil
		}
		if f.submitGate != nil {
			close(f.submitGate)
			f.submitGate = nil
		}
		f.mu.Unlock()
		f.ts.Close()
	})
	return f
}

// takeReads returns and forgets the ids reads arrived under.
func (f *topoBackend) takeReads() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	r := f.reads
	f.reads = nil
	return r
}

func (f *topoBackend) setFailReads(fail bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failReads = fail
}

// holdReadyz parks every /readyz until releaseReadyz; the parked probes
// then fail, and so does every later one.
func (f *topoBackend) holdReadyz() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.readyzGate, f.readyzDown = make(chan struct{}), true
}

func (f *topoBackend) releaseReadyz() {
	f.mu.Lock()
	defer f.mu.Unlock()
	close(f.readyzGate)
	f.readyzGate = nil
}

func (f *topoBackend) readyzCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.readyzHits
}

// topoFleet is a gateway over topoBackends n0..n2 on a fake clock. The
// prober never runs on its own: steps probe with ProbeNow.
type topoFleet struct {
	g     *Gateway
	ts    *httptest.Server
	clk   *clock.Fake
	nodes map[string]*topoBackend
	// trial is the half-open trial submit a step left in flight.
	trial chan int
}

func newTopoFleet(t *testing.T) *topoFleet {
	t.Helper()
	fl := &topoFleet{clk: clock.NewFake(time.Unix(1_700_000_000, 0)), nodes: map[string]*topoBackend{}}
	var backends []Backend
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("n%d", i)
		fl.nodes[name] = newTopoBackend(t)
		backends = append(backends, Backend{Name: name, URL: fl.nodes[name].ts.URL})
	}
	g, err := New(Config{
		Backends:        backends,
		ProbeInterval:   time.Hour,
		ProbeTimeout:    time.Minute,
		FailThreshold:   3,
		Clock:           fl.clk,
		BreakerCooldown: 2 * time.Second,
		TakeoverAfter:   time.Second,
		AdminToken:      testAdminToken,
	})
	if err != nil {
		t.Fatalf("gateway.New: %v", err)
	}
	fl.g = g
	fl.ts = httptest.NewServer(g)
	t.Cleanup(func() {
		fl.ts.Close()
		g.Close()
	})
	return fl
}

func (fl *topoFleet) admin(t *testing.T, method, path, body string, want int) {
	t.Helper()
	resp, raw := adminDo(t, method, fl.ts.URL+path, testAdminToken, body)
	if resp.StatusCode != want {
		t.Fatalf("%s %s: HTTP %d (%s), want %d", method, path, resp.StatusCode, raw, want)
	}
}

// snapshot renders GET /v1/admin/nodes as "name:state/breaker/inflight"
// rows.
func (fl *topoFleet) snapshot(t *testing.T) []string {
	t.Helper()
	resp, raw := adminDo(t, http.MethodGet, fl.ts.URL+"/v1/admin/nodes", testAdminToken, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin list: HTTP %d: %s", resp.StatusCode, raw)
	}
	var doc adminTopologyDoc
	mustUnmarshal(t, raw, &doc)
	var rows []string
	for _, n := range doc.Nodes {
		rows = append(rows, fmt.Sprintf("%s:%s/%s/%d", n.Name, n.State, n.Breaker, n.Inflight))
	}
	return rows
}

// waitFor polls cond (probes and takeovers run on their own goroutines)
// and fails the test if it never holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// read fetches job-000001@<origin> through the gateway and reports
// "<backend>:<local id>" for each backend the read reached.
func (fl *topoFleet) read(t *testing.T, origin string) []string {
	t.Helper()
	resp, err := http.Get(fl.ts.URL + "/v1/jobs/job-000001@" + origin)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	resp.Body.Close()
	var got []string
	for _, name := range []string{"n0", "n1", "n2"} {
		for _, id := range fl.nodes[name].takeReads() {
			got = append(got, name+":"+id)
		}
	}
	return got
}

// takeOver fails the probes of a node whose /readyz already fails:
// three rounds mark it down, and one more past TakeoverAfter hands it
// to its ring successor, installing the gateway's aliases-th alias.
func (fl *topoFleet) takeOver(t *testing.T, aliases int) {
	t.Helper()
	for i := 0; i < 3; i++ {
		fl.g.ProbeNow()
	}
	fl.clk.Advance(time.Second)
	fl.g.ProbeNow()
	waitFor(t, "the takeover", func() bool { return fl.g.aliasCount() == aliases })
}

// lifecycleHash is the fixed placement key whose route every step pins.
const lifecycleHash = "lifecycle"

// TestGatewayTopologyLifecycle walks one fleet through every topology
// change the gateway makes — drain, idle remove, re-add, a breaker
// open/half-open/close cycle, a takeover and a forced remove with
// adoption — and after each step pins the ring, the route of a fixed
// hash, where GET /v1/jobs/job-000001@<node> lands and under which id,
// the installed alias count, and the admin snapshot.
func TestGatewayTopologyLifecycle(t *testing.T) {
	fl := newTopoFleet(t)
	g := fl.g
	steps := []struct {
		name string
		do   func(t *testing.T)
		ring string
		plan string
		// reads maps an origin node to where job-000001@<origin> lands.
		reads   map[string]string
		aliases int
		nodes   string
	}{
		{
			name:    "boot",
			do:      func(t *testing.T) {},
			ring:    "n0 n1 n2",
			plan:    "n2 n0 n1",
			reads:   map[string]string{"n0": "n0:job-000001", "n1": "n1:job-000001", "n2": "n2:job-000001"},
			aliases: 0,
			nodes:   "n0:healthy/closed/0 n1:healthy/closed/0 n2:healthy/closed/0",
		},
		{
			name: "drain n1",
			do: func(t *testing.T) {
				fl.admin(t, http.MethodPost, "/v1/admin/nodes/n1/drain", "", http.StatusAccepted)
			},
			ring:    "n0 n1 n2",
			plan:    "n2 n0",
			reads:   map[string]string{"n1": "n1:job-000001"},
			aliases: 0,
			nodes:   "n0:healthy/closed/0 n1:draining/closed/0 n2:healthy/closed/0",
		},
		{
			name: "remove idle n1",
			do: func(t *testing.T) {
				fl.admin(t, http.MethodDelete, "/v1/admin/nodes/n1", "", http.StatusOK)
			},
			ring:    "n0 n2",
			plan:    "n2 n0",
			reads:   map[string]string{"n1": "n1:job-000001"},
			aliases: 0,
			nodes:   "n0:healthy/closed/0 n2:healthy/closed/0",
		},
		{
			name: "re-add n1 at the same URL",
			do: func(t *testing.T) {
				fl.admin(t, http.MethodPost, "/v1/admin/nodes",
					fmt.Sprintf(`{"name":"n1","url":%q}`, fl.nodes["n1"].ts.URL), http.StatusCreated)
				waitFor(t, "n1 probed healthy", func() bool {
					return strings.Contains(strings.Join(fl.snapshot(t), " "), "n1:healthy")
				})
			},
			ring:    "n0 n1 n2",
			plan:    "n2 n0 n1",
			reads:   map[string]string{"n1": "n1:job-000001"},
			aliases: 0,
			nodes:   "n0:healthy/closed/0 n1:healthy/closed/0 n2:healthy/closed/0",
		},
		{
			// Five failed forwards open n2's circuit. Its /readyz is held,
			// so the suspect probes they start neither close the circuit
			// nor count as failures until the takeover step releases them.
			// The route still leads with n2: a healthy home is put first
			// even when its circuit is open, and the submit path's admit
			// then skips it.
			name: "forward-failure streak opens n2's circuit",
			do: func(t *testing.T) {
				fl.nodes["n2"].holdReadyz()
				fl.nodes["n2"].setFailReads(true)
				for i := 0; i < breakerThreshold; i++ {
					fl.read(t, "n2")
				}
			},
			ring:    "n0 n1 n2",
			plan:    "n2 n0 n1",
			reads:   map[string]string{"n2": "n2:job-000001"},
			aliases: 0,
			nodes:   "n0:healthy/closed/0 n1:healthy/closed/0 n2:healthy/open/0",
		},
		{
			name:    "cooldown elapses",
			do:      func(t *testing.T) { fl.clk.Advance(2 * time.Second) },
			ring:    "n0 n1 n2",
			plan:    "n2 n0 n1",
			reads:   map[string]string{"n2": "n2:job-000001"},
			aliases: 0,
			nodes:   "n0:healthy/closed/0 n1:healthy/closed/0 n2:healthy/open/0",
		},
		{
			// A submit homed on n2 takes the half-open trial slot; n2
			// holds it, so the trial stays in flight through the
			// assertions. A successful read then closes the circuit
			// under the trial (any forward success does).
			name: "half-open trial in flight",
			do: func(t *testing.T) {
				n2 := fl.nodes["n2"]
				n2.setFailReads(false)
				n2.mu.Lock()
				n2.submitGate, n2.submitSeen = make(chan struct{}), make(chan struct{}, 1)
				n2.mu.Unlock()
				wl := workloadHomedOn(t, g, "n2")
				fl.trial = make(chan int, 1)
				go func() {
					resp, err := http.Post(fl.ts.URL+"/v1/jobs", "application/json", strings.NewReader(quickSpec(wl)))
					if err != nil {
						fl.trial <- 0
						return
					}
					resp.Body.Close()
					fl.trial <- resp.StatusCode
				}()
				<-n2.submitSeen
			},
			ring:    "n0 n1 n2",
			plan:    "n2 n0 n1",
			reads:   map[string]string{"n2": "n2:job-000001"},
			aliases: 0,
			nodes:   "n0:healthy/closed/0 n1:healthy/closed/0 n2:healthy/half-open/1",
		},
		{
			name: "trial completes",
			do: func(t *testing.T) {
				n2 := fl.nodes["n2"]
				n2.mu.Lock()
				close(n2.submitGate)
				n2.submitGate = nil
				n2.mu.Unlock()
				if code := <-fl.trial; code != http.StatusAccepted {
					t.Fatalf("trial submit: HTTP %d, want 202", code)
				}
			},
			ring:    "n0 n1 n2",
			plan:    "n2 n0 n1",
			reads:   map[string]string{"n2": "n2:job-000001"},
			aliases: 0,
			nodes:   "n0:healthy/closed/0 n1:healthy/closed/0 n2:healthy/closed/0",
		},
		{
			// n2's held probes fail, three probe rounds mark it down, and
			// one more round past TakeoverAfter hands it to its successor.
			name: "n2 down, then taken over",
			do: func(t *testing.T) {
				fl.nodes["n2"].releaseReadyz()
				fl.takeOver(t, 1)
			},
			ring:    "n0 n1",
			plan:    "n0 n1",
			reads:   map[string]string{"n2": "n1:job-000001@n2"},
			aliases: 1,
			nodes:   "n0:healthy/closed/0 n1:healthy/closed/0",
		},
		{
			name: "forced remove of n0 with adoption",
			do: func(t *testing.T) {
				fl.admin(t, http.MethodDelete, "/v1/admin/nodes/n0?force=1", "", http.StatusOK)
			},
			ring:    "n1",
			plan:    "n1",
			reads:   map[string]string{"n0": "n1:job-000001@n0", "n2": "n1:job-000001@n2"},
			aliases: 2,
			nodes:   "n1:healthy/closed/0",
		},
	}
	for _, st := range steps {
		st.do(t)
		if got := strings.Join(g.ringNodes(), " "); got != st.ring {
			t.Errorf("%s: ring = %q, want %q", st.name, got, st.ring)
		}
		plan, err := g.planRoute(lifecycleHash)
		got := strings.Join(plan.order, " ")
		if err != nil {
			got = "error: " + err.Error()
		}
		if got != st.plan {
			t.Errorf("%s: route of %q = %q, want %q", st.name, lifecycleHash, got, st.plan)
		}
		if got := g.aliasCount(); got != st.aliases {
			t.Errorf("%s: aliases_active = %d, want %d", st.name, got, st.aliases)
		}
		if got := strings.Join(fl.snapshot(t), " "); got != st.nodes {
			t.Errorf("%s: admin nodes = %q, want %q", st.name, got, st.nodes)
		}
		for _, origin := range []string{"n0", "n1", "n2"} {
			want, ok := st.reads[origin]
			if !ok {
				continue
			}
			if got := strings.Join(fl.read(t, origin), " "); got != want {
				t.Errorf("%s: job-000001@%s reached %q, want %q", st.name, origin, got, want)
			}
		}
	}
}

// TestGatewayAdminReAddTakenOverName: a name with a takeover alias
// cannot be added again. Its old ids resolve on the successor, and a
// new node under the name would mint the same ids (job-000001@n2 first)
// and never see reads for them. A plainly removed name can come back;
// TestGatewayTopologyLifecycle re-adds one.
func TestGatewayAdminReAddTakenOverName(t *testing.T) {
	fl := newTopoFleet(t)
	n2 := fl.nodes["n2"]
	n2.mu.Lock()
	n2.readyzDown = true
	n2.mu.Unlock()
	fl.takeOver(t, 1)

	fresh := newTopoBackend(t)
	fl.admin(t, http.MethodPost, "/v1/admin/nodes",
		fmt.Sprintf(`{"name":"n2","url":%q}`, fresh.ts.URL), http.StatusConflict)
	if got := strings.Join(fl.read(t, "n2"), " "); got != "n1:job-000001@n2" {
		t.Fatalf("job-000001@n2 reached %q after the refused re-add, want n1:job-000001@n2", got)
	}
	if reads := fresh.takeReads(); len(reads) != 0 {
		t.Fatalf("the refused node saw reads %v", reads)
	}
	if got := strings.Join(fl.g.ringNodes(), " "); got != "n0 n1" {
		t.Fatalf("ring after the refused re-add = %q, want n0 n1", got)
	}
}

// TestGatewaySuspectProbeSingleFlight: a storm of failed forwards to one
// node starts one suspect probe, not one per forward. Fifty concurrent
// reads hit a node that answers 503 while its /readyz is held; once the
// held probe is let go and has failed, the node has seen at most two
// probes, and one failed probe does not count as FailThreshold (3)
// consecutive failures.
func TestGatewaySuspectProbeSingleFlight(t *testing.T) {
	fl := newTopoFleet(t)
	n1 := fl.nodes["n1"]
	n1.holdReadyz()
	n1.setFailReads(true)
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(fl.ts.URL + "/v1/jobs/job-000001@n1")
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			resp.Body.Close()
		}()
	}
	wg.Wait()
	n1.releaseReadyz()
	m := fl.g.metrics
	waitFor(t, "the suspect probes to finish", func() bool {
		return m.probes.Load() > 0 && m.probeFailures.Load() == m.probes.Load()
	})
	if hits := n1.readyzCount(); hits > 2 {
		t.Fatalf("50 failed reads started %d probes of n1, want at most 2", hits)
	}
	if got := strings.Join(fl.snapshot(t), " "); !strings.Contains(got, "n1:healthy/open/0") {
		t.Fatalf("admin nodes = %q, want n1 healthy with its circuit open", got)
	}
}
