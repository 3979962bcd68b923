// Package herd builds in-process thermherdd fleets on loopback ports:
// N backends from one server.Config template, an optional
// successor-replication chain, and, for N > 1, a gateway in front. A
// one-node herd is the lone daemon with no gateway. thermload's
// -selfhost runs, the loadgen tests and examples/loadtest all build
// their daemons here.
//
// Multi-node herds also host the harness fault points below: armed on
// Config.Faults like any daemon or gateway point, they kill, join or
// drain a backend mid-run.
//
//thermlint:goroutines
package herd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"thermalherd/internal/faultinject"
	"thermalherd/internal/gateway"
	"thermalherd/internal/replication"
	"thermalherd/internal/server"
)

// Fault points owned by the herd harness itself, as opposed to the
// daemon- and gateway-side points armed through the same registry.
// Each has a watcher that polls it: an error action runs the point's
// action once, a delay action schedules when. The victim is always the
// LAST initial backend, so a test knows which shard remapped. All four
// need a gateway; Start refuses them on a one-node herd.
//
//thermlint:faultpoints
const (
	// FaultBackendKill kills the victim abruptly: an already-expired
	// drain cancels its queued jobs and 503s new submits, but its HTTP
	// listener stays up for reads, exactly like a SIGTERM'd daemon, so
	// the fleet-wide accounting identity still reconciles.
	FaultBackendKill = "selfhost.backend.kill"
	// FaultBackendJoin starts one extra backend mid-run and adds it
	// through the gateway's admin API; it probes to healthy and takes
	// its deterministic ring shard without a restart.
	FaultBackendJoin = "selfhost.backend.join"
	// FaultBackendDrain pins the victim draining through the admin API:
	// new placements fail over while its admitted jobs keep settling.
	// The node is deliberately NOT deleted, so the fleet-wide
	// accounting still sees its jobs.
	FaultBackendDrain = "selfhost.backend.drain"
	// FaultBackendKill9 kills the victim the hard way: its replication
	// stream goes silent, its listener and connections are torn down
	// and nothing drains, the wire behavior of a kill -9. With Repl
	// armed the gateway's takeover adopts the victim's replica journal
	// onto its ring successor.
	FaultBackendKill9 = "selfhost.backend.kill9"
)

// harnessPrefix is shared by every harness fault point.
const harnessPrefix = "selfhost.backend."

// adminToken authorizes the gateway's admin API for the join and drain
// actions; the herd lives and dies inside one process, so a fixed
// token costs nothing.
const adminToken = "selfhost-admin"

// Config describes one herd.
type Config struct {
	// Nodes is the backend count; 1 is the lone daemon, no gateway.
	Nodes int
	// Server is the template every backend is built from. Start sets
	// each backend's Faults, and with Repl its NodeName and Repl.
	Server server.Config
	// Faults is shared by every backend, the gateway, the replication
	// streamers and the harness points; nil arms nothing.
	Faults *faultinject.Registry
	// Hedge enables gateway request hedging (Nodes >= 2).
	Hedge bool
	// Repl is the replication ack policy, none or sync (Nodes >= 2).
	// Any non-empty value names each backend, chains its journal to its
	// ring successor and arms the gateway's takeover 250ms after a node
	// goes down. Under none the chain is empty, so the takeover measures
	// the loss the sync ack closes.
	Repl string
	// Out receives one line per harness action; nil discards them.
	Out io.Writer
}

// Herd is a running in-process fleet. Create one with Start and tear
// it down with Stop.
type Herd struct {
	// URL is the base URL clients target: the gateway, or the lone
	// daemon of a one-node herd.
	URL string

	cfg Config
	gw  *gateway.Gateway
	ghs *http.Server

	// mu guards the backends and the replication chain's view of them.
	mu    sync.Mutex
	nodes []*node
	urls  map[string]string
	ring  *gateway.Ring
	dead  string // the kill9 victim: silent, and nobody's successor

	stop chan struct{}
	wg   sync.WaitGroup
}

// node is one backend.
type node struct {
	name string
	url  string
	srv  *server.Server
	hs   *http.Server
}

// Start builds and starts the herd described by cfg.
func Start(cfg Config) (*Herd, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("herd: Nodes must be >= 1, got %d", cfg.Nodes)
	}
	if _, err := replication.ParsePolicy(cfg.Repl); err != nil {
		return nil, err
	}
	if cfg.Nodes == 1 {
		if cfg.Hedge || cfg.Repl != "" {
			return nil, fmt.Errorf("herd: Hedge and Repl need a gateway (Nodes >= 2)")
		}
		for _, p := range cfg.Faults.Points() {
			if strings.HasPrefix(p, harnessPrefix) {
				return nil, fmt.Errorf("herd: fault point %s needs a gateway herd (Nodes >= 2); a lone daemon would never fire it", p)
			}
		}
	}
	if cfg.Out == nil {
		cfg.Out = io.Discard
	}
	h := &Herd{cfg: cfg, urls: make(map[string]string), ring: gateway.NewRing(0), stop: make(chan struct{})}
	for i := 0; i < cfg.Nodes; i++ {
		if _, err := h.startBackend(fmt.Sprintf("n%d", i)); err != nil {
			h.Stop()
			return nil, fmt.Errorf("herd: start backend n%d: %w", i, err)
		}
	}
	if cfg.Nodes == 1 {
		h.URL = h.nodes[0].url
		return h, nil
	}
	if err := h.startGateway(); err != nil {
		h.Stop()
		return nil, fmt.Errorf("herd: start gateway: %w", err)
	}
	if cfg.Faults != nil {
		h.startWatchers()
	}
	return h, nil
}

// startBackend starts one backend on a loopback port and adds it to the
// replication chain; it does not tell the gateway.
func (h *Herd) startBackend(name string) (*node, error) {
	cfg := h.cfg.Server
	cfg.Faults = h.cfg.Faults
	if h.cfg.Repl != "" {
		cfg.NodeName = name
	}
	if h.cfg.Repl == string(replication.PolicySync) {
		st, err := replication.New(replication.Options{
			Policy: replication.PolicySync,
			Origin: name,
			Target: func() (string, string) { return h.successor(name) },
			Faults: h.cfg.Faults,
		})
		if err != nil {
			return nil, err
		}
		cfg.Repl = st
	}
	srv, err := server.New(cfg)
	if err != nil {
		cfg.Repl.Close()
		return nil, err
	}
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		srv.Drain(ctx)
		cancel()
		return nil, err
	}
	n := &node{name: name, url: "http://" + ln.Addr().String(), srv: srv, hs: &http.Server{Handler: srv}}
	//thermlint:goroutine -- Serve returns once Stop (or kill9) shuts this server down
	go n.hs.Serve(ln)
	h.mu.Lock()
	h.nodes = append(h.nodes, n)
	h.urls[name] = n.url
	h.ring.Add(name)
	h.mu.Unlock()
	return n, nil
}

// successor resolves origin's replication target against the same
// vnode ring the gateway routes by, so the chain a streamer picks is
// the chain takeover will consult. The kill9 victim neither streams
// nor receives.
func (h *Herd) successor(origin string) (string, string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if origin == h.dead {
		return "", ""
	}
	succ := h.ring.SuccessorOf(origin)
	if succ == "" || succ == h.dead {
		return "", ""
	}
	return succ, h.urls[succ]
}

// startGateway fronts the initial backends with a gateway: a 250ms
// probe interval, a CI-friendly 1s breaker cooldown, the admin API
// open to the harness, and takeover armed when Repl is.
func (h *Herd) startGateway() error {
	backends := make([]gateway.Backend, len(h.nodes))
	for i, n := range h.nodes {
		backends[i] = gateway.Backend{Name: n.name, URL: n.url}
	}
	cfg := gateway.Config{
		Backends:        backends,
		ProbeInterval:   250 * time.Millisecond,
		Faults:          h.cfg.Faults,
		Hedge:           h.cfg.Hedge,
		BreakerCooldown: time.Second,
		AdminToken:      adminToken,
	}
	if h.cfg.Repl != "" {
		cfg.TakeoverAfter = 250 * time.Millisecond
	}
	gw, err := gateway.New(cfg)
	if err != nil {
		return err
	}
	gw.Start()
	h.gw = gw
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	h.URL = "http://" + ln.Addr().String()
	h.ghs = &http.Server{Handler: gw}
	//thermlint:goroutine -- Serve returns once Stop shuts the gateway's server down
	go h.ghs.Serve(ln)
	return nil
}

// startWatchers starts one watcher per harness fault point. Each fire
// closure names its point as a registry constant, so thermlint can
// check it.
func (h *Herd) startWatchers() {
	reg := h.cfg.Faults
	for _, w := range []struct {
		fire func() error
		act  func(fired error)
	}{
		{func() error { return reg.Fire(FaultBackendKill) }, h.kill},
		{func() error { return reg.Fire(FaultBackendKill9) }, h.kill9},
		{func() error { return reg.Fire(FaultBackendJoin) }, h.join},
		{func() error { return reg.Fire(FaultBackendDrain) }, h.drain},
	} {
		h.wg.Add(1)
		go h.watch(w.fire, w.act)
	}
}

// watch polls fire until it returns an error, then runs act once. The
// armed spec's delay, count and probability decide when and whether.
func (h *Herd) watch(fire func() error, act func(fired error)) {
	defer h.wg.Done()
	for {
		if err := fire(); err != nil {
			act(err)
			return
		}
		select {
		case <-h.stop:
			return
		//thermlint:timer -- chaos re-fire cadence against live processes
		case <-time.After(250 * time.Millisecond):
		}
	}
}

// victim is the last initial backend.
func (h *Herd) victim() *node {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.nodes[h.cfg.Nodes-1]
}

func (h *Herd) kill(fired error) {
	v := h.victim()
	fmt.Fprintf(h.cfg.Out, "herd: CHAOS: killing backend %s (%v)\n", v.name, fired)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // expired deadline = abrupt drain
	v.srv.Drain(ctx)
}

func (h *Herd) kill9(fired error) {
	v := h.victim()
	fmt.Fprintf(h.cfg.Out, "herd: CHAOS: kill -9 backend %s (%v)\n", v.name, fired)
	// Order matters. Tear down the listener and every live connection
	// first, so no ack leaves the victim from here on. Then go
	// wire-silent: a killed process sends no farewell replication or
	// cancel events. Marked dead while still reachable, the victim
	// would pass the sync replication gate vacuously (no successor) and
	// could ack a job no replica holds. Then reap the workers.
	v.hs.Close()
	h.mu.Lock()
	h.dead = v.name
	h.mu.Unlock()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // expired deadline = immediate worker reap, nothing drains
	v.srv.Drain(ctx)
}

func (h *Herd) join(fired error) {
	name := fmt.Sprintf("n%d", h.cfg.Nodes)
	n, err := h.startBackend(name)
	if err != nil {
		fmt.Fprintf(h.cfg.Out, "herd: CHAOS: join of backend %s failed: %v\n", name, err)
		return
	}
	fmt.Fprintf(h.cfg.Out, "herd: CHAOS: joining backend %s mid-run (%v)\n", name, fired)
	if err := adminCall(http.MethodPost, h.URL+"/v1/admin/nodes", map[string]string{"name": name, "url": n.url}); err != nil {
		fmt.Fprintf(h.cfg.Out, "herd: CHAOS: admin add of %s failed: %v\n", name, err)
	}
}

func (h *Herd) drain(fired error) {
	v := h.victim()
	fmt.Fprintf(h.cfg.Out, "herd: CHAOS: draining backend %s mid-run (%v)\n", v.name, fired)
	if err := adminCall(http.MethodPost, h.URL+"/v1/admin/nodes/"+v.name+"/drain", nil); err != nil {
		fmt.Fprintf(h.cfg.Out, "herd: CHAOS: admin drain of %s failed: %v\n", v.name, err)
	}
}

// adminCall hits the gateway's admin API with the harness token, so
// the join and drain actions change ring membership exactly the way an
// operator would: over the wire.
func adminCall(method, url string, body any) error {
	var b []byte
	if body != nil {
		var err error
		if b, err = json.Marshal(body); err != nil {
			return err
		}
	}
	req, err := http.NewRequest(method, url, bytes.NewReader(b))
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+adminToken)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return fmt.Errorf("%s %s: HTTP %d", method, url, resp.StatusCode)
	}
	return nil
}

// Stop ends the harness watchers, shuts the gateway down, then drains
// every backend (10s each); a backend's drain closes its replication
// stream.
func (h *Herd) Stop() {
	close(h.stop)
	h.wg.Wait()
	if h.ghs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		h.ghs.Shutdown(ctx)
		cancel()
	}
	if h.gw != nil {
		h.gw.Close()
	}
	h.mu.Lock()
	nodes := append([]*node(nil), h.nodes...)
	h.mu.Unlock()
	for _, n := range nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		n.srv.Drain(ctx)
		n.hs.Shutdown(ctx)
		cancel()
	}
}
