package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"thermalherd/internal/gateway"
	"thermalherd/internal/journal"
	"thermalherd/internal/replication"
	"thermalherd/internal/server"
)

// backend is one in-process daemon on a loopback port.
type backend struct {
	name string
	srv  *server.Server
	hs   *http.Server
	url  string
}

// fleet is the set of in-process daemons a workload runs against; url
// is its front door (the gateway, or the lone daemon).
type fleet struct {
	url      string
	backends []*backend
	gw       *gateway.Gateway
	ghs      *http.Server
}

func serve(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln)
	return hs, "http://" + ln.Addr().String(), nil
}

// startBackend builds a daemon with server.New and serves it. A
// non-empty journalDir journals every transition with fsync always.
func startBackend(name, journalDir string, repl *replication.Streamer, rec *recorder) (*backend, error) {
	cfg := server.Config{
		Workers:    runtime.NumCPU(),
		QueueDepth: 1024,
		NodeName:   name,
		Repl:       repl,
	}
	if journalDir != "" {
		cfg.JournalDir = journalDir
		cfg.FsyncPolicy = string(journal.FsyncAlways)
	}
	srv, err := server.New(cfg)
	if err != nil {
		repl.Close()
		return nil, err
	}
	srv.Start()
	hs, url, err := serve(rec.wrap(name, srv))
	if err != nil {
		drainNow(srv)
		return nil, err
	}
	return &backend{name: name, srv: srv, hs: hs, url: url}, nil
}

func drainNow(srv *server.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.Drain(ctx)
}

// startFleet starts w's daemons under dir and returns once they are
// ready: every daemon answers /readyz, and for a herd every backend has
// been probed healthy by the gateway's first probe round.
func startFleet(w *Workload, dir string, rec *recorder) (*fleet, error) {
	f := &fleet{}
	if !w.Herd {
		b, err := startBackend("n0", "", nil, rec)
		if err != nil {
			return nil, err
		}
		f.backends = []*backend{b}
		f.url = b.url
		return f, waitReady(b.url)
	}

	// Replication chain: each backend streams its journal to its ring
	// successor under the sync ack policy, resolved per send against the
	// same ring the gateway routes by.
	var (
		chainMu  sync.Mutex
		chainURL = map[string]string{}
		ring     = gateway.NewRing(0)
	)
	for i := 0; i < w.Backends; i++ {
		ring.Add(fmt.Sprintf("n%d", i))
	}
	var gwBackends []gateway.Backend
	for i := 0; i < w.Backends; i++ {
		name := fmt.Sprintf("n%d", i)
		st, err := replication.New(replication.Options{
			Policy: replication.PolicySync,
			Origin: name,
			Target: func() (string, string) {
				chainMu.Lock()
				defer chainMu.Unlock()
				succ := ring.SuccessorOf(name)
				return succ, chainURL[succ]
			},
		})
		if err != nil {
			f.stop()
			return nil, err
		}
		b, err := startBackend(name, filepath.Join(dir, name), st, rec)
		if err != nil {
			f.stop()
			return nil, err
		}
		chainMu.Lock()
		chainURL[name] = b.url
		chainMu.Unlock()
		f.backends = append(f.backends, b)
		gwBackends = append(gwBackends, gateway.Backend{Name: name, URL: b.url})
	}
	gw, err := gateway.New(gateway.Config{
		Backends:      gwBackends,
		ProbeInterval: 250 * time.Millisecond,
		Hedge:         true,
	})
	if err != nil {
		f.stop()
		return nil, err
	}
	gw.Start()
	f.gw = gw
	f.ghs, f.url, err = serve(rec.wrap("gw", gw))
	if err != nil {
		f.stop()
		return nil, err
	}
	for _, b := range f.backends {
		if err := waitReady(b.url); err != nil {
			f.stop()
			return nil, err
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for !allProbedHealthy(gw) {
		if time.Now().After(deadline) {
			f.stop()
			return nil, fmt.Errorf("gateway never saw all %d backends healthy", w.Backends)
		}
		time.Sleep(time.Millisecond)
	}
	return f, nil
}

func allProbedHealthy(gw *gateway.Gateway) bool {
	for _, h := range gw.Backends() {
		if h.State != gateway.NodeHealthy || h.Since == "" {
			return false
		}
	}
	return true
}

func waitReady(url string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never became ready", url)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the fleet down and waits for every goroutine it owns.
func (f *fleet) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if f.ghs != nil {
		f.ghs.Shutdown(ctx)
	}
	if f.gw != nil {
		f.gw.Close()
	}
	for _, b := range f.backends {
		b.srv.Drain(ctx)
		b.hs.Shutdown(ctx)
	}
	http.DefaultClient.CloseIdleConnections()
}

// setUp starts a fresh fleet n times, timing each start to ready, and
// keeps the last one running. It returns the median set-up time.
func setUp(w *Workload, workdir string, n int, rec *recorder) (*fleet, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		dir := filepath.Join(workdir, fmt.Sprintf("fleet-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, 0, err
		}
		var r *recorder
		if i == n-1 {
			r = rec
		}
		t0 := time.Now()
		f, err := startFleet(w, dir, r)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i == n-1 {
			return f, quantile(times, 0.5), nil
		}
		f.stop()
		// Remove each stopped fleet's journals at once, so the disk work
		// of freeing them falls inside this run's (untimed) teardowns the
		// same way every run, not on a later run's set-ups.
		os.RemoveAll(dir)
	}
}
