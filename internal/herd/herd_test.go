package herd

import (
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"thermalherd/internal/faultinject"
	"thermalherd/internal/server"
)

var testServer = server.Config{Workers: 1, QueueDepth: 16, CacheSize: 16}

// getJSON decodes GET url into out and returns the status code.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	if err := json.Unmarshal(b, out); err != nil {
		t.Fatalf("GET %s: %v\n%s", url, err, b)
	}
	return resp.StatusCode
}

// settled waits for the goroutine count to fall back near before.
func settled(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+4 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+4 {
		t.Fatalf("goroutines: before=%d after Stop=%d", before, after)
	}
}

// TestHerdOneNodeIsLoneDaemon: a one-node herd serves the daemon
// itself, with no gateway in front, and Stop winds it down.
func TestHerdOneNodeIsLoneDaemon(t *testing.T) {
	before := runtime.NumGoroutine()
	h, err := Start(Config{Nodes: 1, Server: testServer})
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
	}
	if code := getJSON(t, h.URL+"/healthz", &health); code != http.StatusOK || health.Status != "ok" {
		t.Fatalf("/healthz = %d %+v", code, health)
	}
	var metrics map[string]any
	getJSON(t, h.URL+"/metrics", &metrics)
	if _, ok := metrics["gateway"]; ok {
		t.Fatal("one-node herd answered through a gateway")
	}
	h.Stop()
	settled(t, before)
}

// TestHerdStartRejectsBadConfig: configurations that could only half-work
// are refused, notably a harness fault point armed on a lone daemon,
// which has no gateway to act through and would never fire.
func TestHerdStartRejectsBadConfig(t *testing.T) {
	armed := func(spec string) *faultinject.Registry {
		reg := faultinject.New()
		if err := reg.Arm(spec, 1); err != nil {
			t.Fatal(err)
		}
		return reg
	}
	for name, cfg := range map[string]Config{
		"no nodes":       {Nodes: 0},
		"hedge alone":    {Nodes: 1, Hedge: true},
		"repl alone":     {Nodes: 1, Repl: "sync"},
		"unknown policy": {Nodes: 2, Repl: "paxos"},
		"kill alone":     {Nodes: 1, Faults: armed(FaultBackendKill + "=error:kill,count:1")},
		"drain alone":    {Nodes: 1, Faults: armed("job.exec=delay:1ms;" + FaultBackendDrain + "=error:drain")},
	} {
		if h, err := Start(cfg); err == nil {
			h.Stop()
			t.Errorf("%s: accepted", name)
		}
	}
	// Daemon-side points stay fine on a lone daemon.
	h, err := Start(Config{Nodes: 1, Server: testServer, Faults: armed("job.exec=delay:1ms")})
	if err != nil {
		t.Fatalf("daemon fault point on one node: %v", err)
	}
	h.Stop()
}

// TestHerdJoinFault: the join harness point starts a fourth
// backend and adds it through the gateway's admin API; Stop then winds
// down all four plus the gateway.
func TestHerdJoinFault(t *testing.T) {
	before := runtime.NumGoroutine()
	reg := faultinject.New()
	if err := reg.Arm(FaultBackendJoin+"=error:join,count:1", 1); err != nil {
		t.Fatal(err)
	}
	var log strings.Builder
	h, err := Start(Config{Nodes: 3, Server: testServer, Faults: reg, Out: &log})
	if err != nil {
		t.Fatal(err)
	}
	var ready struct {
		Backends []struct {
			Name string `json:"name"`
		} `json:"backends"`
	}
	deadline := time.Now().Add(5 * time.Second)
	for getJSON(t, h.URL+"/readyz", &ready); len(ready.Backends) < 4; getJSON(t, h.URL+"/readyz", &ready) {
		if time.Now().After(deadline) {
			t.Fatalf("joined backend never appeared: %+v", ready.Backends)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := ready.Backends[3].Name; got != "n3" {
		t.Fatalf("joined backend = %q, want n3", got)
	}
	h.Stop()
	if !strings.Contains(log.String(), "joining backend n3") {
		t.Fatalf("no join line in the harness log: %q", log.String())
	}
	settled(t, before)
}
