package main

import (
	"os/exec"
	"strings"
	"testing"
)

// TestBadTenantWeightsRejected: a malformed -tenant-weights value stops
// the daemon before it listens.
func TestBadTenantWeightsRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping the daemon build")
	}
	bin := buildDaemon(t)
	for _, bad := range []string{"live=0", "live", "=3", "live=x"} {
		out, err := exec.Command(bin, "-addr", "127.0.0.1:0", "-tenant-weights", bad).CombinedOutput()
		if err == nil {
			t.Fatalf("-tenant-weights %q accepted:\n%s", bad, out)
		}
		if !strings.Contains(string(out), "bad tenant weight") {
			t.Fatalf("-tenant-weights %q: want a tenant-weight error, got:\n%s", bad, out)
		}
	}
}
