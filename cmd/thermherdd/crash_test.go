package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"thermalherd/internal/loadgen"
	"thermalherd/internal/server"
)

// buildDaemon compiles the thermherdd binary once per test run.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "thermherdd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build thermherdd: %v\n%s", err, out)
	}
	return bin
}

var listenRE = regexp.MustCompile(`thermherdd: listening on (\S+)`)

// startDaemon launches the binary against journalDir on an ephemeral
// port, parses the bound address from its log, and returns the process
// plus its base URL.
func startDaemon(t *testing.T, bin, journalDir string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0", "-workers", "1", "-queue", "64",
		"-journal-dir", journalDir, "-fsync", "always", "-drain", "5s")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start thermherdd: %v", err)
	}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := listenRE.FindStringSubmatch(sc.Text()); m != nil {
				addrc <- m[1]
			}
		}
	}()
	select {
	case addr := <-addrc:
		return cmd, "http://" + addr
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		t.Fatal("thermherdd never logged its listen address")
		return nil, ""
	}
}

// TestKillAndRestartLosesNoAckedJob is the end-to-end crash harness:
// a real thermherdd process with -fsync always is SIGKILLed with jobs
// queued behind a single worker; the restarted daemon must know every
// acknowledged job, finish the unfinished ones, and publish metrics
// satisfying submitted == hits + completed + failed + canceled +
// rejected once the backlog drains.
func TestKillAndRestartLosesNoAckedJob(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping process-level kill -9 harness")
	}
	bin := buildDaemon(t)
	jdir := t.TempDir()

	cmd, base := startDaemon(t, bin, jdir)
	client := loadgen.NewClient(base, 2, 20*time.Millisecond, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// One worker grinds real (tiny) simulations while submissions pour
	// in, so the kill lands with a deep queue of acked-but-unrun jobs.
	const n = 20
	acked := make([]string, 0, n)
	for i := 0; i < n; i++ {
		spec := server.Spec{Kind: "timing", Config: "TH", Workload: "bitcount",
			Depths: server.Depths{FastForward: 5000 + uint64(i), Warmup: 1000, Measure: 2000}}
		st, err := client.Submit(ctx, spec, fmt.Sprintf("crash-%d", i), "")
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		acked = append(acked, st.ID)
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("kill -9: %v", err)
	}
	cmd.Wait() // reap; ignore the kill status

	cmd2, base2 := startDaemon(t, bin, jdir)
	defer func() {
		cmd2.Process.Signal(os.Interrupt)
		done := make(chan struct{})
		go func() { cmd2.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			cmd2.Process.Kill()
		}
	}()
	client2 := loadgen.NewClient(base2, 2, 20*time.Millisecond, 1)

	// Every acked job survived the crash.
	for _, id := range acked {
		if _, err := client2.JobStatus(ctx, id); err != nil {
			t.Fatalf("job %s lost across kill -9: %v", id, err)
		}
	}

	// The recovered backlog drains to completion.
	deadline := time.Now().Add(45 * time.Second)
	for {
		queued, err := client2.CountJobs(ctx, "queued")
		if err != nil {
			t.Fatalf("count queued: %v", err)
		}
		running, err := client2.CountJobs(ctx, "running")
		if err != nil {
			t.Fatalf("count running: %v", err)
		}
		if queued+running == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovered backlog never drained: %d queued, %d running", queued, running)
		}
		time.Sleep(50 * time.Millisecond)
	}
	for _, id := range acked {
		st, err := client2.JobStatus(ctx, id)
		if err != nil {
			t.Fatalf("job %s: %v", id, err)
		}
		if st.State != server.StateDone {
			t.Fatalf("recovered job %s settled as %s: %s", id, st.State, st.Error)
		}
	}

	// The accounting identity reconciles on the restarted daemon.
	doc, err := client2.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	jobs := doc["jobs"].(map[string]any)
	cache := doc["cache"].(map[string]any)
	num := func(m map[string]any, k string) float64 {
		v, ok := m[k].(float64)
		if !ok {
			t.Fatalf("metric %q missing: %v", k, m)
		}
		return v
	}
	submitted := num(jobs, "submitted")
	settled := num(cache, "hits") + num(jobs, "completed") + num(jobs, "failed") +
		num(jobs, "canceled") + num(jobs, "rejected")
	if submitted != settled {
		t.Fatalf("accounting identity broken after restart: submitted %v != hits+terminal %v\njobs=%v cache=%v",
			submitted, settled, jobs, cache)
	}
	if got := num(jobs, "completed"); got < 1 {
		t.Fatalf("completed = %v after recovery, want >= 1", got)
	}
	if strings.TrimSpace(base2) == base {
		t.Log("note: restarted daemon reused the same port") // informational only
	}
}
