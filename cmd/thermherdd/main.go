// Command thermherdd serves the Thermal Herding simulation stack as a
// long-lived HTTP daemon: clients submit timing, thermal, or
// experiment jobs, a bounded worker pool executes them, and identical
// resubmissions are answered from a content-addressed result cache.
//
// Usage:
//
//	thermherdd [-addr :8077] [-workers N] [-queue 64] [-cache 128] [-drain 30s]
//	           [-job-timeout 0] [-stuck-after 0] [-brownout 0]
//	           [-sched fifo|qos] [-short-budget 2s] [-short-reserve 0]
//	           [-tenant-rate 0] [-tenant-burst 0] [-tenant-weights SPEC]
//	           [-faults SPEC] [-fault-seed 1]
//	           [-journal-dir DIR] [-fsync always|off] [-no-recover]
//	           [-node NAME] [-repl none|sync] [-repl-peer NAME=URL]
//
// SIGINT/SIGTERM begin a graceful drain: new submissions are rejected
// with 503, running jobs get the -drain deadline to finish, and the
// process exits once the pool is idle. See internal/server for the
// API surface and examples/client for a driver.
//
// The resilience knobs are off by default: -job-timeout bounds each
// job's execution wall time, -stuck-after arms the watchdog that
// retires worker slots whose executors ignore cancellation, and
// -brownout sheds new submissions with 429 + Retry-After once the
// head-of-queue job has waited that long. -faults (or the
// THERMHERD_FAULTS environment variable) arms the chaos-testing
// fault-injection registry; see internal/faultinject for the spec
// grammar. Never arm faults on a daemon doing real work.
//
// -sched qos enables the multi-tenant QoS scheduler: a 2-bit
// cost predictor classifies jobs short/long at admission, dequeue is
// weighted-fair across tenants (X-Tenant-ID header), long-class
// occupancy is capped so -short-reserve worker slots always drain
// short work, and a predicted-short job overrunning -short-budget is
// demoted mid-flight and its predictor bucket retrained. -tenant-rate
// and -tenant-burst arm a per-tenant token-bucket admission quota;
// -tenant-weights biases the fair dequeue ("live=4,batch=1").
//
// -journal-dir enables crash-safe durability: accepted jobs are
// written to a write-ahead log before they are acknowledged, and so is
// each job's terminal outcome; on restart the daemon replays the
// journal, re-enqueues unfinished work, and reports "recovering" on
// /readyz until the replay completes. -fsync picks the append
// durability policy (always survives power loss; off survives process
// crashes only). -no-recover discards any persisted state instead of
// replaying it.
//
// -repl arms successor replication: journal events stream to the
// -repl-peer node (name=url), which buffers them in its replica store
// and can adopt this node's jobs if it dies. Under -repl sync a submit
// is acked only after the peer's append — an acked job then survives
// this node's death. Requires -node so adopted job ids can be suffixed
// with their origin.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"thermalherd/internal/faultinject"
	"thermalherd/internal/replication"
	"thermalherd/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", ":8077", "listen address")
		workers    = flag.Int("workers", runtime.NumCPU(), "worker pool size")
		queueDepth = flag.Int("queue", 64, "max queued (not yet running) jobs")
		cacheSize  = flag.Int("cache", 128, "max cached job results")
		drain      = flag.Duration("drain", 30*time.Second, "graceful shutdown deadline for running jobs")

		jobTimeout = flag.Duration("job-timeout", 0, "per-job execution deadline (0 = none)")
		stuckAfter = flag.Duration("stuck-after", 0, "watchdog: fail jobs running this long and restart their worker slot (0 = off)")
		brownout   = flag.Duration("brownout", 0, "shed new submissions with 429 once the head-of-queue wait exceeds this (0 = off)")

		sched         = flag.String("sched", server.SchedFIFO, "scheduling policy: fifo or qos")
		shortBudget   = flag.Duration("short-budget", 2*time.Second, "qos: runtime budget before a predicted-short job is demoted to the long pool")
		shortReserve  = flag.Int("short-reserve", 0, "qos: worker slots reserved for short jobs (0 = workers/4, min 1)")
		tenantRate    = flag.Float64("tenant-rate", 0, "per-tenant admission quota in jobs/sec (0 = unlimited)")
		tenantBurst   = flag.Int("tenant-burst", 0, "per-tenant admission quota burst size")
		tenantWeights = flag.String("tenant-weights", "", "qos: fair-dequeue weights, e.g. live=4,batch=1 (unlisted tenants weigh 1)")

		faults    = flag.String("faults", os.Getenv("THERMHERD_FAULTS"), "fault-injection spec (chaos testing only); defaults to $THERMHERD_FAULTS")
		faultSeed = flag.Int64("fault-seed", 1, "seed for fault-injection firing decisions")

		journalDir = flag.String("journal-dir", "", "write-ahead journal directory; empty disables durability")
		fsync      = flag.String("fsync", "always", "journal fsync policy: always or off")
		noRecover  = flag.Bool("no-recover", false, "discard persisted journal state instead of replaying it")

		nodeName = flag.String("node", "", "this node's herd name (required with -repl)")
		repl     = flag.String("repl", "", "replication ack policy: none or sync (empty = none)")
		replPeer = flag.String("repl-peer", "", "successor peer as name=url; journal events stream there")
	)
	flag.Parse()

	replPolicy, err := replication.ParsePolicy(*repl)
	if err != nil {
		log.Fatalf("thermherdd: %v", err)
	}
	var streamer *replication.Streamer
	if replPolicy != replication.PolicyNone {
		peerName, peerURL, ok := strings.Cut(*replPeer, "=")
		if !ok || peerName == "" || peerURL == "" {
			log.Fatalf("thermherdd: -repl %s requires -repl-peer name=url", replPolicy)
		}
		if *nodeName == "" {
			log.Fatalf("thermherdd: -repl %s requires -node", replPolicy)
		}
		peerURL = strings.TrimRight(peerURL, "/")
		streamer, err = replication.New(replication.Options{
			Policy: replPolicy,
			Origin: *nodeName,
			Target: func() (string, string) { return peerName, peerURL },
		})
		if err != nil {
			log.Fatalf("thermherdd: %v", err)
		}
	}

	weights, werr := server.ParseTenantWeights(*tenantWeights)
	if werr != nil {
		log.Fatalf("thermherdd: %v", werr)
	}
	cfg := server.Config{
		NodeName:      *nodeName,
		Repl:          streamer,
		Workers:       *workers,
		QueueDepth:    *queueDepth,
		CacheSize:     *cacheSize,
		JobTimeout:    *jobTimeout,
		StuckAfter:    *stuckAfter,
		BrownoutAfter: *brownout,
		SchedPolicy:   *sched,
		ShortBudget:   *shortBudget,
		ShortReserve:  *shortReserve,
		TenantRate:    *tenantRate,
		TenantBurst:   *tenantBurst,
		TenantWeights: weights,
		JournalDir:    *journalDir,
		FsyncPolicy:   *fsync,
		NoRecover:     *noRecover,
	}
	if *faults != "" {
		reg := faultinject.New()
		if err := reg.Arm(*faults, *faultSeed); err != nil {
			log.Fatalf("thermherdd: %v", err)
		}
		cfg.Faults = reg
		log.Printf("thermherdd: CHAOS MODE: fault points armed (seed %d): %s",
			*faultSeed, strings.Join(reg.Points(), ", "))
	}

	srv, err := server.New(cfg)
	if err != nil {
		log.Fatalf("thermherdd: %v", err)
	}
	srv.Start()
	if *journalDir != "" {
		log.Printf("thermherdd: journal at %s (fsync=%s)", *journalDir, *fsync)
	}
	if streamer != nil {
		log.Printf("thermherdd: replication %s -> %s", replPolicy, *replPeer)
	}
	if *sched == server.SchedQoS {
		log.Printf("thermherdd: qos scheduler (short budget %s, reserve %d, tenant rate %g/s burst %d)",
			*shortBudget, *shortReserve, *tenantRate, *tenantBurst)
	}

	// Listen explicitly so ":0" resolves to a real port before the
	// "listening on" line — the crash-consistency harness starts the
	// daemon on an ephemeral port and parses the address from the log.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("thermherdd: %v", err)
	}
	hs := &http.Server{Handler: srv}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	log.Printf("thermherdd: listening on %s (%d workers, queue %d, cache %d)",
		ln.Addr(), *workers, *queueDepth, *cacheSize)

	select {
	case err := <-errc:
		log.Fatalf("thermherdd: %v", err)
	case <-ctx.Done():
	}

	// Keep serving during the drain so clients polling in-flight jobs
	// see their final states and new submissions get clean 503s.
	log.Printf("thermherdd: draining (deadline %s)", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		log.Printf("thermherdd: drain deadline hit, running jobs canceled: %v", err)
	}
	if err := hs.Shutdown(dctx); err != nil {
		hs.Close()
	}
	log.Printf("thermherdd: stopped")
}
