// Command thermherd-gw is the herd front door: it turns N thermherdd
// backends into one logical service by consistent-hashing each job's
// canonical spec hash across them, so identical specs always land on
// the same node and its result cache and idempotency dedup keep
// working at fleet scale.
//
// Usage:
//
//	thermherd-gw -backends n0=http://h0:8077,n1=http://h1:8077,n2=http://h2:8077
//	             [-addr :8070]
//	             [-probe-interval 1s] [-probe-timeout 500ms] [-fail-threshold 3]
//	             [-scatter-timeout 2s] [-faults SPEC] [-fault-seed 1]
//
// The gateway serves the same API as one thermherdd node. Job ids it
// returns are namespaced "<id>@<node>"; status, result, and cancel
// requests carrying such an id route straight to the minting backend
// with no gateway-side state. GET /v1/jobs and /metrics scatter-gather
// every backend under -scatter-timeout and mark the merged document
// "partial" when a backend fails to answer.
//
// Membership is probe-driven: each backend's /readyz is polled every
// -probe-interval, and its structured reason ejects (draining,
// recovering, down after -fail-threshold consecutive failures) or
// deprioritizes (brownout) the node. A browning-out node still serves
// the specs it has cached; cold specs spill to the less-loaded of two
// healthy peers. A backend flapping between healthy and down is held
// "suspect" for a cooldown instead of re-entering rotation on every
// good probe. -faults arms the gateway's chaos points (gw.forward,
// gw.probe, gw.splitbrain, gw.straggler, gw.hedge, gw.breaker,
// gw.admin); never arm faults on a gateway doing real work.
//
// Resilience knobs:
//
//   - -hedge enables request hedging: idempotent reads and
//     Idempotency-Key-bearing submits get a second attempt after the
//     per-route-class p95 delay (clamped into [5ms, 100ms]);
//     the first reply wins and the loser is cancelled or reaped.
//   - -retry-budget / -retry-burst bound retry+hedge amplification to
//     ~budget of base traffic (a Finagle-style token bucket).
//   - -breaker-cooldown tunes the per-backend circuit breakers fed by
//     forward and probe outcomes (5 consecutive failures open one).
//   - -admin-token (or $THERMHERD_ADMIN_TOKEN) enables the authenticated
//     live-membership API: POST/GET /v1/admin/nodes, POST
//     /v1/admin/nodes/{name}/drain, DELETE /v1/admin/nodes/{name}.
//     Without a token the admin API answers 403.
//   - -takeover-after arms failover (repl.takeover): a backend down
//     that long is adopted by its ring successor — the successor
//     replays the replica journal the dead node streamed to it (see
//     thermherdd -repl), an alias keeps the dead node's job ids
//     resolving, and the corpse leaves the ring. Drains become
//     proactive: queued jobs migrate to the successor immediately,
//     and DELETE ?force=1 adopts before removing.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"thermalherd/internal/faultinject"
	"thermalherd/internal/gateway"
)

// parseBackends decodes the -backends flag: comma-separated
// name=baseURL pairs.
func parseBackends(spec string) ([]gateway.Backend, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("no backends configured (want -backends n0=http://host:port,...)")
	}
	var out []gateway.Backend
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url, ok := strings.Cut(part, "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("bad backend %q (want name=baseURL)", part)
		}
		out = append(out, gateway.Backend{Name: name, URL: url})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no backends configured (want -backends n0=http://host:port,...)")
	}
	return out, nil
}

func main() {
	var (
		addr          = flag.String("addr", ":8070", "listen address")
		backendsSpec  = flag.String("backends", "", "comma-separated name=baseURL backend list (required)")
		probeInterval = flag.Duration("probe-interval", time.Second, "membership /readyz probe interval")
		probeTimeout  = flag.Duration("probe-timeout", 500*time.Millisecond, "per-probe timeout")
		failThreshold = flag.Int("fail-threshold", 3, "consecutive probe failures before a backend is ejected")
		scatterTO     = flag.Duration("scatter-timeout", 2*time.Second, "per-backend timeout for scatter-gather reads")
		faults        = flag.String("faults", os.Getenv("THERMHERD_FAULTS"), "fault-injection spec (chaos testing only); defaults to $THERMHERD_FAULTS")
		faultSeed     = flag.Int64("fault-seed", 1, "seed for fault-injection firing decisions")

		hedge       = flag.Bool("hedge", false, "hedge idempotent reads and keyed submits after the per-class p95 delay")
		retryBudget = flag.Float64("retry-budget", 0.1, "retry+hedge tokens deposited per base request")
		retryBurst  = flag.Float64("retry-burst", 10, "retry-budget bucket capacity")
		brkCooldown = flag.Duration("breaker-cooldown", 5*time.Second, "how long an open circuit waits before a half-open trial")
		adminToken  = flag.String("admin-token", os.Getenv("THERMHERD_ADMIN_TOKEN"), "bearer token for the /v1/admin/nodes API; empty disables it; defaults to $THERMHERD_ADMIN_TOKEN")

		takeoverAfter = flag.Duration("takeover-after", 0, "adopt a backend dead this long onto its ring successor (0 = takeover disabled; requires backends running -repl)")
	)
	flag.Parse()

	backends, err := parseBackends(*backendsSpec)
	if err != nil {
		log.Fatalf("thermherd-gw: %v", err)
	}
	cfg := gateway.Config{
		Backends:         backends,
		ProbeInterval:    *probeInterval,
		ProbeTimeout:     *probeTimeout,
		FailThreshold:    *failThreshold,
		ScatterTimeout:   *scatterTO,
		Hedge:            *hedge,
		RetryBudgetRatio: *retryBudget,
		RetryBudgetBurst: *retryBurst,
		BreakerCooldown:  *brkCooldown,
		AdminToken:       *adminToken,
		TakeoverAfter:    *takeoverAfter,
	}
	if *faults != "" {
		reg := faultinject.New()
		if err := reg.Arm(*faults, *faultSeed); err != nil {
			log.Fatalf("thermherd-gw: %v", err)
		}
		cfg.Faults = reg
		log.Printf("thermherd-gw: CHAOS MODE: fault points armed (seed %d): %s",
			*faultSeed, strings.Join(reg.Points(), ", "))
	}

	gw, err := gateway.New(cfg)
	if err != nil {
		log.Fatalf("thermherd-gw: %v", err)
	}
	gw.Start()
	defer gw.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("thermherd-gw: %v", err)
	}
	hs := &http.Server{Handler: gw}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	names := make([]string, len(backends))
	for i, b := range backends {
		names[i] = b.Name
	}
	log.Printf("thermherd-gw: listening on %s, herding %d backends (%s)",
		ln.Addr(), len(backends), strings.Join(names, ", "))
	if *hedge {
		log.Printf("thermherd-gw: hedging enabled (retry budget %.2f burst %.0f)",
			*retryBudget, *retryBurst)
	}
	if *adminToken != "" {
		log.Printf("thermherd-gw: admin API enabled on /v1/admin/nodes")
	}
	if *takeoverAfter > 0 {
		log.Printf("thermherd-gw: failover armed: takeover after %v down, drains migrate queued jobs", *takeoverAfter)
	}

	select {
	case err := <-errc:
		log.Fatalf("thermherd-gw: %v", err)
	case <-ctx.Done():
	}

	log.Printf("thermherd-gw: shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		hs.Close()
	}
	log.Printf("thermherd-gw: stopped")
}
