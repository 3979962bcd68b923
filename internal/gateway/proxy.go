package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"time"

	"thermalherd/internal/httpjson"
	"thermalherd/internal/server"
)

// Every request the gateway sends a backend goes through one pipeline:
// send is the per-node step (faults, send gate, HTTP exchange, hedge
// estimate, breaker, membership), race hedges a send with a second
// leg, and relay writes the reply back under the gateway's job id.

const (
	// forwardAttempts bounds how many backends one submit may try:
	// the first choice plus one failover.
	forwardAttempts = 2
	// attemptTimeout bounds each leg of a race. Submit legs are
	// detached from the client's context (a loser must be observable
	// after the winner is relayed), so they need their own deadline.
	attemptTimeout = 30 * time.Second
	// reapTimeout bounds the loser-cancel DELETE.
	reapTimeout = 5 * time.Second
	// retryAfterCap bounds how long the submit failover path will
	// honor a backend's Retry-After hint.
	retryAfterCap = 2 * time.Second
	// maxReply caps how much of a backend reply the gateway buffers.
	maxReply = 16 << 20
)

// errAborted marks a racing attempt stopped by its sendGate before it
// hit the wire; no backend ever saw it.
var errAborted = errors.New("attempt aborted pre-send (lost the hedge race)")

// forwardResult is one backend's reply, buffered so the gateway can
// rewrite job ids before relaying it.
type forwardResult struct {
	status int
	header http.Header
	body   []byte
}

// call is one request to send to a backend.
type call struct {
	method, path string
	body         []byte
	header       http.Header
	// class is the hedge-estimator route class the reply latency
	// feeds; empty observes nothing.
	class string
	// submits is how many job submissions the request carries; they
	// count as in flight on the node while it runs (the spill choice
	// and the admin remove check read that count).
	submits int64
}

// retryable reports whether a submit that got this backend status is
// safe and useful to try on the next candidate: the backend refused or
// sat behind a broken hop (draining 503, bad gateway) rather than
// judging the request itself. Brownout 429s are NOT retried — the herd
// is telling the client to back off, and hammering a peer instead
// would defeat the shed.
func retryable(status int) bool {
	return status == http.StatusServiceUnavailable ||
		status == http.StatusBadGateway ||
		status == http.StatusGatewayTimeout
}

// send is the per-node send step every request takes. In order: the
// gateway-side fault points (gw.forward, then gw.straggler on a
// non-DELETE to the straggler target), the pre-send gate (a race loser
// still held gateway-side stops here, unseen by any backend), the HTTP
// exchange, the hedge-estimator observation for c.class, the breaker
// feedback, and the membership suspect on a transport error or a
// retryable 5xx. A transport error or retryable 5xx is a breaker
// failure (the backend ate the request); any other reply, a 4xx
// included, proves the backend alive. An attempt whose own context
// ended — a cancelled race loser, a client hang-up, a scatter deadline
// — or that its gate stopped says nothing about the backend and feeds
// neither. The node's in-flight count carries c.submits for the
// duration. gate may be nil.
func (g *Gateway) send(ctx context.Context, gate *sendGate, name string, c call) (forwardResult, error) {
	g.mu.Lock()
	n, ok := g.nodes[name]
	if ok {
		n.inflight += c.submits
	}
	straggler := name == g.lastNode
	g.mu.Unlock()
	if !ok {
		return forwardResult{}, fmt.Errorf("unknown backend %q", name)
	}
	start := g.cfg.Clock.Now()
	err := g.cfg.Faults.Fire(FaultForward)
	if err == nil && c.method != http.MethodDelete && straggler {
		// The straggler skips DELETEs, so the loser reaper is never
		// slowed by the very straggler it is cleaning up after.
		err = g.cfg.Faults.Fire(FaultStraggler)
	}
	var fr forwardResult
	switch {
	case err == nil && gate != nil && !gate.tryBegin():
		err = errAborted
	case err == nil:
		g.metrics.proxied.Add(1)
		if fr, err = g.exchange(ctx, n.backend.URL, c); err == nil && c.class != "" {
			g.hedger.observe(c.class, g.cfg.Clock.Since(start))
		}
	}
	if err != nil && err != errAborted {
		g.metrics.backendErrors.Add(1)
		err = fmt.Errorf("forward to %s: %w", name, err)
	}
	judged := ctx.Err() == nil && err != errAborted
	failed := judged && (err != nil || retryable(fr.status))
	g.mu.Lock()
	n.inflight -= c.submits
	if judged && !n.removed {
		if !failed {
			n.circuitSuccess()
		} else if n.circuitFailure(g.cfg.Clock.Now(), breakerThreshold) {
			g.metrics.breakerOpens.Add(1)
		}
	}
	g.mu.Unlock()
	if failed {
		g.suspect(name)
	}
	return fr, err
}

// exchange is the send step's transport part: one HTTP request to a
// backend base URL, the reply buffered up to maxReply. The takeover
// calls use it directly; they address a backend outside the request
// pipeline's accounting.
func (g *Gateway) exchange(ctx context.Context, base string, c call) (forwardResult, error) {
	var rd io.Reader
	if c.body != nil {
		rd = bytes.NewReader(c.body)
	}
	req, err := http.NewRequestWithContext(ctx, c.method, base+c.path, rd)
	if err != nil {
		return forwardResult{}, err
	}
	for k, vs := range c.header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := g.hc.Do(req)
	if err != nil {
		return forwardResult{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxReply))
	if err != nil {
		return forwardResult{}, err
	}
	return forwardResult{status: resp.StatusCode, header: resp.Header, body: body}, nil
}

// admit decides whether an attempt may go to node. A request's first
// attempt is funded by the request itself; an extra one (a failover
// retry or a hedge) also takes a retry-budget token. The checks run so
// that a candidate that is never sent costs nothing: a node whose
// breaker refuses is skipped before a token is taken, allow (which
// consumes the half-open trial slot) runs last, and the token goes back
// if allow refuses anyway (a forced gw.breaker denial, or a trial slot
// taken concurrently). The FaultBreaker point lets the chaos suite
// force that denial.
func (g *Gateway) admit(name string, extra bool) error {
	if !g.circuit(name, (*node).available) {
		g.metrics.breakerDenied.Add(1)
		return fmt.Errorf("backend %s: circuit open", name)
	}
	if extra && !g.budget.take() {
		g.metrics.budgetExhausted.Add(1)
		return errors.New("retry budget exhausted")
	}
	if g.cfg.Faults.Fire(FaultBreaker) != nil || !g.circuit(name, (*node).allow) {
		if extra {
			g.budget.refund()
		}
		g.metrics.breakerDenied.Add(1)
		return fmt.Errorf("backend %s: circuit open", name)
	}
	return nil
}

// leg is one attempt of a race, sent on its own goroutine.
type leg struct {
	node   string
	gate   sendGate
	cancel context.CancelFunc
	done   chan struct{} // closed once fr and err are set
	fr     forwardResult
	err    error
}

func (g *Gateway) launch(ctx context.Context, node string, c call) *leg {
	lctx, cancel := context.WithTimeout(ctx, attemptTimeout)
	l := &leg{node: node, cancel: cancel, done: make(chan struct{})}
	//thermlint:goroutine -- the send is bounded by attemptTimeout
	go func() {
		defer cancel()
		l.fr, l.err = g.send(lctx, &l.gate, node, c)
		close(l.done)
	}()
	return l
}

func (l *leg) wait() { <-l.done }

// won reports whether the leg got a reply the backend judged, rather
// than a failure a failover could route around.
func (l *leg) won() bool { return l.err == nil && !retryable(l.fr.status) }

// race sends c to primary and, once the class's hedge delay passes
// without a reply, a second copy to second; the first winning reply is
// returned with the node that produced it. Reads hedge against their
// own node (a namespaced <id>@<node> exists on exactly one backend, so
// any other node could only answer 404); keyed submits hedge against
// the next candidate. bury disposes of the losing leg. The hedge needs
// hedging on, a non-empty second, enough latency samples, the
// gw.hedge fault point, and admit's breaker and budget checks; without
// any of them race is a plain send. When both legs fail it reports the
// primary's outcome, as an unhedged attempt would.
func (g *Gateway) race(ctx context.Context, c call, primary, second string, bury func(*leg)) (forwardResult, string, error) {
	delay, ok := time.Duration(0), g.cfg.Hedge && second != ""
	if ok {
		delay, ok = g.hedger.delay(c.class)
	}
	if !ok {
		sctx, cancel := context.WithTimeout(ctx, attemptTimeout)
		defer cancel()
		fr, err := g.send(sctx, nil, primary, c)
		return fr, primary, err
	}
	p := g.launch(ctx, primary, c)
	select {
	case <-p.done:
		return p.fr, primary, p.err
	case <-g.cfg.Clock.After(delay):
	}
	if g.cfg.Faults.Fire(FaultHedge) != nil || g.admit(second, true) != nil {
		p.wait()
		return p.fr, primary, p.err
	}
	g.metrics.hedgesFired.Add(1)
	h := g.launch(ctx, second, c)
	win, lose := p, h
	select {
	case <-p.done:
	case <-h.done:
		win, lose = h, p
	}
	if win.won() {
		bury(lose)
	} else {
		// The first finisher failed, so it admitted nothing and there is
		// nothing to bury; the other leg decides.
		lose.wait()
		if !lose.won() {
			return p.fr, primary, p.err
		}
		win = lose
	}
	if win == h {
		g.metrics.hedgesWon.Add(1)
	} else {
		g.metrics.hedgesWasted.Add(1)
	}
	return win.fr, win.node, nil
}

// cancelLoser is the read races' loser cleanup: a GET has nothing to
// reap, so the losing leg is cancelled mid-flight.
func cancelLoser(l *leg) { l.cancel() }

// reap is the keyed-submit races' loser cleanup. A loser still held
// gateway-side (in an injected delay) is aborted at its sendGate and
// never reaches the backend. One already on the wire must finish —
// cancelling a POST mid-flight could orphan a job under an id nobody
// learns — so it is awaited off the request path and the job it
// admitted is DELETEd: a hedged submit never leaves two live copies of
// the job behind. A job that finished first answers 409 and is left
// as-is.
func (g *Gateway) reap(l *leg) {
	if l.gate.abort() {
		return
	}
	go func() {
		l.wait()
		if l.err != nil || l.fr.status >= 300 {
			return // nothing was admitted
		}
		var st server.Status
		if err := json.Unmarshal(l.fr.body, &st); err != nil || st.ID == "" {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), reapTimeout)
		defer cancel()
		fr, err := g.send(ctx, nil, l.node, call{method: http.MethodDelete, path: "/v1/jobs/" + st.ID})
		if err == nil && fr.status == http.StatusOK {
			g.metrics.hedgeCancels.Add(1)
		}
	}()
}

// relay copies a buffered backend reply to the client. With a non-empty
// id, a reply that parses as a job Status document is re-encoded under
// that id, the gateway-namespaced one the client knows; any other reply
// goes out verbatim with the headers that carry semantics (content
// type, backoff hints).
func relay(w http.ResponseWriter, fr forwardResult, id string) {
	if id != "" {
		var st server.Status
		if err := json.Unmarshal(fr.body, &st); err == nil && st.ID != "" {
			st.ID = id
			if v := fr.header.Get("Retry-After"); v != "" {
				w.Header().Set("Retry-After", v)
			}
			httpjson.Write(w, fr.status, st)
			return
		}
	}
	for _, k := range []string{"Content-Type", "Retry-After"} {
		if v := fr.header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	w.WriteHeader(fr.status)
	w.Write(fr.body)
}

// sleepRetryAfter honors the previous attempt's Retry-After hint
// before a failover retry, capped at retryAfterCap, counting the
// requested wait in gw.retry_backoff_ms.
func (g *Gateway) sleepRetryAfter(ctx context.Context, fr *forwardResult) {
	if fr == nil {
		return
	}
	secs, err := strconv.Atoi(fr.header.Get("Retry-After"))
	if err != nil || secs <= 0 {
		return
	}
	d := time.Duration(secs) * time.Second
	if d > retryAfterCap {
		d = retryAfterCap
	}
	g.metrics.retryBackoffMs.Add(uint64(d / time.Millisecond))
	select {
	case <-ctx.Done():
	case <-g.cfg.Clock.After(d):
	}
}

// handleSubmit places one job by its canonical spec hash and proxies
// the submission to the chosen backend, forwarding the client's
// Idempotency-Key untouched — the key dedupes on whichever node the
// hash routes to, so a client retry through any gateway replica lands
// on the same backend and hits the same dedup table.
func (g *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		httpjson.Error(w, http.StatusBadRequest, "bad job payload: %v", err)
		return
	}
	var spec server.Spec
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		httpjson.Error(w, http.StatusBadRequest, "bad job payload: %v", err)
		return
	}
	hash, err := specHashOf(spec)
	if err != nil {
		httpjson.Error(w, http.StatusBadRequest, "bad job payload: %v", err)
		return
	}
	plan, err := g.planRoute(hash)
	if err != nil {
		httpjson.Error(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	g.metrics.submitsRouted.Add(1)
	if plan.spilled {
		g.metrics.spills.Add(1)
	}
	if plan.failedOver {
		g.metrics.failovers.Add(1)
	}
	hdr := http.Header{}
	idemKey := r.Header.Get("Idempotency-Key")
	if idemKey != "" {
		hdr.Set("Idempotency-Key", idemKey)
	}
	// The tenant identity travels byte-for-byte: the backend owns
	// normalization, quota, and attribution.
	if tenant := r.Header.Get(server.TenantHeader); tenant != "" {
		hdr.Set(server.TenantHeader, tenant)
	}
	hdr.Set("Content-Type", "application/json")
	c := call{method: http.MethodPost, path: "/v1/jobs", body: body, header: hdr, class: hedgeClassSubmit, submits: 1}
	// Attempts detach from the client's context: once a submit may have
	// been admitted somewhere, the gateway must see the outcome even if
	// the client hangs up, or it could neither relay nor reap the job.
	ctx := context.WithoutCancel(r.Context())

	attempts := plan.order
	if len(attempts) > forwardAttempts {
		attempts = attempts[:forwardAttempts]
	}
	// One base request funds the retry budget; every failover retry and
	// hedge below withdraws from it.
	g.budget.deposit(1)
	var lastErr error
	var lastFr *forwardResult
	for i, node := range attempts {
		if err := g.admit(node, i > 0); err != nil {
			if lastErr != nil {
				err = fmt.Errorf("%w after: %v", err, lastErr)
			}
			lastErr = err
			continue
		}
		if i > 0 {
			g.metrics.forwardRetries.Add(1)
			// Honor the refusing backend's backoff hint before hammering
			// the successor — a draining 503 with Retry-After is the herd
			// asking for breathing room, not a race to the next node.
			g.sleepRetryAfter(r.Context(), lastFr)
		}
		// Only Idempotency-Key-bearing submits are hedged, against the
		// next candidate: the key is what makes a second copy of the
		// request safe to send at all.
		var second string
		if idemKey != "" && i == 0 && len(attempts) > 1 {
			second = attempts[1]
		}
		fr, winner, err := g.race(ctx, c, node, second, g.reap)
		if err != nil {
			// The backend never answered; try the next candidate. The
			// forwarded Idempotency-Key makes the retry safe even if the
			// backend admitted the job before the connection died.
			lastErr, lastFr = err, nil
			continue
		}
		if retryable(fr.status) && i < len(attempts)-1 {
			lastErr = fmt.Errorf("backend %s: HTTP %d", winner, fr.status)
			lastFr = &fr
			continue
		}
		if fr.status < 300 {
			g.warm.add(hash)
			if i > 0 && fr.header.Get(server.DedupHeader) != "" {
				// A failover retry the backend answered from its
				// Idempotency-Key table: the earlier attempt did land
				// before its connection died, and dedup — not a second
				// admit — is what the client got back. Counted so chaos
				// runs can prove the double-send never happens.
				g.metrics.failoverDedupHits.Add(1)
			}
		}
		// Only the backend's job id is needed here; a body without one
		// (an error document) relays as-is.
		var ref struct {
			ID string `json:"id"`
		}
		json.Unmarshal(fr.body, &ref)
		relay(w, fr, globalID(ref.ID, winner))
		return
	}
	httpjson.Error(w, http.StatusBadGateway, "all candidate backends failed: %v", lastErr)
}

// handleSubmitBatch splits a batch by each spec's ring placement,
// forwards the per-node sub-batches concurrently, and reassembles the
// items in request order. A sub-batch whose backend fails entirely
// yields per-item 502s rather than failing the sibling shards.
func (g *Gateway) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	var req server.BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpjson.Error(w, http.StatusBadRequest, "bad batch payload: %v", err)
		return
	}
	if len(req.Jobs) == 0 {
		httpjson.Error(w, http.StatusBadRequest, "empty batch (want 1..%d jobs)", server.MaxBatchJobs)
		return
	}
	if len(req.Jobs) > server.MaxBatchJobs {
		httpjson.Error(w, http.StatusBadRequest, "batch of %d jobs exceeds the %d-job limit", len(req.Jobs), server.MaxBatchJobs)
		return
	}
	if len(req.IdempotencyKeys) != 0 && len(req.IdempotencyKeys) != len(req.Jobs) {
		httpjson.Error(w, http.StatusBadRequest, "idempotency_keys length %d does not match jobs length %d",
			len(req.IdempotencyKeys), len(req.Jobs))
		return
	}
	if len(req.Tenants) != 0 && len(req.Tenants) != len(req.Jobs) {
		httpjson.Error(w, http.StatusBadRequest, "tenants length %d does not match jobs length %d",
			len(req.Tenants), len(req.Jobs))
		return
	}

	resp := server.BatchResponse{Jobs: make([]server.BatchItem, len(req.Jobs))}
	// groups maps backend -> indexes of req.Jobs routed there.
	groups := make(map[string][]int)
	hashes := make([]string, len(req.Jobs))
	for i, spec := range req.Jobs {
		hash, err := specHashOf(spec)
		if err != nil {
			resp.Jobs[i] = server.BatchItem{Error: fmt.Sprintf("bad job payload: %v", err), Code: http.StatusBadRequest}
			continue
		}
		plan, err := g.planRoute(hash)
		if err != nil {
			resp.Jobs[i] = server.BatchItem{Error: err.Error(), Code: http.StatusServiceUnavailable}
			continue
		}
		g.metrics.submitsRouted.Add(1)
		if plan.spilled {
			g.metrics.spills.Add(1)
		}
		if plan.failedOver {
			g.metrics.failovers.Add(1)
		}
		hashes[i] = hash
		groups[plan.order[0]] = append(groups[plan.order[0]], i)
	}

	var wg sync.WaitGroup
	var mu sync.Mutex // guards resp.Jobs cells across shard goroutines
	for node, idxs := range groups {
		wg.Add(1)
		go func(node string, idxs []int) {
			defer wg.Done()
			sub := server.BatchRequest{Jobs: make([]server.Spec, len(idxs))}
			if len(req.IdempotencyKeys) > 0 {
				sub.IdempotencyKeys = make([]string, len(idxs))
			}
			if len(req.Tenants) > 0 {
				sub.Tenants = make([]string, len(idxs))
			}
			for k, i := range idxs {
				sub.Jobs[k] = req.Jobs[i]
				if len(req.IdempotencyKeys) > 0 {
					sub.IdempotencyKeys[k] = req.IdempotencyKeys[i]
				}
				if len(req.Tenants) > 0 {
					sub.Tenants[k] = req.Tenants[i]
				}
			}
			payload, err := json.Marshal(sub)
			var sr server.BatchResponse
			if err == nil {
				hdr := http.Header{}
				hdr.Set("Content-Type", "application/json")
				if tenant := r.Header.Get(server.TenantHeader); tenant != "" {
					hdr.Set(server.TenantHeader, tenant)
				}
				g.budget.deposit(len(idxs))
				fr, ferr := g.send(r.Context(), nil, node, call{method: http.MethodPost, path: "/v1/jobs:batch",
					body: payload, header: hdr, submits: int64(len(idxs))})
				if ferr != nil {
					err = ferr
				} else if fr.status != http.StatusOK {
					err = fmt.Errorf("backend %s: HTTP %d", node, fr.status)
				} else if uerr := json.Unmarshal(fr.body, &sr); uerr != nil {
					err = fmt.Errorf("backend %s: bad batch response: %v", node, uerr)
				} else if len(sr.Jobs) != len(idxs) {
					err = fmt.Errorf("backend %s: batch response has %d items, want %d", node, len(sr.Jobs), len(idxs))
				}
			}
			mu.Lock()
			defer mu.Unlock()
			for k, i := range idxs {
				if err != nil {
					resp.Jobs[i] = server.BatchItem{Error: err.Error(), Code: http.StatusBadGateway}
					continue
				}
				item := sr.Jobs[k]
				if item.Status != nil {
					st := *item.Status
					st.ID = globalID(st.ID, node)
					item.Status = &st
					g.warm.add(hashes[i])
				}
				resp.Jobs[i] = item
			}
		}(node, idxs)
	}
	wg.Wait()
	httpjson.Write(w, http.StatusOK, resp)
}

// byNodeForward resolves a namespaced job id and proxies the request to
// the backend now serving it: the minting node normally, its takeover
// successor when an alias says the minting node is dead and adopted.
// Status polls and result fetches are idempotent, so they are hedged
// against that node, and they chase live migrations: a reply that says
// the job moved ("migrated" with a destination) is re-fetched from the
// destination, where the job lives under "<id>@<origin>". The chase is
// bounded at 4 hops — a job migrates at most once per drain, and a
// chain that long means cascading drains the client can retry through.
// A hop that fails keeps the previous reply: a stale "migrated" answer
// is still a truthful one. The reply is always relayed under the id the
// client asked with, so old ids keep resolving no matter how many hops
// the job has made.
func (g *Gateway) byNodeForward(w http.ResponseWriter, r *http.Request, method, pathSuffix string) {
	gid := r.PathValue("id")
	id, node, ok := splitID(gid)
	if !ok {
		httpjson.Error(w, http.StatusNotFound, "unknown job %q (gateway job ids look like <id>@<node>)", gid)
		return
	}
	// The alias chain wins over tombstones: a taken-over node's jobs
	// are served by its successor, not the corpse.
	id, node = g.resolveAlias(id, node)
	if _, known := g.lookupBackend(node); !known {
		httpjson.Error(w, http.StatusNotFound, "unknown job %q: no backend named %q", gid, node)
		return
	}
	g.budget.deposit(1)
	c := call{method: method, path: "/v1/jobs/" + id + pathSuffix}
	var fr forwardResult
	var err error
	if method != http.MethodGet {
		fr, err = g.send(r.Context(), nil, node, c)
	} else {
		c.class = hedgeClassStatus
		fr, _, err = g.race(r.Context(), c, node, node, cancelLoser)
	}
	if err != nil {
		httpjson.Error(w, http.StatusBadGateway, "%v", err)
		return
	}
	// Both the status endpoint (200) and the result endpoint (its 409
	// for an unfinished job) reply with the job's Status document. A
	// cancel is not chased.
	for hop := 0; hop < 4 && method == http.MethodGet; hop++ {
		var st server.Status
		if err := json.Unmarshal(fr.body, &st); err != nil ||
			st.State != server.StateMigrated || st.MigratedTo == "" {
			break
		}
		if _, known := g.lookupBackend(st.MigratedTo); !known {
			break
		}
		id, node = id+"@"+node, st.MigratedTo
		c.path = "/v1/jobs/" + id + pathSuffix
		next, _, err := g.race(r.Context(), c, node, node, cancelLoser)
		if err != nil {
			break
		}
		fr = next
	}
	if pathSuffix != "" && fr.status == http.StatusOK {
		// A completed result document is opaque payload; relay it as-is.
		relay(w, fr, "")
		return
	}
	relay(w, fr, gid)
}

func (g *Gateway) handleStatus(w http.ResponseWriter, r *http.Request) {
	g.byNodeForward(w, r, http.MethodGet, "")
}

func (g *Gateway) handleResult(w http.ResponseWriter, r *http.Request) {
	g.byNodeForward(w, r, http.MethodGet, "/result")
}

func (g *Gateway) handleCancel(w http.ResponseWriter, r *http.Request) {
	g.byNodeForward(w, r, http.MethodDelete, "")
}

// handlePassthrough forwards a read-only endpoint to the first
// routable backend (the data is identical on every node).
func (g *Gateway) handlePassthrough(path string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		for _, node := range g.ringNodes() {
			if !g.stateOf(node).routable() {
				continue
			}
			g.budget.deposit(1)
			fr, err := g.send(r.Context(), nil, node, call{method: http.MethodGet, path: path})
			if err != nil {
				continue
			}
			relay(w, fr, "")
			return
		}
		httpjson.Error(w, http.StatusServiceUnavailable, "no routable backends")
	}
}

// scatter runs fn once per ring backend, concurrently, each under the
// per-backend scatter timeout and funded as a base request. Ejected
// backends are included: they may still answer, and their jobs still
// exist. A leg may hedge against its own node; callers keep one result
// per node either way, so a won hedge can never double-count a backend.
func (g *Gateway) scatter(ctx context.Context, nodes []string, fn func(ctx context.Context, i int, node string)) {
	var wg sync.WaitGroup
	for i, node := range nodes {
		wg.Add(1)
		go func(i int, node string) {
			defer wg.Done()
			sctx, cancel := context.WithTimeout(ctx, g.cfg.ScatterTimeout)
			defer cancel()
			g.budget.deposit(1)
			fn(sctx, i, node)
		}(i, node)
	}
	wg.Wait()
}

// scatterGet is a scatter leg's GET, hedged against its own node. A
// non-200 reply is an error quoting the backend's own complaint (e.g.
// a bad status filter) when it sent one.
func (g *Gateway) scatterGet(ctx context.Context, node, path string) (forwardResult, error) {
	fr, _, err := g.race(ctx, call{method: http.MethodGet, path: path, class: hedgeClassScatter}, node, node, cancelLoser)
	if err != nil || fr.status == http.StatusOK {
		return fr, err
	}
	var ed httpjson.ErrorDoc
	if json.Unmarshal(fr.body, &ed) == nil && ed.Error != "" {
		return fr, fmt.Errorf("backend %s: %s", node, ed.Error)
	}
	return fr, fmt.Errorf("backend %s: HTTP %d", node, fr.status)
}

// ListDoc is the gateway's GET /v1/jobs document: the merged backend
// pages plus partial-result accounting. When every backend answered,
// Partial is false and the document is exactly what one logical node
// holding all the jobs would return.
type ListDoc struct {
	server.ListResponse
	// Partial is true when at least one backend's leg failed or timed
	// out; Total then undercounts and BackendErrors says why.
	Partial       bool              `json:"partial,omitempty"`
	BackendErrors map[string]string `json:"backend_errors,omitempty"`
}

// handleList scatter-gathers GET /v1/jobs across the herd. Each leg
// pages through its backend up to offset+limit entries (more can never
// appear in the merged page), ids are rewritten into the gateway
// namespace, and the merged set is re-sorted and re-paginated.
func (g *Gateway) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := 50
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 || n > 500 {
			httpjson.Error(w, http.StatusBadRequest, "bad limit %q (want 1..500)", v)
			return
		}
		limit = n
	}
	offset := 0
	if v := q.Get("offset"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			httpjson.Error(w, http.StatusBadRequest, "bad offset %q (want >= 0)", v)
			return
		}
		offset = n
	}
	statusFilter := q.Get("status")
	tenantFilter := q.Get("tenant")

	need := offset + limit
	nodes := g.ringNodes()
	type legResult struct {
		node  string
		jobs  []server.Status
		total int
		err   error
	}
	legs := make([]legResult, len(nodes))
	g.scatter(r.Context(), nodes, func(ctx context.Context, i int, node string) {
		jobs, total, err := g.fetchJobs(ctx, node, statusFilter, tenantFilter, need)
		legs[i] = legResult{node: node, jobs: jobs, total: total, err: err}
	})

	doc := ListDoc{}
	var merged []server.Status
	for _, part := range legs {
		if part.err != nil {
			doc.Partial = true
			if doc.BackendErrors == nil {
				doc.BackendErrors = make(map[string]string)
			}
			doc.BackendErrors[part.node] = part.err.Error()
			continue
		}
		doc.Total += part.total
		for _, st := range part.jobs {
			st.ID = globalID(st.ID, part.node)
			merged = append(merged, st)
		}
	}
	if doc.Partial {
		g.metrics.scatterPartials.Add(1)
	}
	// Namespaced ids sort stably: per-node submission order is preserved
	// and nodes interleave deterministically.
	sort.Slice(merged, func(i, k int) bool { return merged[i].ID < merged[k].ID })
	doc.Offset = offset
	doc.Jobs = []server.Status{}
	if offset < len(merged) {
		end := offset + limit
		if end > len(merged) {
			end = len(merged)
		}
		doc.Jobs = merged[offset:end]
		if end < doc.Total {
			next := end
			doc.NextOffset = &next
		}
	}
	httpjson.Write(w, http.StatusOK, doc)
}

// fetchJobs pages one backend's GET /v1/jobs until it has the first
// `need` matching jobs (or the backend runs out), returning them plus
// the backend's total match count.
func (g *Gateway) fetchJobs(ctx context.Context, node, statusFilter, tenantFilter string, need int) ([]server.Status, int, error) {
	var jobs []server.Status
	total := 0
	offset := 0
	for {
		path := fmt.Sprintf("/v1/jobs?limit=500&offset=%d", offset)
		if statusFilter != "" {
			path += "&status=" + statusFilter
		}
		if tenantFilter != "" {
			path += "&tenant=" + url.QueryEscape(tenantFilter)
		}
		fr, err := g.scatterGet(ctx, node, path)
		if err != nil {
			return nil, 0, err
		}
		var page server.ListResponse
		if err := json.Unmarshal(fr.body, &page); err != nil {
			return nil, 0, fmt.Errorf("backend %s: bad list response: %v", node, err)
		}
		total = page.Total
		jobs = append(jobs, page.Jobs...)
		if page.NextOffset == nil || len(jobs) >= need {
			return jobs, total, nil
		}
		offset = *page.NextOffset
	}
}

// handleMetrics scatter-gathers every backend's /metrics and merges
// them into one fleet-wide document: numeric leaves are summed (so the
// accounting identity submitted == hits + completed + failed +
// canceled + rejected reconciles across the herd exactly as it does
// per node), booleans are OR-ed, and nested sections merge
// recursively. The gateway then adds its own sections: "gateway" (its
// counters), "backends" (the membership snapshot), and "partial"
// (true when a backend's leg failed, meaning the sums undercount).
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	nodes := g.ringNodes()
	docs := make([]map[string]any, len(nodes))
	errs := make([]error, len(nodes))
	g.scatter(r.Context(), nodes, func(ctx context.Context, i int, node string) {
		fr, err := g.scatterGet(ctx, node, "/metrics")
		if err == nil {
			if uerr := json.Unmarshal(fr.body, &docs[i]); uerr != nil {
				err = fmt.Errorf("bad metrics body: %v", uerr)
			}
		}
		errs[i] = err
	})
	doc := make(map[string]any)
	backendErrs := make(map[string]string)
	for i, node := range nodes {
		if errs[i] != nil {
			backendErrs[node] = errs[i].Error()
			continue
		}
		mergeDocs(doc, docs[i])
	}
	partial := len(backendErrs) > 0
	if partial {
		g.metrics.scatterPartials.Add(1)
	}
	snap := g.Backends()
	routable := 0
	for _, h := range snap {
		if h.State.routable() {
			routable++
		}
	}
	doc[metricSectionGateway] = g.metrics.snapshot(len(snap), routable, g.aliasCount(), g.epoch.Load())
	doc[metricSectionBackends] = snap
	doc[metricKeyPartial] = partial
	if partial {
		doc[metricBackendErrors] = backendErrs
	}
	httpjson.Write(w, http.StatusOK, doc)
}

// mergeDocs folds src into dst: numbers add, booleans OR, maps recurse.
// Strings, arrays, and mismatched shapes keep dst's value (first
// backend wins) — histograms and timestamps are not meaningfully
// summable and the reconciliation identity only reads numeric leaves.
//
//thermlint:metricsmerge
func mergeDocs(dst, src map[string]any) {
	for k, sv := range src {
		dv, present := dst[k]
		if !present {
			dst[k] = copyValue(sv)
			continue
		}
		switch d := dv.(type) {
		case float64:
			if s, ok := sv.(float64); ok {
				dst[k] = d + s
			}
		case bool:
			if s, ok := sv.(bool); ok {
				dst[k] = d || s
			}
		case map[string]any:
			if s, ok := sv.(map[string]any); ok {
				mergeDocs(d, s)
			}
		}
	}
}

// copyValue deep-copies a decoded-JSON value so merging never aliases
// one backend's maps into the aggregate.
func copyValue(v any) any {
	if m, ok := v.(map[string]any); ok {
		out := make(map[string]any, len(m))
		for k, mv := range m {
			out[k] = copyValue(mv)
		}
		return out
	}
	return v
}

// handleHealthz reports gateway process liveness, in the same shape as
// a backend's /healthz so existing clients work unchanged.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	httpjson.Write(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"backends": len(g.ringNodes()),
	})
}

// readyDoc is the gateway's /readyz body: ready while at least one
// backend is routable, with the full membership snapshot attached so
// operators can see which nodes are ejected and since when.
type readyDoc struct {
	Ready  bool   `json:"ready"`
	Reason string `json:"reason,omitempty"`
	// Epoch is the topology generation: 1 at startup, bumped on every
	// admin add/remove, so operators can tell which ring a reply
	// reflects.
	Epoch    uint64       `json:"epoch"`
	Backends []NodeHealth `json:"backends"`
}

func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	snap := g.Backends()
	doc := readyDoc{Epoch: g.epoch.Load(), Backends: snap}
	for _, h := range snap {
		if h.State.routable() {
			doc.Ready = true
			break
		}
	}
	if !doc.Ready {
		doc.Reason = "no routable backends"
		httpjson.Write(w, http.StatusServiceUnavailable, doc)
		return
	}
	httpjson.Write(w, http.StatusOK, doc)
}
