package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"thermalherd/internal/clock"

	"thermalherd/internal/server"
)

// maxRetryDelay caps any single backoff sleep, jittered or
// server-suggested.
const maxRetryDelay = 30 * time.Second

// Client is a thin thermherdd HTTP client. Submissions that bounce off
// admission control (HTTP 429 or 503) are retried up to the configured
// attempt budget. Each retry sleeps a full-jitter exponential backoff —
// uniform in [0, backoff<<attempt) — so a fleet of clients rejected
// together does not retry together; a server-sent Retry-After header
// (thermherdd's brownout controller sends one with its 429s) overrides
// the jitter for that attempt. The jitter PRNG is seeded, so equal
// seeds reproduce equal retry schedules.
type Client struct {
	base    string
	hc      *http.Client
	retries int
	backoff time.Duration
	clk     clock.Clock

	rngMu sync.Mutex
	rng   *rand.Rand

	submitRequests atomic.Int64
	pollRequests   atomic.Int64
	retriesUsed    atomic.Int64
}

// NewClient targets base (e.g. "http://localhost:8077"). retries is
// the number of re-attempts after the first try; backoff is the upper
// bound of the first retry's jittered delay and doubles per attempt.
// seed fixes the jitter PRNG for reproducible retry schedules.
func NewClient(base string, retries int, backoff time.Duration, seed int64) *Client {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	return &Client{
		base:    strings.TrimRight(base, "/"),
		hc:      &http.Client{},
		retries: retries,
		backoff: backoff,
		clk:     clock.Real(),
		rng:     rand.New(rand.NewSource(seed)),
	}
}

// SubmitRequests counts submit HTTP requests issued so far (single and
// batch calls alike, including retries); the batching acceptance check
// asserts on it.
func (c *Client) SubmitRequests() int64 { return c.submitRequests.Load() }

// PollRequests counts status-poll HTTP requests issued so far.
func (c *Client) PollRequests() int64 { return c.pollRequests.Load() }

// RetriesUsed counts submit attempts that were backoff retries.
func (c *Client) RetriesUsed() int64 { return c.retriesUsed.Load() }

// retryable reports whether a submit should back off and try again.
func retryable(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
}

// retryDelay picks the sleep before retry number attempt (0-based):
// the server's Retry-After suggestion when it sent one, otherwise a
// full-jitter draw from [0, backoff<<attempt), both capped at
// maxRetryDelay.
func (c *Client) retryDelay(attempt int, retryAfter string) time.Duration {
	if secs, err := strconv.Atoi(strings.TrimSpace(retryAfter)); err == nil && secs > 0 {
		d := time.Duration(secs) * time.Second
		if d > maxRetryDelay {
			d = maxRetryDelay
		}
		return d
	}
	ceil := c.backoff << attempt
	if ceil <= 0 || ceil > maxRetryDelay { // <= 0 catches shift overflow
		ceil = maxRetryDelay
	}
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return time.Duration(c.rng.Int63n(int64(ceil)))
}

// postRetry POSTs body to path, retrying 429/503 responses. A
// non-empty idemKey rides along as the Idempotency-Key header on every
// attempt, so a retry (or a rerun after a client restart) of the same
// logical submission cannot double-execute on a journaling daemon. It
// returns the final response body and status code.
func (c *Client) postRetry(ctx context.Context, path string, body []byte, idemKey, tenant string) ([]byte, int, error) {
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
		if err != nil {
			return nil, 0, err
		}
		req.Header.Set("Content-Type", "application/json")
		if idemKey != "" {
			req.Header.Set("Idempotency-Key", idemKey)
		}
		if tenant != "" {
			req.Header.Set(server.TenantHeader, tenant)
		}
		c.submitRequests.Add(1)
		if attempt > 0 {
			c.retriesUsed.Add(1)
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return nil, 0, err
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, resp.StatusCode, err
		}
		if !retryable(resp.StatusCode) || attempt >= c.retries {
			return b, resp.StatusCode, nil
		}
		select {
		case <-ctx.Done():
			return b, resp.StatusCode, ctx.Err()
		case <-c.clk.After(c.retryDelay(attempt, resp.Header.Get("Retry-After"))):
		}
	}
}

// errorOf decodes the server's uniform error document.
func errorOf(body []byte, code int) error {
	var doc struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &doc) == nil && doc.Error != "" {
		return fmt.Errorf("HTTP %d: %s", code, doc.Error)
	}
	return fmt.Errorf("HTTP %d: %s", code, bytes.TrimSpace(body))
}

// Submit sends one job and returns its admitted (or cached) status.
// A non-empty idemKey dedupes resubmissions on a journaling daemon; a
// non-empty tenant rides the X-Tenant-ID header so the daemon
// attributes and quotas the job ("" means the default tenant).
func (c *Client) Submit(ctx context.Context, spec server.Spec, idemKey, tenant string) (server.Status, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return server.Status{}, err
	}
	b, code, err := c.postRetry(ctx, "/v1/jobs", body, idemKey, tenant)
	if err != nil {
		return server.Status{}, err
	}
	if code != http.StatusOK && code != http.StatusAccepted {
		return server.Status{}, errorOf(b, code)
	}
	var st server.Status
	if err := json.Unmarshal(b, &st); err != nil {
		return server.Status{}, fmt.Errorf("decode submit response: %w", err)
	}
	return st, nil
}

// SubmitBatch sends specs through POST /v1/jobs:batch and returns the
// per-spec outcomes in submission order. idemKeys and tenants, when
// non-nil, must be one per spec; an empty key opts its spec out of
// dedup, an empty tenant falls to the daemon's default tenant.
func (c *Client) SubmitBatch(ctx context.Context, specs []server.Spec, idemKeys, tenants []string) ([]server.BatchItem, error) {
	if idemKeys != nil && len(idemKeys) != len(specs) {
		return nil, fmt.Errorf("loadgen: %d idempotency keys for %d specs", len(idemKeys), len(specs))
	}
	if tenants != nil && len(tenants) != len(specs) {
		return nil, fmt.Errorf("loadgen: %d tenants for %d specs", len(tenants), len(specs))
	}
	body, err := json.Marshal(server.BatchRequest{Jobs: specs, IdempotencyKeys: idemKeys, Tenants: tenants})
	if err != nil {
		return nil, err
	}
	b, code, err := c.postRetry(ctx, "/v1/jobs:batch", body, "", "")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, errorOf(b, code)
	}
	var resp server.BatchResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		return nil, fmt.Errorf("decode batch response: %w", err)
	}
	if len(resp.Jobs) != len(specs) {
		return nil, fmt.Errorf("batch returned %d items for %d specs", len(resp.Jobs), len(specs))
	}
	return resp.Jobs, nil
}

// getJSON GETs path and decodes its 200 answer into dst; any other
// status is an error carrying the server's message. what names the
// document in decode errors.
func (c *Client) getJSON(ctx context.Context, path, what string, dst any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return errorOf(b, resp.StatusCode)
	}
	if err := json.Unmarshal(b, dst); err != nil {
		return fmt.Errorf("decode %s: %w", what, err)
	}
	return nil
}

// JobStatus fetches one job's current status.
func (c *Client) JobStatus(ctx context.Context, id string) (server.Status, error) {
	c.pollRequests.Add(1)
	var st server.Status
	err := c.getJSON(ctx, "/v1/jobs/"+id, "status", &st)
	return st, err
}

// Healthz probes the daemon's liveness endpoint, returning its status
// string ("ok" or "draining"); an unreachable or unhealthy daemon is
// an error. Chaos runs use it to assert the process survived.
func (c *Client) Healthz(ctx context.Context) (string, error) {
	var doc struct {
		Status string `json:"status"`
	}
	err := c.getJSON(ctx, "/healthz", "healthz", &doc)
	return doc.Status, err
}

// CountJobs returns how many known jobs are in the given lifecycle
// state (all jobs when status is empty), via GET /v1/jobs's Total.
func (c *Client) CountJobs(ctx context.Context, status string) (int, error) {
	path := "/v1/jobs?limit=1"
	if status != "" {
		path += "&status=" + status
	}
	var list server.ListResponse
	err := c.getJSON(ctx, path, "job list", &list)
	return list.Total, err
}

// Metrics fetches the daemon's /metrics document; a non-200 answer is
// an error.
func (c *Client) Metrics(ctx context.Context) (map[string]any, error) {
	var doc map[string]any
	if err := c.getJSON(ctx, "/metrics", "metrics", &doc); err != nil {
		return nil, err
	}
	return doc, nil
}
