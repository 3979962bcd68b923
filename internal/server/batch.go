package server

import (
	"encoding/json"
	"net/http"
	"strconv"

	"thermalherd/internal/httpjson"
)

// MaxBatchJobs bounds one POST /v1/jobs:batch payload; larger batches
// are rejected outright so a single request cannot swamp the queue
// admission path.
const MaxBatchJobs = 256

// BatchRequest is the POST /v1/jobs:batch payload. IdempotencyKeys is
// optional; when present it must be one key per spec (empty strings
// opt individual specs out), and each key dedupes resubmissions the
// same way the Idempotency-Key header does for single submits.
// Tenants is likewise optional and per-spec; empty strings fall back
// to the request's X-Tenant-ID header (then to the default tenant).
type BatchRequest struct {
	Jobs            []Spec   `json:"jobs"`
	IdempotencyKeys []string `json:"idempotency_keys,omitempty"`
	Tenants         []string `json:"tenants,omitempty"`
}

// BatchItem is the per-spec outcome inside a BatchResponse: exactly
// one of Status (the spec was admitted or answered from cache) or
// Error (with Code holding the HTTP status a single submit would have
// returned: 400, 429 on brownout shedding, or 503) is set.
type BatchItem struct {
	Status *Status `json:"status,omitempty"`
	Error  string  `json:"error,omitempty"`
	Code   int     `json:"code,omitempty"`
}

// BatchResponse mirrors BatchRequest order: Jobs[i] is the outcome of
// request spec i.
type BatchResponse struct {
	Jobs []BatchItem `json:"jobs"`
}

// handleSubmitBatch admits up to MaxBatchJobs specs in one request so
// load generators can amortize HTTP round trips. Admission is per
// spec: a full queue or invalid spec fails that item only, and the
// response always carries one item per submitted spec, in order.
func (s *Server) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	hdrTenant := tenantOrDefault(r.Header.Get(TenantHeader))
	var req BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpjson.Error(w, http.StatusBadRequest, "bad batch payload: %v", err)
		return
	}
	if len(req.Jobs) == 0 {
		httpjson.Error(w, http.StatusBadRequest, "empty batch (want 1..%d jobs)", MaxBatchJobs)
		return
	}
	if len(req.Jobs) > MaxBatchJobs {
		httpjson.Error(w, http.StatusBadRequest, "batch of %d jobs exceeds the %d-job limit", len(req.Jobs), MaxBatchJobs)
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
	tenant := func(i int) string {
		if len(req.Tenants) > 0 && req.Tenants[i] != "" {
			return tenantOrDefault(req.Tenants[i])
		}
		return hdrTenant
	}
	if s.draining.Load() {
		// Each refused spec counts as one submission and one rejection
		// under its own tenant, exactly as a single submit would.
		for i := range req.Jobs {
			s.metrics.answered(tenant(i), outRejected)
		}
		httpjson.Error(w, http.StatusServiceUnavailable, "server is draining; not accepting jobs")
		return
	}
	s.metrics.inc(&s.metrics.batchRequests)
	resp := BatchResponse{Jobs: make([]BatchItem, len(req.Jobs))}
	for i, spec := range req.Jobs {
		var idemKey string
		if len(req.IdempotencyKeys) > 0 {
			idemKey = req.IdempotencyKeys[i]
		}
		st, code, _, err := s.admit(spec, idemKey, tenant(i))
		if err != nil {
			resp.Jobs[i] = BatchItem{Error: err.Error(), Code: code}
			continue
		}
		stCopy := st
		resp.Jobs[i] = BatchItem{Status: &stCopy}
	}
	s.respond(w, http.StatusOK, resp)
}

// ListResponse is the GET /v1/jobs document. NextOffset is present
// only when more jobs match beyond this page.
type ListResponse struct {
	Jobs       []Status `json:"jobs"`
	Total      int      `json:"total"`
	Offset     int      `json:"offset"`
	NextOffset *int     `json:"next_offset,omitempty"`
}

// listLimits bound GET /v1/jobs pagination.
const (
	defaultListLimit = 50
	maxListLimit     = 500
)

// handleList serves GET /v1/jobs?status=&tenant=&limit=&offset=: all
// known jobs in id order, optionally filtered to one lifecycle state
// and/or one tenant.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var filter State
	if v := q.Get("status"); v != "" {
		switch State(v) {
		case StateQueued, StateRunning, StateDone, StateFailed, StateCanceled, StateMigrated:
			filter = State(v)
		default:
			httpjson.Error(w, http.StatusBadRequest, "unknown status %q (want queued, running, done, failed, canceled, or migrated)", v)
			return
		}
	}
	tenantFilter := q.Get("tenant")
	limit, err := queryInt(q.Get("limit"), defaultListLimit)
	if err != nil || limit <= 0 || limit > maxListLimit {
		httpjson.Error(w, http.StatusBadRequest, "bad limit %q (want 1..%d)", q.Get("limit"), maxListLimit)
		return
	}
	offset, err := queryInt(q.Get("offset"), 0)
	if err != nil || offset < 0 {
		httpjson.Error(w, http.StatusBadRequest, "bad offset %q (want >= 0)", q.Get("offset"))
		return
	}
	s.metrics.inc(&s.metrics.listRequests)

	jobs, _ := s.sortedJobs()
	statuses := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		st := j.status()
		if filter != "" && st.State != filter {
			continue
		}
		if tenantFilter != "" && st.Tenant != tenantFilter {
			continue
		}
		statuses = append(statuses, st)
	}

	resp := ListResponse{Total: len(statuses), Offset: offset, Jobs: []Status{}}
	if offset < len(statuses) {
		end := offset + limit
		if end > len(statuses) {
			end = len(statuses)
		}
		resp.Jobs = statuses[offset:end]
		if end < len(statuses) {
			next := end
			resp.NextOffset = &next
		}
	}
	httpjson.Write(w, http.StatusOK, resp)
}

// queryInt parses an optional integer query parameter.
func queryInt(v string, def int) (int, error) {
	if v == "" {
		return def, nil
	}
	return strconv.Atoi(v)
}
