package gateway

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"thermalherd/internal/httpjson"
	"thermalherd/internal/server"
)

// The admin API mutates the ring at runtime:
//
//	POST   /v1/admin/nodes              add a backend (starts joining)
//	GET    /v1/admin/nodes              topology + health + inflight
//	POST   /v1/admin/nodes/{name}/drain pin a backend draining
//	DELETE /v1/admin/nodes/{name}       remove an idle backend
//
// Every mutation happens atomically under the gateway's table lock and
// bumps the epoch counter, so a request routed before the change sees
// the old ring end-to-end and one routed after sees the new one —
// never a half-applied rehash. The drain → settle → delete workflow is
// how a node leaves without losing jobs: draining stops new
// placements (status reads keep routing), and DELETE refuses while
// the node still holds queued or running work.

// adminNodeRequest is the POST /v1/admin/nodes body.
type adminNodeRequest struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// adminNodeDoc is one node's row in admin replies: its membership
// health plus the gateway-tracked in-flight submit count.
type adminNodeDoc struct {
	NodeHealth
	Inflight int64 `json:"inflight"`
}

// adminTopologyDoc is the GET /v1/admin/nodes reply.
type adminTopologyDoc struct {
	Epoch uint64         `json:"epoch"`
	Nodes []adminNodeDoc `json:"nodes"`
}

// requireAdmin guards an admin handler: a gateway started without an
// admin token has the API disabled outright (403), and the bearer
// token is compared in constant time. The FaultAdmin point fires after
// authentication, before the wrapped operation.
func (g *Gateway) requireAdmin(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if g.cfg.AdminToken == "" {
			httpjson.Error(w, http.StatusForbidden, "admin API disabled (gateway started without an admin token)")
			return
		}
		const prefix = "Bearer "
		auth := r.Header.Get("Authorization")
		if !strings.HasPrefix(auth, prefix) ||
			subtle.ConstantTimeCompare([]byte(strings.TrimPrefix(auth, prefix)), []byte(g.cfg.AdminToken)) != 1 {
			httpjson.Error(w, http.StatusUnauthorized, "admin API requires a valid bearer token")
			return
		}
		if err := g.cfg.Faults.Fire(FaultAdmin); err != nil {
			httpjson.Error(w, http.StatusInternalServerError, "admin chaos: %v", err)
			return
		}
		next(w, r)
	}
}

// handleAdminAddNode adds a backend to the ring without a restart. The
// node enters membership as NodeJoining — it takes no traffic until a
// probe confirms it healthy — and an immediate probe is kicked off so
// a live joiner starts serving within one probe round-trip, not one
// probe interval. The deterministic vnode rehash means the joiner
// takes exactly the ring shard it would have owned at startup.
func (g *Gateway) handleAdminAddNode(w http.ResponseWriter, r *http.Request) {
	var req adminNodeRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpjson.Error(w, http.StatusBadRequest, "bad node payload: %v", err)
		return
	}
	b := Backend{Name: req.Name, URL: strings.TrimRight(req.URL, "/")}
	if err := validateBackend(b); err != nil {
		httpjson.Error(w, http.StatusBadRequest, "%v", err)
		return
	}
	epoch, err := g.join(b, NodeJoining)
	if err != nil {
		httpjson.Error(w, http.StatusConflict, "%v", err)
		return
	}
	g.metrics.nodesAdded.Add(1)
	g.suspect(b.Name) // async: probe the joiner to healthy now
	httpjson.Write(w, http.StatusCreated, map[string]any{
		"epoch": epoch,
		"node":  adminNodeDoc{NodeHealth: NodeHealth{Name: b.Name, URL: b.URL, State: NodeJoining}},
	})
}

// handleAdminListNodes reports the topology: epoch plus every node's
// membership health, breaker position, and in-flight submit count.
func (g *Gateway) handleAdminListNodes(w http.ResponseWriter, r *http.Request) {
	httpjson.Write(w, http.StatusOK, adminTopologyDoc{Epoch: g.epoch.Load(), Nodes: g.snapshot()})
}

// handleAdminDrainNode pins a backend into NodeDraining: new submits
// stop routing there immediately (its ring shard fails over
// deterministically to the successor), while status reads and result
// fetches for its existing jobs keep flowing. Probes cannot unpin it;
// only removal or re-add can. With takeover armed, drain is proactive
// herding: the node's queued jobs migrate to its ring successor now,
// instead of sitting out the drain — so the node can exit as soon as
// its running jobs finish, not after its whole queue does.
func (g *Gateway) handleAdminDrainNode(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	inflight, ok := g.pinDrain(name)
	if !ok {
		httpjson.Error(w, http.StatusNotFound, "no backend named %q", name)
		return
	}
	g.metrics.nodesDrained.Add(1)
	doc := map[string]any{
		"epoch":    g.epoch.Load(),
		"draining": name,
		"inflight": inflight,
	}
	if g.cfg.TakeoverAfter > 0 {
		mctx, cancel := context.WithTimeout(r.Context(), takeoverTimeout)
		defer cancel()
		succ, err := g.migrateNode(mctx, name)
		if err != nil {
			// The pin stands either way; migration is an optimization, and
			// the drain workflow still settles without it.
			doc["migrate_error"] = err.Error()
		} else {
			doc["migrated_to"] = succ
		}
	}
	httpjson.Write(w, http.StatusAccepted, doc)
}

// handleAdminRemoveNode removes a backend from the ring. Unless
// ?force=1, the node must be idle: no gateway-tracked in-flight
// submits and no queued or running jobs on the backend itself — the
// drain workflow (drain, wait for its jobs to settle, then delete) is
// what guarantees zero lost acked jobs. The name survives as a
// tombstone so <id>@<node> reads minted before the removal still
// route while the backend process lives. With takeover armed, force=1
// is no longer lossy: the ring successor adopts the node's replica
// journal first, and an alias keeps its job ids resolving.
func (g *Gateway) handleAdminRemoveNode(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if _, ok := g.activeBackend(name); !ok {
		httpjson.Error(w, http.StatusNotFound, "no backend named %q", name)
		return
	}
	force := r.URL.Query().Get("force") == "1"
	if n := g.inflightOf(name); n > 0 && !force {
		httpjson.Error(w, http.StatusConflict,
			"backend %q has %d submits in flight (drain and wait, or force=1)", name, n)
		return
	}
	if !force {
		queued, running, err := g.backendLoad(r.Context(), name)
		if err != nil {
			httpjson.Error(w, http.StatusConflict,
				"backend %q load unknown (%v); drain and wait, or force=1", name, err)
			return
		}
		if queued+running > 0 {
			httpjson.Error(w, http.StatusConflict,
				"backend %q still holds %d queued + %d running jobs (drain and wait, or force=1)",
				name, queued, running)
			return
		}
	}
	var adoptedBy string
	if force && g.cfg.TakeoverAfter > 0 {
		if sb, ok := g.successor(name); ok {
			actx, cancel := context.WithTimeout(r.Context(), takeoverTimeout)
			defer cancel()
			if err := g.postAdopt(actx, sb, name); err == nil {
				adoptedBy = sb.Name
			}
		}
	}
	epoch := g.leave(name, adoptedBy)
	g.metrics.nodesRemoved.Add(1)
	doc := map[string]any{"epoch": epoch, "removed": name}
	if adoptedBy != "" {
		doc["adopted_by"] = adoptedBy
	}
	httpjson.Write(w, http.StatusOK, doc)
}

// backendLoad counts one backend's unsettled jobs via its own list
// endpoint (Total on a limit=1 page is the full match count).
func (g *Gateway) backendLoad(ctx context.Context, name string) (queued, running int, err error) {
	count := func(status string) (int, error) {
		fr, ferr := g.send(ctx, nil, name, call{method: http.MethodGet, path: "/v1/jobs?limit=1&status=" + status})
		if ferr != nil {
			return 0, ferr
		}
		if fr.status != http.StatusOK {
			return 0, fmt.Errorf("backend %s: HTTP %d", name, fr.status)
		}
		var page server.ListResponse
		if jerr := json.Unmarshal(fr.body, &page); jerr != nil {
			return 0, fmt.Errorf("backend %s: bad list response: %v", name, jerr)
		}
		return page.Total, nil
	}
	if queued, err = count(string(server.StateQueued)); err != nil {
		return 0, 0, err
	}
	if running, err = count(string(server.StateRunning)); err != nil {
		return 0, 0, err
	}
	return queued, running, nil
}
