package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"time"
)

// takeoverTimeout bounds the adopt and migrate calls a takeover or
// drain issues against backends.
const takeoverTimeout = 10 * time.Second

// takeoverDueLocked is asked on every failed probe of an active node
// (callers hold mu). When takeover is armed (Config.TakeoverAfter > 0)
// and the node has sat in NodeDown past the deadline, it claims the
// node's single-flight slot and reports the takeover due; startTakeover
// then runs it: the ring successor adopts the replica journal the dead
// node streamed to it, the node leaves the ring with the successor as
// its alias, and its job ids resolve there.
func (g *Gateway) takeoverDueLocked(n *node, now time.Time) bool {
	if g.cfg.TakeoverAfter <= 0 || n.state != NodeDown || n.takingOver ||
		now.Sub(n.since) < g.cfg.TakeoverAfter {
		return false
	}
	n.takingOver = true
	return true
}

// startTakeover runs a claimed takeover on a goroutine Close waits out.
// A takeover that fails (successor unreachable, fault injected) frees
// the slot so the next failed probe retries.
func (g *Gateway) startTakeover(n *node) {
	g.takeoverWG.Add(1)
	//thermlint:goroutine -- bounded by takeoverTimeout HTTP deadlines; Close waits via takeoverWG
	go func() {
		defer g.takeoverWG.Done()
		if !g.runTakeover(n.backend.Name) {
			g.mu.Lock()
			n.takingOver = false
			g.mu.Unlock()
		}
	}()
}

// runTakeover executes one takeover of a dead node. Ordering matters:
// the successor must finish adopting before the node leaves with its
// alias, so a status poll rerouted by the alias always finds the
// adopted job rather than a 404 on a successor that has not replayed
// yet. A node alone on the ring has nobody holding a replica to adopt:
// it stays ejected-but-present so its ids resolve if it returns.
func (g *Gateway) runTakeover(origin string) bool {
	if err := g.cfg.Faults.Fire(FaultTakeover); err != nil {
		return false
	}
	sb, ok := g.successor(origin)
	if !ok {
		return false
	}
	ctx, cancel := context.WithTimeout(context.Background(), takeoverTimeout)
	defer cancel()
	if err := g.postAdopt(ctx, sb, origin); err != nil {
		return false
	}
	g.leave(origin, sb.Name)
	g.metrics.takeovers.Add(1)
	return true
}

// postAdopt asks the successor to replay origin's replica journal and
// adopt its jobs (POST /v1/replica/{origin}/adopt).
func (g *Gateway) postAdopt(ctx context.Context, succ Backend, origin string) error {
	fr, err := g.exchange(ctx, succ.URL, call{method: http.MethodPost, path: "/v1/replica/" + url.PathEscape(origin) + "/adopt"})
	if err != nil {
		return err
	}
	if fr.status != http.StatusOK {
		return fmt.Errorf("adopt of %s on %s: HTTP %d", origin, succ.Name, fr.status)
	}
	return nil
}

// migrateNode proactively herds a node's queued jobs to its ring
// successor (POST /v1/migrate on the node) — the drain path's half of
// failover: instead of waiting for the node to die and replaying a
// replica, the jobs move while the node is still alive to ship them.
// Returns the successor that received them.
func (g *Gateway) migrateNode(ctx context.Context, origin string) (string, error) {
	sb, ok := g.successor(origin)
	if !ok {
		return "", fmt.Errorf("node %q has no active ring successor to migrate to", origin)
	}
	ob, ok := g.activeBackend(origin)
	if !ok {
		return "", fmt.Errorf("no backend named %q", origin)
	}
	payload, err := json.Marshal(map[string]string{"target_name": sb.Name, "target_url": sb.URL})
	if err != nil {
		return "", err
	}
	fr, err := g.exchange(ctx, ob.URL, call{method: http.MethodPost, path: "/v1/migrate", body: payload,
		header: http.Header{"Content-Type": {"application/json"}}})
	if err != nil {
		return "", err
	}
	if fr.status != http.StatusOK {
		return "", fmt.Errorf("migrate on %s: HTTP %d", origin, fr.status)
	}
	g.metrics.migrations.Add(1)
	return sb.Name, nil
}

// resolveAlias follows the takeover alias chain from a job id's minted
// node to whoever serves it now: each hop folds the dead node into the
// local id ("<id>@<dead>" is the successor's local name for the job)
// and moves to the successor. Chains are short-circuited at 8 hops, so
// a cycle turns into a 404 instead of a spin.
func (g *Gateway) resolveAlias(id, name string) (string, string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i := 0; i < 8; i++ {
		n, ok := g.nodes[name]
		if !ok || n.adoptedBy == "" {
			break
		}
		id = id + "@" + name
		name = n.adoptedBy
	}
	return id, name
}

// aliasCount reports how many takeover aliases are installed.
func (g *Gateway) aliasCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	count := 0
	//thermlint:unordered -- counting; order carries no meaning
	for _, n := range g.nodes {
		if n.adoptedBy != "" {
			count++
		}
	}
	return count
}
