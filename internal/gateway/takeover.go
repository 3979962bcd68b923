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

// maybeTakeover is called on every failed probe. When takeover is
// armed (Config.TakeoverAfter > 0) and the node has sat in NodeDown
// past the deadline, it launches the takeover exactly once: the ring
// successor adopts the replica journal the dead node streamed to it,
// an alias reroutes the dead node's job ids, and the corpse leaves the
// ring. A takeover that fails (successor unreachable, fault injected)
// clears the single-flight slot so the next probe tick retries.
func (g *Gateway) maybeTakeover(name string) {
	if g.cfg.TakeoverAfter <= 0 {
		return
	}
	since := g.members.downSince(name)
	if since.IsZero() || g.cfg.Clock.Since(since) < g.cfg.TakeoverAfter {
		return
	}
	if _, active := g.activeBackend(name); !active {
		return
	}
	g.takeoverMu.Lock()
	if g.takingOver[name] {
		g.takeoverMu.Unlock()
		return
	}
	g.takingOver[name] = true
	g.takeoverMu.Unlock()
	g.takeoverWG.Add(1)
	//thermlint:goroutine -- bounded by takeoverTimeout HTTP deadlines; Close waits via takeoverWG
	go func() {
		defer g.takeoverWG.Done()
		if !g.runTakeover(name) {
			g.takeoverMu.Lock()
			delete(g.takingOver, name)
			g.takeoverMu.Unlock()
		}
	}()
}

// runTakeover executes one takeover of a dead node. Ordering matters:
// the successor must finish adopting before the alias is installed, so
// a status poll rerouted by the alias always finds the adopted job
// rather than a 404 on a successor that has not replayed yet.
func (g *Gateway) runTakeover(origin string) bool {
	if err := g.cfg.Faults.Fire(FaultTakeover); err != nil {
		return false
	}
	g.topo.RLock()
	succ := g.ring.SuccessorOf(origin)
	g.topo.RUnlock()
	if succ == "" {
		// Alone on the ring: nobody holds a replica to adopt. Leave the
		// node ejected-but-present so its ids resolve if it returns.
		return false
	}
	sb, ok := g.activeBackend(succ)
	if !ok {
		return false
	}
	ctx, cancel := context.WithTimeout(context.Background(), takeoverTimeout)
	defer cancel()
	if err := g.postAdopt(ctx, sb, origin); err != nil {
		return false
	}
	g.finishTakeover(origin, succ)
	g.metrics.takeovers.Add(1)
	return true
}

// finishTakeover atomically installs the alias and ejects the dead
// node from the topology, so there is no window where its job ids
// route to the corpse instead of the successor now serving them.
func (g *Gateway) finishTakeover(origin, succ string) {
	g.topo.Lock()
	g.aliases[origin] = succ
	g.ejectLocked(origin)
	g.topo.Unlock()
	g.members.removeMember(origin)
	g.breaker.remove(origin)
}

// ejectLocked removes a node from the live topology under topo (the
// caller holds it exclusively): tombstone the name, drop its ring
// shard, bump the epoch. Both the admin DELETE path and takeover share
// it so a node leaves the same way no matter who evicted it.
func (g *Gateway) ejectLocked(name string) uint64 {
	b, ok := g.byName[name]
	if !ok {
		return g.epoch.Load()
	}
	delete(g.byName, name)
	delete(g.inflight, name)
	g.removed[name] = b
	g.ring.Remove(name)
	g.recomputeLastLocked()
	return g.epoch.Add(1)
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
	g.topo.RLock()
	succ := g.ring.SuccessorOf(origin)
	g.topo.RUnlock()
	if succ == "" {
		return "", fmt.Errorf("node %q has no ring successor to migrate to", origin)
	}
	ob, ok := g.activeBackend(origin)
	if !ok {
		return "", fmt.Errorf("no backend named %q", origin)
	}
	sb, ok := g.activeBackend(succ)
	if !ok {
		return "", fmt.Errorf("successor %q of %q is not an active backend", succ, origin)
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
	return succ, nil
}

// resolveAlias follows the takeover alias chain from a job id's minted
// node to whoever serves it now: each hop folds the dead node into the
// local id ("<id>@<dead>" is the successor's local name for the job)
// and moves to the successor. Chains are short-circuited at 8 hops —
// a cycle would take a node re-added under a name it was aliased to,
// and the cap turns that misconfiguration into a 404 instead of a spin.
func (g *Gateway) resolveAlias(id, node string) (string, string) {
	g.topo.RLock()
	defer g.topo.RUnlock()
	for i := 0; i < 8; i++ {
		succ, ok := g.aliases[node]
		if !ok {
			break
		}
		id = id + "@" + node
		node = succ
	}
	return id, node
}

// aliasCount reports how many takeover aliases are installed.
func (g *Gateway) aliasCount() int {
	g.topo.RLock()
	defer g.topo.RUnlock()
	return len(g.aliases)
}
