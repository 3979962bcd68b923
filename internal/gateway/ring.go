// Package gateway turns N thermherdd backends into one logical herd:
// a front-door HTTP service that consistent-hashes each job's
// canonical spec hash (server.Spec.CanonicalHash, the same content
// address the per-node result cache keys on) across the backends, so
// dedup and result-cache locality survive sharding. Health-check-driven
// membership polls each backend's /readyz and interprets its structured
// reasons (draining / brownout / recovering, each with a "since"
// timestamp) to temporarily eject or deprioritize nodes;
// power-of-two-choices spill routes cold specs around a browning-out
// home node; and GET /v1/jobs listing plus /metrics are scatter-gathered
// with per-backend timeouts and partial-result accounting.
//
// Job ids crossing the gateway are namespaced as "<id>@<node>" —
// backends mint ids independently, so the node suffix is what lets the
// gateway route status polls, result fetches, and cancels statelessly
// (a restarted gateway needs no id table).
//
//thermlint:goroutines
package gateway

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
)

// Ring is a consistent-hash ring with virtual nodes. Placement is
// deterministic: node positions derive from sha256 over the node name
// and virtual-node index, key positions from sha256 over the key, so
// equal memberships place equal keys identically across gateway
// restarts and replicas. Removing a node remaps only the keys it
// owned (~1/N of the space with enough virtual nodes); re-adding it
// restores the original placement exactly.
//
// Ring is not safe for concurrent use on its own. The gateway mutates
// its ring only in join and leave (boot, admin add and remove,
// takeover), under the same lock request paths read it under; each
// mutation bumps the gateway's ring epoch. Membership ejections never
// touch the ring (they are a routing-time skip set, not ring surgery —
// see Gateway.planRoute), which is what keeps a node's shard identical
// when it returns.
type Ring struct {
	vnodes int
	points []ringPoint // sorted ascending by hash
	nodes  map[string]bool
}

type ringPoint struct {
	hash uint64
	node string
}

// DefaultVNodes is the virtual-node count per backend: enough that a
// 3–16 node herd's shards stay within a few percent of uniform. It is
// fixed, not configurable, because routing and replication must agree
// on it: replication chains pick each backend's successor with
// NewRing(0), and a gateway on another vnode count would take a dead
// node over onto a peer that never received its journal.
const DefaultVNodes = 64

// NewRing builds an empty ring; vnodes <= 0 means DefaultVNodes.
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	return &Ring{vnodes: vnodes, nodes: make(map[string]bool)}
}

// hash64 collapses sha256(data) into the ring's 64-bit key space.
func hash64(data string) uint64 {
	sum := sha256.Sum256([]byte(data))
	return binary.BigEndian.Uint64(sum[:8])
}

// vnodeHash positions virtual node i of a named node.
func vnodeHash(node string, i int) uint64 {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(i))
	return hash64(node + "#" + string(buf[:]))
}

// Add inserts a node (a no-op when it is already present).
func (r *Ring) Add(node string) {
	if r.nodes[node] {
		return
	}
	r.nodes[node] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{hash: vnodeHash(node, i), node: node})
	}
	sort.Slice(r.points, func(i, k int) bool {
		if r.points[i].hash != r.points[k].hash {
			return r.points[i].hash < r.points[k].hash
		}
		// Tie-break on the node name so placement is total-ordered even
		// in the astronomically unlikely event of a position collision.
		return r.points[i].node < r.points[k].node
	})
}

// Remove deletes a node and its virtual nodes (a no-op when absent).
func (r *Ring) Remove(node string) {
	if !r.nodes[node] {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Len reports the member-node count.
func (r *Ring) Len() int { return len(r.nodes) }

// Nodes returns the member node names, sorted.
func (r *Ring) Nodes() []string {
	out := make([]string, 0, len(r.nodes))
	//thermlint:unordered -- collecting map keys for an explicit sort below
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Lookup returns the key's home node: the first virtual node clockwise
// from the key's position. Empty ring returns "".
func (r *Ring) Lookup(key string) string {
	succ := r.Successors(key, 1)
	if len(succ) == 0 {
		return ""
	}
	return succ[0]
}

// SuccessorOf returns the member node immediately clockwise from the
// named member's first virtual node — the replication chain's backup
// for that member, and the takeover target when it dies. Every gateway
// replica (and every backend deriving its own streaming target)
// computes the same successor from the same membership, which is what
// makes the primary→backup chain a ring property rather than
// configuration. Returns "" when the member is absent or alone.
func (r *Ring) SuccessorOf(member string) string {
	if !r.nodes[member] || len(r.nodes) < 2 {
		return ""
	}
	h := vnodeHash(member, 0)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if p.node != member {
			return p.node
		}
	}
	return ""
}

// Successors walks clockwise from the key's position and returns up to
// n distinct nodes in preference order: the home node first, then the
// nodes a failover or spill should try, in the order that keeps every
// gateway replica's fallback choice identical.
func (r *Ring) Successors(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}
