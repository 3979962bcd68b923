package experiments

import (
	"sync"
	"sync/atomic"

	"thermalherd/internal/config"
	"thermalherd/internal/cpu"
)

// memoCap bounds a Memo at 1024 entries, about 2 MB of keys and
// cpu.Stats.
const memoCap = 1024

// simKey identifies one simulation: the full machine value, the
// workload and the three depths. These are every input of the
// simulation, so its result is a pure function of the key, and two
// machines that share a name but differ in any field never share an
// entry.
type simKey struct {
	cfg               config.Machine
	workload          string
	ff, warm, measure uint64
}

// Memo is a bounded, content-addressed store of simulation results
// that many Runners share, so a job reuses the statistics of an
// identical simulation another job already finished. It shares only
// inputs of the later phases (power, thermal), never solver state, so
// results are bit-identical whatever order jobs run in.
//
// Two jobs that ask for the same missing key at once both simulate; the
// first to finish is kept. A failed simulation is never kept. Once
// full, the Memo evicts the oldest-inserted entry.
type Memo struct {
	mu      sync.Mutex
	entries map[simKey]cpu.Stats
	// ring holds the keys in insertion order; once it is full,
	// ring[next] is the oldest.
	ring []simKey
	next int

	hits, misses atomic.Uint64
}

// NewMemo returns an empty Memo.
func NewMemo() *Memo {
	return &Memo{entries: make(map[simKey]cpu.Stats)}
}

// MemoStats counts a Memo's lookups: Hits were answered without
// simulating, Misses ran a simulation, and Entries is how many results
// the Memo holds.
type MemoStats struct {
	Hits, Misses uint64
	Entries      int
}

// Stats returns the Memo's counters.
func (m *Memo) Stats() MemoStats {
	m.mu.Lock()
	n := len(m.entries)
	m.mu.Unlock()
	return MemoStats{Hits: m.hits.Load(), Misses: m.misses.Load(), Entries: n}
}

// simulate returns the statistics for key, calling run (outside the
// lock) only when no entry exists. A nil Memo calls run every time.
func (m *Memo) simulate(key simKey, run func() (cpu.Stats, error)) (cpu.Stats, error) {
	if m == nil {
		return run()
	}
	m.mu.Lock()
	st, ok := m.entries[key]
	m.mu.Unlock()
	if ok {
		m.hits.Add(1)
		return st, nil
	}
	m.misses.Add(1)
	st, err := run()
	if err != nil {
		return st, err
	}
	m.mu.Lock()
	if _, ok := m.entries[key]; !ok {
		m.insert(key, st)
	}
	m.mu.Unlock()
	return st, nil
}

// insert records key as the newest entry, evicting the oldest once the
// ring is full. Caller holds m.mu.
func (m *Memo) insert(key simKey, st cpu.Stats) {
	m.entries[key] = st
	if len(m.ring) < memoCap {
		m.ring = append(m.ring, key)
		return
	}
	delete(m.entries, m.ring[m.next])
	m.ring[m.next] = key
	m.next = (m.next + 1) % memoCap
}
