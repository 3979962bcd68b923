package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"

	"thermalherd/internal/config"
	"thermalherd/internal/cpu"
	"thermalherd/internal/experiments"
	"thermalherd/internal/server"
	"thermalherd/internal/thermal"
)

// goldenFile holds the expected result of every spec any seed can
// generate, computed straight from the model packages (not through the
// daemon) by `perfbench --make-golden`.
const goldenFile = "golden.json"

// sorTolK is the SOR stopping criterion in thermal.Stack.Solve: it stops
// once the largest per-sweep update falls below this many kelvin.
// sorStartOffsetK is how far above ambient Solve starts every cell.
const (
	sorTolK         = 1e-5
	sorStartOffsetK = 20
)

// tempTolK is the temperature tolerance for a solve that took iters
// sweeps. A solver stopped by the criterion above sits within
// tol·ρ/(1−ρ) of its fixed point, ρ being the per-sweep contraction;
// ρ is estimated as the rate that shrinks the start offset to tol in
// iters sweeps. Two solvers that each honour the criterion may disagree
// by twice that; the tolerance allows ten times it. It is ~1e-3 K at
// the grid-16 and grid-32 iteration counts — far below the 0.1 K the
// reported temperatures are read at.
func tempTolK(iters int) float64 {
	if iters < 1 {
		iters = 1
	}
	rho := math.Pow(sorTolK/sorStartOffsetK, 1/float64(iters))
	return 10 * sorTolK * rho / (1 - rho)
}

// powerRelTol bounds the relative difference of total power: the power
// model is closed-form over the exact cpu statistics, so only float
// reassociation may move it.
const powerRelTol = 1e-9

// golden is one spec's expected result. Timing jobs compare the full cpu
// statistics (by digest) and the IPC exactly; thermal jobs compare the
// IPC exactly, total power within powerRelTol, and the peak and hotspot
// temperatures within TolK.
type golden struct {
	IPC      float64 `json:"ipc"`
	StatsSHA string  `json:"stats_sha,omitempty"`
	TotalW   float64 `json:"total_w,omitempty"`
	PeakK    float64 `json:"peak_k,omitempty"`
	HotspotK float64 `json:"hotspot_k,omitempty"`
	Iters    int     `json:"iters,omitempty"`
	TolK     float64 `json:"tol_k,omitempty"`
}

type goldenDoc struct {
	Note    string             `json:"note"`
	Results map[string]*golden `json:"results"`
}

// specKey is the golden table key: the first 16 hex digits of the
// spec's canonical hash.
func specKey(s server.Spec) string {
	h, err := s.CanonicalHash()
	if err != nil {
		panic(err) // generated specs are valid by construction
	}
	return h[:16]
}

func statsDigest(s *cpu.Stats) string {
	b, _ := json.Marshal(s)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

func loadGolden(path string) (map[string]*golden, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc goldenDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc.Results, nil
}

// servedResult is the union of the daemon's timing and thermal result
// documents, as far as the golden check reads them.
type servedResult struct {
	IPC      float64    `json:"ipc"`
	Stats    *cpu.Stats `json:"stats"`
	TotalW   float64    `json:"total_w"`
	PeakK    float64    `json:"peak_k"`
	HotspotK float64    `json:"hotspot_k"`
}

// checkResult compares a served result document with the golden entry.
func checkResult(g *golden, kind server.Kind, raw []byte) error {
	if g == nil {
		return fmt.Errorf("no golden result for this spec")
	}
	var r servedResult
	if err := json.Unmarshal(raw, &r); err != nil {
		return fmt.Errorf("undecodable result: %v", err)
	}
	if r.IPC != g.IPC {
		return fmt.Errorf("ipc %v, golden %v", r.IPC, g.IPC)
	}
	switch kind {
	case server.KindTiming:
		if r.Stats == nil {
			return fmt.Errorf("timing result without stats")
		}
		if d := statsDigest(r.Stats); d != g.StatsSHA {
			return fmt.Errorf("cpu stats digest %s, golden %s", d, g.StatsSHA)
		}
	case server.KindThermal:
		if math.Abs(r.TotalW-g.TotalW) > powerRelTol*math.Abs(g.TotalW) {
			return fmt.Errorf("total power %v W, golden %v W", r.TotalW, g.TotalW)
		}
		if math.Abs(r.PeakK-g.PeakK) > g.TolK {
			return fmt.Errorf("peak %v K, golden %v K (tolerance %.2g K)", r.PeakK, g.PeakK, g.TolK)
		}
		if math.Abs(r.HotspotK-g.HotspotK) > g.TolK {
			return fmt.Errorf("hotspot %v K, golden %v K (tolerance %.2g K)", r.HotspotK, g.HotspotK, g.TolK)
		}
	}
	return nil
}

// simKey identifies one simulation: everything in a spec but the kind
// and the thermal grid.
type simKey struct {
	Workload, Config string
	FF, Warm, Meas   uint64
}

func simKeyOf(s server.Spec) simKey {
	o := depthOptions(s.Depths)
	return simKey{s.Workload, s.Config, o.FastForwardInsts, o.WarmupInsts, o.MeasureInsts}
}

// computeGolden runs one simulation group (the specs sharing a simKey)
// through the model packages the way the daemon's executor does.
func computeGolden(specs []server.Spec) (map[string]*golden, error) {
	out := make(map[string]*golden, len(specs))
	cfg, err := config.ByName(specs[0].Config)
	if err != nil {
		return nil, err
	}
	runners := map[int]*experiments.Runner{} // by grid; shares the simulation
	for _, s := range specs {
		o := depthOptions(s.Depths)
		r := runners[o.Grid]
		if r == nil {
			r = experiments.NewRunner(o)
			runners[o.Grid] = r
		}
		st, err := r.Simulate(cfg, s.Workload)
		if err != nil {
			return nil, err
		}
		g := &golden{IPC: st.IPC()}
		if s.Kind == server.KindTiming {
			g.StatsSHA = statsDigest(st)
		} else {
			b, err := r.PowerFor(cfg, s.Workload)
			if err != nil {
				return nil, err
			}
			sol, fp, err := r.SolveThermal(cfg, b)
			if err != nil {
				return nil, err
			}
			g.TotalW = b.TotalW
			g.PeakK, _, _, _ = sol.Peak()
			if _, t, ok := thermal.HottestUnit(sol, fp); ok {
				g.HotspotK = t
			}
			g.Iters = sol.Iterations
			g.TolK = tempTolK(sol.Iterations)
		}
		out[specKey(s)] = g
	}
	return out, nil
}

// makeGolden computes the golden table for every workload's spec space
// on nproc goroutines and writes it to path.
func makeGolden(path string) error {
	groups := map[simKey][]server.Spec{}
	var order []simKey
	seen := map[string]bool{}
	for _, w := range workloads {
		for _, s := range w.Space() {
			if k := specKey(s); !seen[k] {
				seen[k] = true
				sk := simKeyOf(s)
				if groups[sk] == nil {
					order = append(order, sk)
				}
				groups[sk] = append(groups[sk], s)
			}
		}
	}
	results := make(map[string]*golden, len(seen))
	var mu sync.Mutex
	err := parallel(len(order), runtime.NumCPU(), func(i int) error {
		if i%200 == 0 {
			fmt.Fprintf(os.Stderr, "golden: %d/%d simulations\n", i, len(order))
		}
		g, err := computeGolden(groups[order[i]])
		mu.Lock()
		defer mu.Unlock()
		for k, v := range g {
			results[k] = v
		}
		return err
	})
	if err != nil {
		return err
	}
	doc := goldenDoc{
		Note: "Expected results of every spec the workloads can generate, keyed by the first 16 hex digits " +
			"of the canonical spec hash. They pin the model's own outputs so a faster program must compute " +
			"the same thing; the model is not validated against hardware, so no error figure is implied.",
		Results: results,
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
