package main

import (
	"encoding/json"
	"strings"
	"testing"

	"thermalherd/internal/config"
	"thermalherd/internal/experiments"
	"thermalherd/internal/server"
	"thermalherd/internal/thermal"
)

// served builds the result document the daemon serves for spec, from
// the same model calls its executor makes.
func served(t *testing.T, spec server.Spec) map[string]any {
	t.Helper()
	cfg, err := config.ByName(spec.Config)
	if err != nil {
		t.Fatal(err)
	}
	r := experiments.NewRunner(depthOptions(spec.Depths))
	st, err := r.Simulate(cfg, spec.Workload)
	if err != nil {
		t.Fatal(err)
	}
	doc := map[string]any{"ipc": st.IPC(), "stats": st}
	if spec.Kind == server.KindThermal {
		b, err := r.PowerFor(cfg, spec.Workload)
		if err != nil {
			t.Fatal(err)
		}
		sol, fp, err := r.SolveThermal(cfg, b)
		if err != nil {
			t.Fatal(err)
		}
		doc["total_w"] = b.TotalW
		doc["peak_k"], _, _, _ = sol.Peak()
		_, doc["hotspot_k"], _ = thermal.HottestUnit(sol, fp)
	}
	return doc
}

func check(t *testing.T, g *golden, kind server.Kind, doc map[string]any) error {
	t.Helper()
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return checkResult(g, kind, raw)
}

func TestGoldenCheckRejectsPerturbedResults(t *testing.T) {
	gold, err := loadGolden(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	timing := genHerdDurable(1)[0].Spec
	therm := genSolveHeavy(1)[0].Spec
	for _, spec := range []server.Spec{timing, therm} {
		g := gold[specKey(spec)]
		doc := served(t, spec)
		if err := check(t, g, spec.Kind, doc); err != nil {
			t.Fatalf("%s result rejected unperturbed: %v", spec.Kind, err)
		}
		bad := map[string]any{}
		for k, v := range doc {
			bad[k] = v
		}
		bad["ipc"] = doc["ipc"].(float64) * (1 + 1e-12)
		if err := check(t, g, spec.Kind, bad); err == nil || !strings.Contains(err.Error(), "ipc") {
			t.Errorf("%s: perturbed IPC accepted (err %v)", spec.Kind, err)
		}
	}

	g := gold[specKey(therm)]
	doc := served(t, therm)
	doc["peak_k"] = doc["peak_k"].(float64) + 0.01
	if err := check(t, g, therm.Kind, doc); err == nil || !strings.Contains(err.Error(), "peak") {
		t.Errorf("peak temperature 0.01 K off accepted (tolerance %g K, err %v)", g.TolK, err)
	}
	doc = served(t, therm)
	doc["peak_k"] = doc["peak_k"].(float64) + g.TolK/2
	if err := check(t, g, therm.Kind, doc); err != nil {
		t.Errorf("peak temperature within tolerance rejected: %v", err)
	}

	// A timing result whose counters differ is caught by the stats digest
	// even when the IPC is unchanged.
	doc = served(t, timing)
	raw, _ := json.Marshal(doc["stats"])
	var stats map[string]any
	json.Unmarshal(raw, &stats)
	stats["BranchCount"] = stats["BranchCount"].(float64) + 1
	doc["stats"] = stats
	if err := check(t, gold[specKey(timing)], timing.Kind, doc); err == nil {
		t.Error("perturbed cpu statistics accepted")
	}
}

func TestTemperatureToleranceIsTight(t *testing.T) {
	for _, iters := range []int{100, 500, 1000} {
		if tol := tempTolK(iters); tol <= 10*sorTolK || tol > 0.01 {
			t.Errorf("tempTolK(%d) = %g K, want between %g K and 0.01 K", iters, tol, 10*sorTolK)
		}
	}
}
