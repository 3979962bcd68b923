package main

import (
	"testing"

	"thermalherd/internal/server"
)

func TestGenerationDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := inputDigest(w.Gen(7)), inputDigest(w.Gen(7))
		if a != b {
			t.Errorf("%s: seed 7 gave digests %s and %s", w.Name, a, b)
		}
		if c := inputDigest(w.Gen(8)); c == a {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", w.Name)
		}
	}
}

func TestGeneratedSpecsAreInTheGoldenSpace(t *testing.T) {
	for _, w := range workloads {
		space := map[string]bool{}
		for _, s := range w.Space() {
			space[specKey(s)] = true
		}
		for i, j := range w.Gen(3) {
			if !space[specKey(j.Spec)] {
				t.Fatalf("%s job %d (%+v) is outside the workload's spec space", w.Name, i, j.Spec)
			}
		}
	}
}

func TestSimHeavyShares(t *testing.T) {
	jobs := genSimHeavy(11)
	thermal, repeatsOK := 0, true
	for i, j := range jobs {
		if j.Spec.Kind != server.KindThermal {
			if j.Repeat != -1 {
				t.Fatalf("timing job %d marked as a repeat", i)
			}
			continue
		}
		thermal++
		src := jobs[j.Repeat]
		if j.Repeat >= i || src.Spec.Kind != server.KindTiming || simKeyOf(src.Spec) != simKeyOf(j.Spec) {
			repeatsOK = false
		}
	}
	if !repeatsOK {
		t.Error("a thermal job does not repeat an earlier timing job's simulation")
	}
	if got := float64(thermal) / float64(len(jobs)); got != 0.25 {
		t.Errorf("thermal (shared-simulation) share = %v, want 0.25", got)
	}
	// The first block's timing jobs visit every workload once.
	seen := map[string]bool{}
	for _, j := range jobs {
		if j.Spec.Kind == server.KindTiming {
			if seen[j.Spec.Workload] {
				break
			}
			seen[j.Spec.Workload] = true
		}
	}
	if len(seen) != 106 {
		t.Errorf("first block covers %d workloads, want 106", len(seen))
	}
}

func TestSolveHeavyNeverRepeatsASimulation(t *testing.T) {
	seen := map[simKey]bool{}
	stacked := 0
	jobs := genSolveHeavy(5)
	for _, j := range jobs {
		k := simKeyOf(j.Spec)
		if seen[k] {
			t.Fatalf("simulation %+v repeats", k)
		}
		seen[k] = true
		if j.Spec.Config == "3D" || j.Spec.Config == "3D-noTH" {
			stacked++
		}
	}
	if got := float64(stacked) / float64(len(jobs)); got < 0.3 || got > 0.37 {
		t.Errorf("stacked share = %v, want 1/3", got)
	}
}

func TestHerdDurableRepeatShare(t *testing.T) {
	jobs := genHerdDurable(9)
	repeats := 0
	for i, j := range jobs {
		if j.Repeat < 0 {
			continue
		}
		repeats++
		src := jobs[j.Repeat]
		if src.Repeat >= 0 || specKey(src.Spec) != specKey(j.Spec) {
			t.Fatalf("arrival %d does not repeat an original arrival's spec", i)
		}
		if gap := j.Due - src.Due; gap < 4*jobs[1].Due {
			t.Fatalf("arrival %d repeats one only %v earlier", i, gap)
		}
	}
	if got := float64(repeats) / float64(len(jobs)); got < 0.199 || got > 0.201 {
		t.Errorf("repeat share = %v, want 1/5", got)
	}
	if jobs[1].Due-jobs[0].Due != jobs[len(jobs)-1].Due-jobs[len(jobs)-2].Due {
		t.Error("arrivals are not evenly spaced")
	}
}
