package trace

import "testing"

func TestSuiteHas106Workloads(t *testing.T) {
	s := Suite()
	if len(s) != SuiteSize {
		t.Errorf("suite size = %d, want %d", len(s), SuiteSize)
	}
}

func TestSuiteNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range Suite() {
		if seen[p.Name] {
			t.Errorf("duplicate workload name %q", p.Name)
		}
		seen[p.Name] = true
	}
}

func TestSuiteProfilesValidate(t *testing.T) {
	for _, p := range Suite() {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", p.Name, err)
		}
	}
}

func TestSuiteCoversAllGroups(t *testing.T) {
	counts := map[Group]int{}
	for _, p := range Suite() {
		counts[p.Group]++
	}
	for _, g := range Groups() {
		if counts[g] == 0 {
			t.Errorf("group %v has no workloads", g)
		}
	}
	// The paper's full SPEC suites.
	if counts[GroupSPECint] != 12 {
		t.Errorf("SPECint2000 has %d workloads, want 12", counts[GroupSPECint])
	}
	if counts[GroupSPECfp] != 14 {
		t.Errorf("SPECfp2000 has %d workloads, want 14", counts[GroupSPECfp])
	}
}

func TestProfileByName(t *testing.T) {
	for _, name := range []string{"mcf", "crafty", "patricia", "mpeg2enc", "yacr2", "susan_s"} {
		p, err := ProfileByName(name)
		if err != nil {
			t.Errorf("ProfileByName(%s): %v", name, err)
			continue
		}
		if p.Name != name {
			t.Errorf("ProfileByName(%s).Name = %s", name, p.Name)
		}
	}
	if _, err := ProfileByName("nonesuch"); err == nil {
		t.Error("unknown benchmark not rejected")
	}
}

func TestSuiteReturnsCopy(t *testing.T) {
	s := Suite()
	want, err := ProfileByName(s[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	s[0].WorkingSet, s[0].Seed = 1, 7
	s[1].Name = "clobbered"
	if got, _ := ProfileByName(want.Name); got != want {
		t.Errorf("ProfileByName after mutating Suite()'s slice = %+v, want %+v", got, want)
	}
	if Names()[1] == "clobbered" || Suite()[1].Name == "clobbered" {
		t.Error("mutating Suite()'s slice renamed a shared workload")
	}
	if GroupProfiles(want.Group)[0] != want {
		t.Error("mutating Suite()'s slice changed GroupProfiles")
	}
}

func TestPaperCalloutCharacteristics(t *testing.T) {
	mcf, _ := ProfileByName("mcf")
	crafty, _ := ProfileByName("crafty")
	if mcf.WorkingSet <= crafty.WorkingSet {
		t.Error("mcf must be far more memory-hungry than crafty")
	}
	if mcf.HotFrac >= crafty.HotFrac {
		t.Error("mcf must have worse locality than crafty")
	}
	yacr2, _ := ProfileByName("yacr2")
	susan, _ := ProfileByName("susan_s")
	if yacr2.WorkingSet <= susan.WorkingSet {
		t.Error("yacr2 must be more memory-intensive than susan")
	}
	if susan.LowWidthStaticFrac <= yacr2.LowWidthStaticFrac {
		t.Error("susan (16-bit image data) should be more low-width than yacr2")
	}
	// SPECfp must be the most memory-bound group on average, matching
	// the paper's explanation for its low speedup.
	avgWS := func(g Group) float64 {
		var sum float64
		ps := GroupProfiles(g)
		for _, p := range ps {
			sum += float64(p.WorkingSet)
		}
		return sum / float64(len(ps))
	}
	fp := avgWS(GroupSPECfp)
	for _, g := range []Group{GroupSPECint, GroupMediaBench, GroupMiBench, GroupGraphics} {
		if avgWS(g) >= fp {
			t.Errorf("group %v average working set >= SPECfp", g)
		}
	}
}

func TestGroupProfilesPartition(t *testing.T) {
	total := 0
	for _, g := range Groups() {
		total += len(GroupProfiles(g))
	}
	if total != len(Suite()) {
		t.Errorf("group partition covers %d, suite has %d", total, len(Suite()))
	}
}

func TestGroupStrings(t *testing.T) {
	want := []string{"SPECint2000", "SPECfp2000", "MediaBench", "MiBench", "Pointer", "Graphics", "Bio"}
	for i, g := range Groups() {
		if g.String() != want[i] {
			t.Errorf("group %d String() = %q, want %q", i, g.String(), want[i])
		}
	}
}

func TestSeedsDeterministicAndDistinct(t *testing.T) {
	if seedFor("mcf") != seedFor("mcf") {
		t.Error("seedFor not deterministic")
	}
	if seedFor("mcf") == seedFor("gcc") {
		t.Error("seed collision between mcf and gcc")
	}
}

func TestGeneratorWorksForAllSuiteProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("suite-wide generation is slow")
	}
	for _, p := range Suite() {
		insts := Collect(NewGenerator(p), 2000)
		if len(insts) != 2000 {
			t.Errorf("%s: generated %d insts, want 2000", p.Name, len(insts))
		}
	}
}
