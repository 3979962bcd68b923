package trace

import (
	"fmt"
	"hash/fnv"
	"slices"
)

// This file defines the 106 named workload profiles standing in for the
// paper's trace collection: "all benchmarks from SpecInt2000 and
// SpecFP2000 with the reference inputs, and a variety of programs from
// MediaBench, the Michigan embedded benchmarks [MiBench], the Wisconsin
// pointer-intensive benchmarks, assorted graphics programs ... and the
// BioBench and BioPerf bioinformatics benchmark suites."
//
// Group-level parameter defaults encode each suite's well-known
// character; per-benchmark overrides encode the individuals the paper
// calls out (mcf's memory-boundedness, crafty's compute intensity,
// patricia's small footprint, mpeg2's high activity, yacr2's memory
// intensity, susan's computation intensity).

func seedFor(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int64(h.Sum64() & 0x7fff_ffff_ffff_ffff)
}

func baseProfile(g Group) Profile {
	p := Profile{
		Group:       g,
		StaticInsts: 12288,
		DepDistMean: 2.5,
	}
	switch g {
	case GroupSPECint:
		p.FracLoad, p.FracStore = 0.24, 0.12
		p.FracBranch, p.FracJump = 0.13, 0.02
		p.FracShift, p.FracMulDiv = 0.06, 0.02
		p.LowWidthStaticFrac = 0.75
		p.PtrLoadFrac, p.NegValFrac = 0.10, 0.05
		p.WorkingSet, p.HotFrac, p.StackFrac = 1<<20, 0.92, 0.30
		p.HardBranchFrac, p.FarTargetFrac = 0.08, 0.05
	case GroupSPECfp:
		p.FracLoad, p.FracStore = 0.28, 0.12
		p.FracBranch, p.FracJump = 0.05, 0.01
		p.FracShift, p.FracMulDiv = 0.03, 0.01
		p.FracFPAdd, p.FracFPMul, p.FracFPDiv = 0.17, 0.13, 0.02
		p.LowWidthStaticFrac = 0.55
		p.PtrLoadFrac, p.NegValFrac = 0.04, 0.03
		p.WorkingSet, p.HotFrac, p.StackFrac = 16<<20, 0.80, 0.08
		p.HardBranchFrac, p.FarTargetFrac = 0.02, 0.02
		p.DepDistMean = 4.5
		p.StaticInsts = 8192
	case GroupMediaBench:
		p.FracLoad, p.FracStore = 0.22, 0.10
		p.FracBranch, p.FracJump = 0.10, 0.02
		p.FracShift, p.FracMulDiv = 0.10, 0.05
		p.FracFPAdd, p.FracFPMul = 0.02, 0.02
		p.LowWidthStaticFrac = 0.86
		p.PtrLoadFrac, p.NegValFrac = 0.05, 0.08
		p.WorkingSet, p.HotFrac, p.StackFrac = 256<<10, 0.95, 0.20
		p.HardBranchFrac, p.FarTargetFrac = 0.05, 0.04
		p.DepDistMean = 3.0
		p.StaticInsts = 6144
	case GroupMiBench:
		p.FracLoad, p.FracStore = 0.23, 0.11
		p.FracBranch, p.FracJump = 0.13, 0.02
		p.FracShift, p.FracMulDiv = 0.08, 0.03
		p.LowWidthStaticFrac = 0.85
		p.PtrLoadFrac, p.NegValFrac = 0.06, 0.06
		p.WorkingSet, p.HotFrac, p.StackFrac = 128<<10, 0.96, 0.25
		p.HardBranchFrac, p.FarTargetFrac = 0.06, 0.04
		p.StaticInsts = 4096
	case GroupPointer:
		p.FracLoad, p.FracStore = 0.30, 0.12
		p.FracBranch, p.FracJump = 0.13, 0.03
		p.FracShift, p.FracMulDiv = 0.04, 0.01
		p.LowWidthStaticFrac = 0.60
		p.PtrLoadFrac, p.NegValFrac = 0.35, 0.04
		p.WorkingSet, p.HotFrac, p.StackFrac = 1<<20, 0.90, 0.15
		p.HardBranchFrac, p.FarTargetFrac = 0.10, 0.06
		p.StaticInsts = 6144
	case GroupGraphics:
		p.FracLoad, p.FracStore = 0.24, 0.11
		p.FracBranch, p.FracJump = 0.10, 0.02
		p.FracShift, p.FracMulDiv = 0.06, 0.03
		p.FracFPAdd, p.FracFPMul, p.FracFPDiv = 0.07, 0.07, 0.01
		p.LowWidthStaticFrac = 0.72
		p.PtrLoadFrac, p.NegValFrac = 0.08, 0.05
		p.WorkingSet, p.HotFrac, p.StackFrac = 1<<20, 0.92, 0.18
		p.HardBranchFrac, p.FarTargetFrac = 0.07, 0.05
		p.StaticInsts = 10240
	case GroupBio:
		p.FracLoad, p.FracStore = 0.26, 0.09
		p.FracBranch, p.FracJump = 0.12, 0.02
		p.FracShift, p.FracMulDiv = 0.07, 0.02
		p.LowWidthStaticFrac = 0.90
		p.PtrLoadFrac, p.NegValFrac = 0.05, 0.03
		p.WorkingSet, p.HotFrac, p.StackFrac = 2<<20, 0.90, 0.12
		p.HardBranchFrac, p.FarTargetFrac = 0.06, 0.03
		p.StaticInsts = 8192
	}
	return p
}

// tweak mutates a copy of a base profile.
type tweak func(*Profile)

func mk(name string, g Group, tweaks ...tweak) Profile {
	p := baseProfile(g)
	p.Name = name
	p.Seed = seedFor(name)
	for _, t := range tweaks {
		t(&p)
	}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return p
}

func ws(bytes uint64) tweak  { return func(p *Profile) { p.WorkingSet = bytes } }
func hot(f float64) tweak    { return func(p *Profile) { p.HotFrac = f } }
func lowW(f float64) tweak   { return func(p *Profile) { p.LowWidthStaticFrac = f } }
func ptr(f float64) tweak    { return func(p *Profile) { p.PtrLoadFrac = f } }
func hard(f float64) tweak   { return func(p *Profile) { p.HardBranchFrac = f } }
func dep(f float64) tweak    { return func(p *Profile) { p.DepDistMean = f } }
func branch(f float64) tweak { return func(p *Profile) { p.FracBranch = f } }
func loads(f float64) tweak  { return func(p *Profile) { p.FracLoad = f } }

// suite holds the 106 workload profiles, built once: admission and
// every simulation look a workload up by name.
var suite = buildSuite()

// Suite returns all 106 workload profiles, in a slice the caller owns.
func Suite() []Profile { return slices.Clone(suite) }

func buildSuite() []Profile {
	var s []Profile

	// SPECint2000: 12 benchmarks.
	s = append(s,
		mk("gzip", GroupSPECint, ws(1<<20), lowW(0.82)),
		mk("vpr", GroupSPECint, ws(1<<20), hard(0.10)),
		mk("gcc", GroupSPECint, ws(2<<20), hot(0.93), hard(0.09), branch(0.15)),
		// mcf: the paper's minimum-speedup benchmark — dominated by
		// DRAM latency (huge, poorly cached working set).
		mk("mcf", GroupSPECint, ws(160<<20), hot(0.25), loads(0.32), ptr(0.30), dep(1.8)),
		// crafty: compute-bound with a cache-resident footprint; one of
		// the paper's largest speedups.
		mk("crafty", GroupSPECint, ws(256<<10), hot(0.97), lowW(0.78), branch(0.15)),
		mk("parser", GroupSPECint, ws(1<<20), hot(0.92), ptr(0.18), hard(0.09)),
		mk("eon", GroupSPECint, ws(1<<20), hot(0.95), dep(3.0)),
		mk("perlbmk", GroupSPECint, ws(1<<20), branch(0.15), hard(0.08)),
		mk("gap", GroupSPECint, ws(2<<20), hot(0.90)),
		mk("vortex", GroupSPECint, ws(1<<20), ptr(0.16)),
		mk("bzip2", GroupSPECint, ws(1<<20), lowW(0.84), hot(0.93)),
		mk("twolf", GroupSPECint, ws(1<<20), hot(0.93), hard(0.09)),
	)

	// SPECfp2000: 14 benchmarks, generally memory-bound FP.
	s = append(s,
		mk("wupwise", GroupSPECfp, ws(8<<20), hot(0.88)),
		mk("swim", GroupSPECfp, ws(48<<20), hot(0.58)),
		mk("mgrid", GroupSPECfp, ws(16<<20), hot(0.76)),
		mk("applu", GroupSPECfp, ws(40<<20), hot(0.62)),
		mk("mesa", GroupSPECfp, ws(1<<20), hot(0.92), lowW(0.68)),
		mk("galgel", GroupSPECfp, ws(8<<20), hot(0.88)),
		mk("art", GroupSPECfp, ws(32<<20), hot(0.55), loads(0.32)),
		mk("equake", GroupSPECfp, ws(16<<20), hot(0.80)),
		mk("facerec", GroupSPECfp, ws(8<<20), hot(0.88)),
		mk("ammp", GroupSPECfp, ws(8<<20), hot(0.85), ptr(0.10)),
		mk("lucas", GroupSPECfp, ws(32<<20), hot(0.62)),
		mk("fma3d", GroupSPECfp, ws(12<<20), hot(0.84)),
		mk("sixtrack", GroupSPECfp, ws(2<<20), hot(0.90)),
		mk("apsi", GroupSPECfp, ws(8<<20), hot(0.86)),
	)

	// MediaBench: 14 kernels.
	s = append(s,
		// mpeg2enc: the paper's peak-power application — high activity,
		// compute-bound 16-bit media arithmetic.
		mk("mpeg2enc", GroupMediaBench, ws(512<<10), hot(0.95), lowW(0.90), dep(3.5)),
		mk("mpeg2dec", GroupMediaBench, ws(512<<10), lowW(0.90)),
		mk("jpegenc", GroupMediaBench, ws(256<<10), lowW(0.88)),
		mk("jpegdec", GroupMediaBench, ws(256<<10), lowW(0.88)),
		mk("epic", GroupMediaBench, ws(256<<10)),
		mk("unepic", GroupMediaBench, ws(256<<10)),
		mk("gsmenc", GroupMediaBench, ws(128<<10), lowW(0.92)),
		mk("gsmdec", GroupMediaBench, ws(128<<10), lowW(0.92)),
		mk("g721enc", GroupMediaBench, ws(64<<10), lowW(0.93)),
		mk("g721dec", GroupMediaBench, ws(64<<10), lowW(0.93)),
		mk("pegwitenc", GroupMediaBench, ws(256<<10), lowW(0.60)),
		mk("pegwitdec", GroupMediaBench, ws(256<<10), lowW(0.60)),
		mk("adpcmenc", GroupMediaBench, ws(64<<10), lowW(0.95)),
		mk("adpcmdec", GroupMediaBench, ws(64<<10), lowW(0.95)),
	)

	// MiBench: 20 benchmarks.
	s = append(s,
		// susan (smoothing): the paper's maximum power saving —
		// computation-intensive image processing.
		mk("susan_s", GroupMiBench, ws(256<<10), hot(0.97), lowW(0.92), dep(3.5)),
		mk("susan_e", GroupMiBench, ws(256<<10), lowW(0.90)),
		mk("susan_c", GroupMiBench, ws(256<<10), lowW(0.90)),
		// patricia: the paper's maximum speedup (77%).
		mk("patricia", GroupMiBench, ws(128<<10), hot(0.97), branch(0.16), lowW(0.88), dep(2.2)),
		mk("dijkstra", GroupMiBench, ws(256<<10), hot(0.95)),
		mk("qsort", GroupMiBench, ws(256<<10), hard(0.12)),
		mk("bitcount", GroupMiBench, ws(64<<10), lowW(0.95)),
		mk("basicmath", GroupMiBench, ws(64<<10)),
		mk("stringsearch", GroupMiBench, ws(128<<10), lowW(0.93)),
		mk("sha", GroupMiBench, ws(64<<10), lowW(0.55)),
		mk("crc32", GroupMiBench, ws(64<<10), lowW(0.50)),
		mk("fft", GroupMiBench, ws(256<<10)),
		mk("ifft", GroupMiBench, ws(256<<10)),
		mk("blowfish_e", GroupMiBench, ws(128<<10), lowW(0.55)),
		mk("blowfish_d", GroupMiBench, ws(128<<10), lowW(0.55)),
		mk("rijndael_e", GroupMiBench, ws(128<<10), lowW(0.55)),
		mk("rijndael_d", GroupMiBench, ws(128<<10), lowW(0.55)),
		mk("jpeg_mi", GroupMiBench, ws(256<<10), lowW(0.88)),
		mk("lame", GroupMiBench, ws(512<<10)),
		mk("gsm_mi", GroupMiBench, ws(128<<10), lowW(0.92)),
	)

	// Wisconsin pointer-intensive (+ Olden-style): 10 benchmarks.
	s = append(s,
		mk("anagram", GroupPointer, ws(1<<20)),
		mk("bc", GroupPointer, ws(1<<20), hot(0.85)),
		mk("ft", GroupPointer, ws(2<<20)),
		mk("ks", GroupPointer, ws(1<<20)),
		// yacr2: the paper's minimum power saving and the TH worst-case
		// thermal application — memory-intensive, D-cache hammering.
		mk("yacr2", GroupPointer, ws(48<<20), hot(0.45), loads(0.36), dep(2.0)),
		mk("tsp", GroupPointer, ws(2<<20)),
		mk("treeadd", GroupPointer, ws(2<<20), ptr(0.45)),
		mk("mst", GroupPointer, ws(2<<20), ptr(0.40)),
		mk("perimeter", GroupPointer, ws(2<<20), ptr(0.45)),
		mk("health", GroupPointer, ws(2<<20), ptr(0.40), hot(0.85)),
	)

	// Graphics (SimpleScalar-website assortment): 12 programs.
	s = append(s,
		mk("doom", GroupGraphics, ws(1<<20), lowW(0.80)),
		mk("quake", GroupGraphics, ws(2<<20)),
		mk("glquake", GroupGraphics, ws(2<<20)),
		mk("raytrace", GroupGraphics, ws(2<<20), dep(3.5)),
		mk("povray", GroupGraphics, ws(1<<20), dep(3.5)),
		mk("mpegplay", GroupGraphics, ws(512<<10), lowW(0.85)),
		mk("aviplay", GroupGraphics, ws(512<<10), lowW(0.85)),
		mk("gears", GroupGraphics, ws(1<<20), hot(0.92)),
		mk("osdemo", GroupGraphics, ws(2<<20)),
		mk("texgen", GroupGraphics, ws(1<<20)),
		mk("anim", GroupGraphics, ws(2<<20)),
		mk("morph3d", GroupGraphics, ws(2<<20)),
	)

	// BioBench + BioPerf: 24 benchmarks.
	s = append(s,
		mk("blastn", GroupBio, ws(4<<20), hot(0.92)),
		mk("blastp", GroupBio, ws(4<<20), hot(0.92)),
		mk("clustalw", GroupBio, ws(2<<20), hot(0.90)),
		mk("hmmer", GroupBio, ws(2<<20), lowW(0.88)),
		mk("hmmpfam", GroupBio, ws(2<<20), lowW(0.88)),
		mk("fasta_dna", GroupBio, ws(2<<20)),
		mk("fasta_prot", GroupBio, ws(2<<20)),
		mk("mummer", GroupBio, ws(8<<20), hot(0.90), ptr(0.20)),
		mk("tigr", GroupBio, ws(4<<20), hot(0.90)),
		mk("phylip", GroupBio, ws(1<<20), hot(0.92)),
		mk("grappa", GroupBio, ws(2<<20)),
		mk("ce", GroupBio, ws(2<<20)),
		mk("glimmer", GroupBio, ws(2<<20), ptr(0.15)),
		mk("predator", GroupBio, ws(2<<20)),
		mk("tcoffee", GroupBio, ws(2<<20)),
		mk("dnapenny", GroupBio, ws(1<<20), hot(0.94)),
		mk("promlk", GroupBio, ws(2<<20)),
		mk("seqgen", GroupBio, ws(1<<20)),
		mk("clustalw_smp", GroupBio, ws(2<<20), hot(0.90)),
		mk("blat", GroupBio, ws(4<<20), hot(0.90)),
		mk("sim4", GroupBio, ws(2<<20)),
		mk("spsearch", GroupBio, ws(2<<20)),
		mk("ssearch", GroupBio, ws(2<<20), lowW(0.92)),
		mk("wise2", GroupBio, ws(2<<20)),
	)

	return s
}

// SuiteSize is the expected number of workloads, matching the paper's
// "collection of 106 application traces".
const SuiteSize = 106

// Names returns every suite workload name in suite order.
func Names() []string {
	names := make([]string, len(suite))
	for i, p := range suite {
		names[i] = p.Name
	}
	return names
}

// ProfileByName finds a workload profile by benchmark name.
func ProfileByName(name string) (Profile, error) {
	for _, p := range suite {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("trace: unknown benchmark %q", name)
}

// GroupProfiles returns the profiles belonging to group g.
func GroupProfiles(g Group) []Profile {
	var out []Profile
	for _, p := range suite {
		if p.Group == g {
			out = append(out, p)
		}
	}
	return out
}

// Groups returns all benchmark groups in figure order.
func Groups() []Group {
	gs := make([]Group, NumGroups)
	for i := range gs {
		gs[i] = Group(i)
	}
	return gs
}
