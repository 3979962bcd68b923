package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"thermalherd/internal/config"
	"thermalherd/internal/floorplan"
	"thermalherd/internal/power"
	"thermalherd/internal/thermal"
)

// digest accumulates float64 bit patterns, ints and strings into one
// SHA-256.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{sha256.New()} }

func (d *digest) f(vs ...float64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		d.h.Write(buf[:])
	}
}

func (d *digest) i(v int) { d.f(float64(v)) }

func (d *digest) s(v string) { d.h.Write([]byte(v)) }

func (d *digest) field(sol *thermal.Solution) {
	for _, layer := range sol.T {
		d.f(layer...)
	}
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// TestPipelineDigestsPinned pins the machine→power→thermal pipeline bit
// for bit at quick depth: every Breakdown scalar and per-unit power (in
// floorplan order) and every temperature cell of the steady-state solve
// on the planar and the stacked machine, and the outputs of the
// extension studies built on the same path. A refactor of that path
// must leave every digest unchanged.
func TestPipelineDigestsPinned(t *testing.T) {
	const wl = "mpeg2enc"
	r := quickRunner()
	got := map[string]string{}
	for _, cfg := range []config.Machine{config.Baseline(), config.ThreeD()} {
		b, err := r.PowerFor(cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		sol, fp, err := r.SolveThermal(cfg, b)
		if err != nil {
			t.Fatal(err)
		}
		d := newDigest()
		d.f(b.DynamicW, b.ClockW, b.LeakageW, b.TotalW)
		d.f(b.BlockW[:]...)
		for _, u := range fp.Units {
			d.f(b.UnitW[power.UnitKey{Block: u.Block, Core: u.Core, Die: u.Die}])
		}
		d.field(sol)
		d.i(sol.Iterations)
		got["solve/"+cfg.Name] = d.sum()
	}

	lf, err := LeakageFeedback(r, config.ThreeD(), wl)
	if err != nil {
		t.Fatal(err)
	}
	d := newDigest()
	d.f(lf.PeakNoFeedbackK, lf.PeakK, lf.LeakageW)
	d.i(lf.Iterations)
	d.s(lf.String())
	got["leakage"] = d.sum()

	tr, err := ThermalTransient(r, wl, 10.0)
	if err != nil {
		t.Fatal(err)
	}
	d = newDigest()
	d.f(tr.TimesS...)
	d.f(tr.PeakK...)
	d.field(tr.Final)
	got["transient"] = d.sum()

	planarK, densityK, err := DensityStudy(r, wl)
	if err != nil {
		t.Fatal(err)
	}
	d = newDigest()
	d.f(planarK, densityK)
	got["density"] = d.sum()

	const occ = 0.25
	tab, err := AblationD2DResistance(r, wl, []float64{occ})
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.PowerFor(config.ThreeD(), wl)
	if err != nil {
		t.Fatal(err)
	}
	stack, err := buildStackedWithD2DK(floorplan.Stacked(), b, occ*395.0+(1-occ)*0.026, r.opts.Grid)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := stack.Solve()
	if err != nil {
		t.Fatal(err)
	}
	d = newDigest()
	d.s(tab.String())
	d.field(sol)
	got["d2d"] = d.sum()

	for name, want := range pipelineDigests {
		if got[name] != want {
			t.Errorf("%s: digest %s, want %s", name, got[name], want)
		}
	}
	if len(got) != len(pipelineDigests) {
		t.Errorf("%d digests computed, %d pinned", len(got), len(pipelineDigests))
	}
}

var pipelineDigests = map[string]string{
	"solve/Base": "16d08b0e42305c8d9457ba188bb42a8f519fe09b03d07f36b5cd9128f65a4efa",
	"solve/3D":   "c5a8dc8c8da2f27c708838fb3d58d01c55ae7dd518fce72b1d99dbdc7e0e685b",
	"leakage":    "b760eeb20cf52549f098791b3dcdb1ed86bca747bcb286ea52377fced5fe6a25",
	"transient":  "49547955167f2f5532174f4492fbea814bd4a46e31e462eb26fa7e666666f93e",
	"density":    "578430383090fe8b56894a7fd54306af1f551a3110ea6a513e7f692d5fc06d40",
	"d2d":        "67838afe0f3369c197361b0e391a6a9a54d67f2e7474da4f085f9dcaac6fd164",
}
