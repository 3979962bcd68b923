package cpu

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"thermalherd/internal/config"
	"thermalherd/internal/trace"
)

// statsDigest runs workload under the named configuration through the
// experiments' FastForward → Warmup → Run sequence and returns the
// SHA-256 of the JSON-encoded Stats.
func statsDigest(t testing.TB, cfgName, workload string, ff, warm, measure uint64) string {
	t.Helper()
	cfg, err := config.ByName(cfgName)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := trace.ProfileByName(workload)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(cfg, trace.NewGenerator(prof))
	if err != nil {
		t.Fatal(err)
	}
	c.FastForward(ff)
	c.Warmup(warm)
	b, err := json.Marshal(c.Run(measure))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestStatsDigestsPinned pins the complete Stats of a cycle-level run
// for every configuration, on compute-bound and memory-bound workloads.
// Any change to the timing model's results, however small, changes a
// digest. The digests were generated with the original full-ROB-scan
// issue logic, before the wait list, completion heap and idle-cycle
// skip replaced it; they must not be regenerated for a speed change.
func TestStatsDigestsPinned(t *testing.T) {
	const ff, warm, measure = 50_000, 10_000, 40_000
	cases := []struct {
		cfg, workload, digest string
	}{
		{"Base", "gzip", "9cdbc27924613608906d75aaac0bc6c8e774479d1455457e4de8e0c2ac585672"},
		{"TH", "mcf", "c64b79be5c2dd884d7919e2e912322eedcf4f7e45362f7a140be05acab947aaa"},
		{"Pipe", "swim", "43868341a79fdf727ef4b134001269db66a2209c448d998ca2700aca10b62c0e"},
		{"Fast", "bitcount", "91700369ff284e9c03684ec6b222d8b5480e2d81bc1e54238c366ecde7307a56"},
		{"3D", "mcf", "ea71f068526e331d746eefe84d9ca8e02be38ee2f7914f560b0695f5f0f36f8a"},
		{"3D", "swim", "f96aa32feb058817a508bde7b2c6f7447345e3c2c54b4dbb75af8adb5958b579"},
		{"3D-noTH", "gcc", "13c3eb92982a3d69c1248c905f1cddfd50812a098ffe8d0bb4985614e600a8fa"},
		{"TH", "mpeg2enc", "7cdc45bf321aaa0ccc0333446021bb2559cfd26533b3b6034895ba16e4184af7"},
	}
	for _, tc := range cases {
		if got := statsDigest(t, tc.cfg, tc.workload, ff, warm, measure); got != tc.digest {
			t.Errorf("%s/%s: Stats digest %s, want %s", tc.cfg, tc.workload, got, tc.digest)
		}
	}
}
