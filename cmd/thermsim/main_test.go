package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestConfigByName(t *testing.T) {
	for _, name := range []string{"Base", "TH", "Pipe", "Fast", "3D", "3D-noTH"} {
		if err := run(io.Discard, "gzip", name, 0, 0, 1000, false, false); err != nil {
			t.Errorf("run on config %s: %v", name, err)
		}
	}
}

// TestRunSmoke runs the CLI path end to end, power and thermal models
// and heat maps included, on one planar and one stacked machine, and
// compares the report byte for byte with the one in testdata.
func TestRunSmoke(t *testing.T) {
	for _, cfg := range []string{"Base", "3D"} {
		var out bytes.Buffer
		if err := run(&out, "adpcmenc", cfg, 50_000, 10_000, 20_000, true, true); err != nil {
			t.Fatalf("run %s: %v", cfg, err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "adpcmenc-"+cfg+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("%s: report differs from testdata:\n%s", cfg, out.Bytes())
		}
	}
}

func TestRunRejectsUnknownWorkload(t *testing.T) {
	if err := run(io.Discard, "nonesuch", "3D", 0, 0, 1000, false, false); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestRunRejectsUnknownConfig(t *testing.T) {
	if err := run(io.Discard, "gzip", "frob", 0, 0, 1000, false, false); err == nil {
		t.Error("unknown config accepted")
	}
}
