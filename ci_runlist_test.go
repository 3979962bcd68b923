package thermalherd

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunPatternsNameTests keeps the hand-written `go test -run`
// lists in the CI workflow honest: a -run regex that matches no test
// passes silently, so a renamed or misspelled test would drop out of
// its smoke job unnoticed. Every Test… token in a -run pattern must be
// the prefix of a test function declared in some _test.go file.
func TestCIRunPatternsNameTests(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatalf("read the CI workflow: %v", err)
	}
	var sources strings.Builder
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, "_test.go") {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			sources.Write(src)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("read the test sources: %v", err)
	}
	patterns := regexp.MustCompile(`-run\s+(?:\\\s+)?'([^']*)'`).FindAllSubmatch(ci, -1)
	if len(patterns) == 0 {
		t.Fatal("found no -run patterns in the CI workflow")
	}
	tokens := 0
	for _, p := range patterns {
		for _, tok := range regexp.MustCompile(`Test\w*`).FindAllString(string(p[1]), -1) {
			tokens++
			decl := regexp.MustCompile(`(?m)^func ` + tok + `\w*\(`)
			if !decl.MatchString(sources.String()) {
				t.Errorf("CI -run pattern %q names %s, which matches no test function", p[1], tok)
			}
		}
	}
	if tokens == 0 {
		t.Fatal("the CI -run patterns name no tests")
	}
}
