package vodcluster_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// modelPackages are the packages under internal/ whose results follow from
// their inputs and seeds alone, so they may read no clock and draw no
// randomness but what a stats.RNG hands them.
var modelPackages = []string{
	"sim", "cluster", "anneal", "place", "replicate", "apportion", "zipf", "workload",
	"exp", "resilience", "demand", "dynrep", "analytic", "policy", "core", "metrics",
}

// wrapsRand is the one file that may import math/rand: the stats.RNG
// wrapper every seeded stream goes through.
const wrapsRand = "internal/stats/rng.go"

// importViolations parses the import blocks of the non-test Go files under
// root and lists every import that breaks the rule: a model package
// importing time, math/rand or math/rand/v2, or any file but wrapsRand
// importing math/rand or math/rand/v2. It skips testdata, dot directories
// and nested modules.
func importViolations(root string) ([]string, error) {
	var bad []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		parts := strings.Split(rel, "/")
		model := len(parts) > 2 && parts[0] == "internal" && slices.Contains(modelPackages, parts[1])
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			random := p == "math/rand" || p == "math/rand/v2"
			if (model && (random || p == "time")) || (random && rel != wrapsRand) {
				bad = append(bad, rel+" imports "+p)
			}
		}
		return nil
	})
	return bad, err
}

// TestModelPackagesImportNoClockOrRandom holds the model packages to their
// inputs and seeds: none imports time or math/rand, and only wrapsRand
// wraps math/rand.
func TestModelPackagesImportNoClockOrRandom(t *testing.T) {
	for _, p := range modelPackages {
		if _, err := os.Stat(filepath.Join("internal", p)); err != nil {
			t.Errorf("model package %s: %v", p, err)
		}
	}
	bad, err := importViolations(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bad {
		t.Error(b)
	}
}

// TestImportCheckCatchesViolations plants files in a temporary tree and
// sees the check flag exactly the ones that break the rule.
func TestImportCheckCatchesViolations(t *testing.T) {
	root := t.TempDir()
	for path, imp := range map[string]string{
		"internal/sim/clock.go":        "time",         // a model package reads the clock
		"internal/anneal/draw.go":      "math/rand/v2", // a model package draws its own randomness
		"internal/serve/jitter.go":     "math/rand",    // randomness outside the wrapper
		"internal/serve/deadline.go":   "time",         // the daemon may read the clock
		"internal/stats/rng.go":        "math/rand",    // the wrapper
		"internal/sim/clock_test.go":   "time",         // tests are not checked
		"internal/sim/testdata/x.go":   "time",         // nor testdata
		"nested/internal/sim/clock.go": "time",         // nor another module
		"nested/go.mod":                "",
	} {
		src := "package x\n\nimport \"" + imp + "\"\n"
		if imp == "" {
			src = "module nested\n"
		}
		full := filepath.Join(root, filepath.FromSlash(path))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	bad, err := importViolations(root)
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(bad)
	want := []string{
		"internal/anneal/draw.go imports math/rand/v2",
		"internal/serve/jitter.go imports math/rand",
		"internal/sim/clock.go imports time",
	}
	if !slices.Equal(bad, want) {
		t.Fatalf("flagged %q, want %q", bad, want)
	}
}
