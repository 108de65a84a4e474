package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOutputPinned pins vodplace's two outputs at the defaults: the
// -verbose stdout, per-video replica counts and servers included, must match
// testdata/verbose.txt, and the -out plan file testdata/plan.json, byte for
// byte. `make digests` rewrites both when a change means to move the plan.
func TestOutputPinned(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-verbose"}, &out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/verbose.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("-verbose output diverged from testdata/verbose.txt%s", firstDiff(out.String(), string(want)))
	}

	path := filepath.Join(t.TempDir(), "plan.json")
	if err := run([]string{"-out", path}, &out); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want, err = os.ReadFile("testdata/plan.json"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("-out plan diverged from testdata/plan.json%s", firstDiff(string(got), string(want)))
	}
}

func TestBadFlag(t *testing.T) {
	if err := run([]string{"-no-such-flag"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

// firstDiff describes the first line where got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < max(len(g), len(w)); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("\nline %d:\n got: %s\nwant: %s", i+1, gl, wl)
		}
	}
	return ""
}
