package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestQuickOutputDigest pins vodbench's whole quick output: every figure of
// `vodbench -fig all -quick -seed 42`, tables and charts, run in-process at
// one worker and at four, must match testdata/all_quick_seed42.txt byte for
// byte. Any change to seed derivation, event ordering, a figure's
// parameters, or table and chart formatting fails here; `make digests`
// rewrites the file when a change means to move the figures.
func TestQuickOutputDigest(t *testing.T) {
	want, err := os.ReadFile("testdata/all_quick_seed42.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []string{"1", "4"} {
		fig, cfg := parseArgs("vodbench", []string{"-fig", "all", "-quick", "-seed", "42", "-workers", workers})
		var buf bytes.Buffer
		cfg.emit.Out = &buf
		if err := runFigure(fig, cfg); err != nil {
			t.Fatalf("workers %s: %v", workers, err)
		}
		if got := buf.Bytes(); !bytes.Equal(got, want) {
			t.Fatalf("workers %s: output diverged from testdata/all_quick_seed42.txt%s",
				workers, firstDiff(string(got), string(want)))
		}
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
