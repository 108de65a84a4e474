package obs

import (
	"testing"
	"time"
)

// TestNewManifest: the manifest pins every environment field a perf-delta
// investigation starts from.
func TestNewManifest(t *testing.T) {
	m := NewManifest()
	if _, err := time.Parse(time.RFC3339, m.Generated); err != nil {
		t.Fatalf("Generated %q is not RFC3339: %v", m.Generated, err)
	}
	if m.GitSHA == "" {
		t.Fatal("GitSHA empty; want a revision or \"unknown\"")
	}
	if m.GoVersion == "" || m.OS == "" || m.Arch == "" || m.CPUModel == "" {
		t.Fatalf("incomplete manifest: %+v", m)
	}
	if m.NumCPU < 1 || m.GOMAXPROCS < 1 {
		t.Fatalf("cpu counts: NumCPU=%d GOMAXPROCS=%d", m.NumCPU, m.GOMAXPROCS)
	}
}
