package avail

import (
	"math"
	"testing"
	"testing/quick"

	"vodcluster/internal/core"
	"vodcluster/internal/stats"
)

func TestFailureModelValidate(t *testing.T) {
	if err := (FailureModel{MTBF: 3600, MTTR: 600}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (FailureModel{MTBF: 0, MTTR: 600}).Validate(); err == nil {
		t.Fatal("zero MTBF accepted")
	}
	if err := (FailureModel{MTBF: 3600, MTTR: 0}).Validate(); err == nil {
		t.Fatal("zero MTTR accepted")
	}
}

func TestSteadyStateAvailability(t *testing.T) {
	f := FailureModel{MTBF: 9000, MTTR: 1000}
	if got := f.Availability(); math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("availability %g, want 0.9", got)
	}
	if got := f.Unavailability(); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("unavailability %g, want 0.1", got)
	}
	if math.Abs(f.Availability()+f.Unavailability()-1) > 1e-12 {
		t.Fatal("availability and unavailability must sum to 1")
	}
}

func TestSampledTimesMatchMeans(t *testing.T) {
	f := FailureModel{MTBF: 5000, MTTR: 500}
	rng := stats.NewRNG(3)
	var up, down stats.Summary
	for i := 0; i < 100000; i++ {
		up.Add(f.NextUptime(rng))
		down.Add(f.NextDowntime(rng))
	}
	if math.Abs(up.Mean()-5000) > 100 {
		t.Fatalf("mean uptime %g", up.Mean())
	}
	if math.Abs(down.Mean()-500) > 10 {
		t.Fatalf("mean downtime %g", down.Mean())
	}
}

func TestVideoUnavailability(t *testing.T) {
	if got := VideoUnavailability(0.1, 1); got != 0.1 {
		t.Fatalf("r=1: %g", got)
	}
	if got := VideoUnavailability(0.1, 3); math.Abs(got-1e-3) > 1e-15 {
		t.Fatalf("r=3: %g, want 0.001", got)
	}
	if got := VideoUnavailability(0.1, 0); got != 1 {
		t.Fatalf("r=0 must be always-unavailable: %g", got)
	}
}

// TestUnavailabilityGeometricProperty: adding a replica multiplies
// unavailability by u, for arbitrary u and r.
func TestUnavailabilityGeometricProperty(t *testing.T) {
	f := func(uRaw uint8, rRaw uint8) bool {
		u := 0.01 + 0.98*float64(uRaw)/255
		r := int(rRaw%8) + 1
		a := VideoUnavailability(u, r)
		b := VideoUnavailability(u, r+1)
		return math.Abs(b-a*u) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func availProblem(t testing.TB) (*core.Problem, *core.Layout) {
	t.Helper()
	c := core.Catalog{
		{ID: 0, Popularity: 0.6, BitRate: 4 * core.Mbps, Duration: 90 * core.Minute},
		{ID: 1, Popularity: 0.4, BitRate: 4 * core.Mbps, Duration: 90 * core.Minute},
	}
	p := &core.Problem{
		Catalog:            c,
		NumServers:         3,
		StoragePerServer:   2 * c[0].SizeBytes(),
		BandwidthPerServer: core.Gbps,
		ArrivalRate:        10.0 / core.Minute,
		PeakPeriod:         90 * core.Minute,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	l := core.NewLayout(2)
	for _, pl := range []struct{ v, s int }{{0, 0}, {0, 1}, {1, 2}} {
		if err := l.Place(pl.v, pl.s); err != nil {
			t.Fatal(err)
		}
	}
	return p, l
}

func TestUnavailableRequestMass(t *testing.T) {
	p, l := availProblem(t)
	u := 0.1
	// 0.6·0.01 + 0.4·0.1 = 0.046.
	if got := UnavailableRequestMass(p, l, u); math.Abs(got-0.046) > 1e-12 {
		t.Fatalf("mass %g, want 0.046", got)
	}
	// More replication strictly reduces the mass.
	full := core.NewLayout(2)
	for v := 0; v < 2; v++ {
		for s := 0; s < 3; s++ {
			if err := full.Place(v, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	if UnavailableRequestMass(p, full, u) >= UnavailableRequestMass(p, l, u) {
		t.Fatal("full replication did not reduce unavailable mass")
	}
}

func TestExpectedServedFraction(t *testing.T) {
	p, l := availProblem(t)
	f := FailureModel{MTBF: 9000, MTTR: 1000} // u = 0.1
	got := ExpectedServedFraction(p, l, f)
	// Light load (10/min vs saturation 3·250/90 ≈ 8.3/min... capacity binds).
	if got <= 0 || got > 1 {
		t.Fatalf("served fraction %g out of range", got)
	}
	// With negligible load the bound is availability-only: 1 − 0.046.
	light := p.Clone()
	light.ArrivalRate = 0.1 / core.Minute
	if g := ExpectedServedFraction(light, l, f); math.Abs(g-0.954) > 1e-9 {
		t.Fatalf("light-load served fraction %g, want 0.954", g)
	}
}

func TestMTTDLRaid5(t *testing.T) {
	// 5 disks, MTBF 1e6 h (in seconds), rebuild 1 h.
	mttdl, err := MTTDLRaid5(5, 1e6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mttdl-1e12/20) > 1e-3 {
		t.Fatalf("MTTDL %g, want %g", mttdl, 1e12/20)
	}
	if _, err := MTTDLRaid5(2, 1e6, 1); err == nil {
		t.Fatal("2-disk RAID5 accepted")
	}
	if _, err := MTTDLRaid5(5, 0, 1); err == nil {
		t.Fatal("zero MTBF accepted")
	}
	// Bigger groups lose data sooner.
	big, _ := MTTDLRaid5(10, 1e6, 1)
	if big >= mttdl {
		t.Fatal("MTTDL must fall with group size")
	}
}

func TestDegreeForTarget(t *testing.T) {
	r, err := DegreeForTarget(0.1, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if r != 3 {
		t.Fatalf("degree %d, want 3 (0.1³ = 1e-3)", r)
	}
	r, err = DegreeForTarget(0.1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if r != 1 {
		t.Fatalf("degree %d, want 1", r)
	}
	for _, bad := range [][2]float64{{0, 0.5}, {1, 0.5}, {0.1, 0}, {0.1, 1}} {
		if _, err := DegreeForTarget(bad[0], bad[1]); err == nil {
			t.Fatalf("bad inputs %v accepted", bad)
		}
	}
	// The returned degree actually meets the target.
	for _, u := range []float64{0.05, 0.2, 0.5} {
		for _, target := range []float64{0.01, 1e-4} {
			r, err := DegreeForTarget(u, target)
			if err != nil {
				t.Fatal(err)
			}
			if VideoUnavailability(u, r) > target {
				t.Fatalf("u=%g target=%g: degree %d misses target", u, target, r)
			}
			if r > 1 && VideoUnavailability(u, r-1) <= target {
				t.Fatalf("u=%g target=%g: degree %d not minimal", u, target, r)
			}
		}
	}
}

func TestFailureEventValidate(t *testing.T) {
	if err := (FailureEvent{At: 10, Server: 0, Down: 60}).Validate(4); err != nil {
		t.Fatal(err)
	}
	if err := (FailureEvent{At: -1, Server: 0}).Validate(4); err == nil {
		t.Fatal("negative time accepted")
	}
	if err := (FailureEvent{At: 0, Server: 4}).Validate(4); err == nil {
		t.Fatal("out-of-range server accepted")
	}
	if err := (FailureEvent{At: 0, Server: -1}).Validate(4); err == nil {
		t.Fatal("negative server accepted")
	}
}
