package anneal

import (
	"fmt"
	"reflect"
	"testing"

	"vodcluster/internal/core"
	"vodcluster/internal/stats"
)

// referenceEvaluate is Evaluate as it was before it collected each row's
// holders: two full scans of every row of the layout's cells.
func referenceEvaluate(bp *BitRateProblem, l *BitRateLayout) Eval {
	var e Eval
	p := bp.P
	m, n := p.M(), p.N()
	peak := p.PeakRequests()
	storage := make([]float64, n)
	demand := make([]float64, n)
	totalCopies := 0
	for v := 0; v < m; v++ {
		copies := 0
		rateSum := 0.0
		for s := 0; s < n; s++ {
			if l.Rate(v, s) >= 0 {
				copies++
				rateSum += bp.RateSet[l.Rate(v, s)]
			}
		}
		if copies == 0 {
			e.Orphans++
			continue
		}
		totalCopies += copies
		e.MeanRateMbps += rateSum / float64(copies) / core.Mbps
		w := p.Catalog[v].Popularity * peak / float64(copies)
		for s := 0; s < n; s++ {
			ri := l.Rate(v, s)
			if ri < 0 {
				continue
			}
			storage[s] += bp.copySizeBytes(v, ri)
			demand[s] += w * bp.RateSet[ri]
		}
	}
	e.MeanRateMbps /= float64(m)
	e.Degree = float64(totalCopies) / float64(m)
	for s := 0; s < n; s++ {
		if over := storage[s] - p.StorageOf(s); over > 0 {
			e.StorageViolation += over
		}
		if over := demand[s] - p.BandwidthOf(s); over > 0 {
			e.BandwidthViolation += over
		}
	}
	e.Imbalance = core.ImbalanceMax(demand)
	obj := bp.objective()
	e.Objective = e.MeanRateMbps + obj.Alpha*e.Degree - obj.Beta*e.Imbalance
	return e
}

// referenceRebuild is brCache.rebuild as it was: video-major, appending each
// (video, server) cell to that server's on or off list in d as it goes, so
// the N position and off tables are written as N interleaved strided
// streams. It sets c's accumulators and leaves c's lists alone.
func referenceRebuild(c *brCache, d *denseLists, l *BitRateLayout) {
	bp := c.bp
	m, n := bp.P.M(), bp.P.N()
	for s := 0; s < n; s++ {
		c.storage[s] = 0
		c.demand[s] = 0
		d.on[s] = d.on[s][:0]
		d.off[s] = d.off[s][:0]
	}
	c.qualitySum = 0
	c.totalCopies = 0
	c.orphans = 0
	for v := 0; v < m; v++ {
		copies := int32(0)
		rateSum := 0.0
		for s := 0; s < n; s++ {
			if ri := l.Rate(v, s); ri >= 0 {
				copies++
				rateSum += bp.RateSet[ri]
				d.pos[s][v] = int32(len(d.on[s]))
				d.on[s] = append(d.on[s], int32(v))
			} else {
				d.pos[s][v] = int32(len(d.off[s]))
				d.off[s] = append(d.off[s], int32(v))
			}
		}
		c.copies[v] = copies
		c.rateSum[v] = rateSum
		if copies == 0 {
			c.orphans++
			continue
		}
		c.totalCopies += int(copies)
		c.qualitySum += rateSum / float64(copies)
		w := c.popPeak[v] / float64(copies)
		for s := 0; s < n; s++ {
			if ri := l.Rate(v, s); ri >= 0 {
				c.storage[s] += bp.copySizeBytes(v, ri)
				c.demand[s] += w * bp.RateSet[ri]
			}
		}
	}
	c.violCount = 0
	for s := 0; s < n; s++ {
		c.isViol[s] = c.storage[s] > bp.P.StorageOf(s) || c.demand[s] > bp.P.BandwidthOf(s)
		if c.isViol[s] {
			c.violCount++
		}
	}
	c.applies = 0
	c.cost = bp.costOf(c.eval())
}

// requireSetupMatchesReference fails unless Evaluate equals referenceEvaluate
// bit for bit on l, and rebuilding a cache for l (one that has already walked
// to another layout, when stale is non-nil, so every list must be rebuilt)
// leaves exactly the state referenceRebuild does: the same accumulators, and
// on every server the same on list, off list and positions, read index by
// index and video by video through the holder lists.
func requireSetupMatchesReference(t *testing.T, ctx string, bp *BitRateProblem, l *BitRateLayout, stale *brCache) {
	t.Helper()
	if got, want := bp.Evaluate(l), referenceEvaluate(bp, l); got != want {
		t.Fatalf("%s: Evaluate = %+v, reference %+v", ctx, got, want)
	}
	got := stale
	if got == nil {
		got = newBRCache(bp, l)
	} else {
		got.rebuild(l)
	}
	want := newBRCache(bp, l)
	lists := newDenseLists(bp.P.M(), bp.P.N())
	referenceRebuild(want, lists, l)
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"storage", got.storage, want.storage},
		{"demand", got.demand, want.demand},
		{"isViol", got.isViol, want.isViol},
		{"violCount", got.violCount, want.violCount},
		{"copies", got.copies, want.copies},
		{"rateSum", got.rateSum, want.rateSum},
		{"qualitySum", got.qualitySum, want.qualitySum},
		{"totalCopies", got.totalCopies, want.totalCopies},
		{"orphans", got.orphans, want.orphans},
		{"cost", got.cost, want.cost},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Fatalf("%s: rebuilt %s differs from the reference", ctx, f.name)
		}
	}
	for s := range got.lists {
		requireListsMatch(t, ctx, got, lists, l, s)
	}
}

// randomLayout fills an m×n layout at the given density with random rates;
// every fifth row is left empty so orphans occur.
func randomLayout(rng *stats.RNG, m, n, rates int, density float64) *BitRateLayout {
	l := NewBitRateLayout(m, n)
	for v := 0; v < m; v++ {
		if v%5 == 4 {
			continue
		}
		for s := 0; s < n; s++ {
			if rng.Bernoulli(density) {
				l.SetRate(v, s, int16(rng.Intn(rates)))
			}
		}
	}
	return l
}

// TestSetupMatchesReference compares the single-pass Evaluate and the
// server-major rebuild with the two-pass and video-major originals: on random
// layouts of every delta-harness shape (the heterogeneous cluster among
// them) from sparse to nearly full, fresh and over a cache built for another
// layout; along annealing walks, rebuilding the
// walked cache in place; and at the benchmark's plan_scale shape, M = 20 000
// titles on N = 64 servers, from its round-robin start and after a walk.
func TestSetupMatchesReference(t *testing.T) {
	scale := bitrateProblem(t, 20_000, 64, 1250)
	scale.P.ArrivalRate = 240.0 / core.Minute
	for shape, bp := range append(deltaShapes(t), scale) {
		m, n := bp.P.M(), bp.P.N()
		rng := stats.NewRNG(int64(50 + shape))
		if m <= 100 {
			for trial, density := range []float64{0.05, 0.3, 0.6, 0.95} {
				l := randomLayout(rng, m, n, len(bp.RateSet), density)
				requireSetupMatchesReference(t, fmt.Sprintf("shape %d random %d", shape, trial), bp, l, nil)
				other := newBRCache(bp, randomLayout(rng, m, n, len(bp.RateSet), 1-density))
				requireSetupMatchesReference(t, fmt.Sprintf("shape %d random %d over another layout's cache", shape, trial), bp, l, other)
			}
		}
		l, err := bp.InitialSolution()
		if err != nil {
			t.Fatal(err)
		}
		requireSetupMatchesReference(t, fmt.Sprintf("shape %d initial", shape), bp, l, nil)
		for walk := 0; walk < 3; walk++ {
			for step := 0; step < 2_000; step++ {
				move, _ := bp.Propose(l, rng)
				if bp.IsNoop(move) {
					continue
				}
				if rng.Bernoulli(0.8) {
					bp.Apply(l, move)
				} else {
					bp.Revert(l, move)
				}
			}
			requireSetupMatchesReference(t, fmt.Sprintf("shape %d walk %d", shape, walk), bp, l, l.cache)
		}
	}
}
