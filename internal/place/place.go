// Package place implements the paper's video placement algorithms: mapping
// all replicas of M videos onto N servers to minimize the load imbalance
// degree L, subject to per-server storage (Eq. 4) and the rule that all
// replicas of a video live on distinct servers (Eq. 6).
//
// The paper's contribution is the smallest-load-first placement
// (Algorithm 1), whose imbalance under Eq. 3 is bounded by
// max w − min w (Theorem 4.2). A round-robin placement serves as the
// baseline, with greedy and random variants for ablations.
package place

import (
	"fmt"
	"slices"

	"vodcluster/internal/core"
)

// Placer maps a replica vector onto servers.
type Placer interface {
	// Place returns a layout with Servers filled in for every video,
	// satisfying the hard constraints. replicas must already satisfy
	// 1 ≤ r_i ≤ p.N().
	Place(p *core.Problem, replicas []int) (*core.Layout, error)
	// Name identifies the algorithm in reports.
	Name() string
}

// replicaRef is one replica awaiting placement.
type replicaRef struct {
	video  int
	weight float64
}

// sortedReplicas flattens the replica vector into per-replica refs sorted by
// communication weight, non-increasing; ties break toward the lower video ID
// so results are deterministic. Replicas of one video are adjacent (they all
// share one weight), which is the "grouped" arrangement of Algorithm 1.
func sortedReplicas(p *core.Problem, replicas []int) []replicaRef {
	total := 0
	for _, r := range replicas {
		total += r
	}
	refs := make([]replicaRef, 0, total)
	peak := p.PeakRequests()
	for v, r := range replicas {
		if r <= 0 {
			continue
		}
		w := p.Catalog[v].Popularity * peak / float64(r)
		for k := 0; k < r; k++ {
			refs = append(refs, replicaRef{video: v, weight: w})
		}
	}
	// (weight, video) orders refs up to the replicas of one video, which are
	// equal values, so an unstable sort gives the stable sort's result.
	slices.SortFunc(refs, func(a, b replicaRef) int {
		if a.weight != b.weight {
			if a.weight > b.weight {
				return -1
			}
			return 1
		}
		return a.video - b.video
	})
	return refs
}

// groupedReplicas flattens the replica vector in catalog (rank) order without
// sorting by weight — the "arbitrary order" arrangement the paper's
// round-robin placement uses.
func groupedReplicas(p *core.Problem, replicas []int) []replicaRef {
	refs := make([]replicaRef, 0)
	peak := p.PeakRequests()
	for v, r := range replicas {
		if r <= 0 {
			continue
		}
		w := p.Catalog[v].Popularity * peak / float64(r)
		for k := 0; k < r; k++ {
			refs = append(refs, replicaRef{video: v, weight: w})
		}
	}
	return refs
}

// state tracks the mutable placement state: the target replica vector,
// accumulated expected load, remaining storage bytes, and the layout under
// construction.
type state struct {
	p        *core.Problem
	replicas []int // target r_i; the layout's rows reach it as placement ends
	layout   *core.Layout
	loads    []float64
	storage  []float64 // bytes remaining
}

func newState(p *core.Problem, replicas []int) *state {
	s := &state{
		p:        p,
		replicas: replicas,
		layout:   core.NewLayout(len(replicas)),
		loads:    make([]float64, p.N()),
		storage:  make([]float64, p.N()),
	}
	for i := range s.storage {
		s.storage[i] = p.StorageOf(i)
	}
	return s
}

// canHost reports whether server sv can receive a replica of video v.
func (s *state) canHost(sv, v int) bool {
	return !s.layout.Holds(v, sv) && s.storage[sv] >= s.p.Catalog[v].SizeBytes()-1e-6
}

// assign places a replica of video v with weight w on server sv.
func (s *state) assign(sv, v int, w float64) error {
	if err := s.layout.Place(v, sv); err != nil {
		return err
	}
	s.loads[sv] += w
	s.storage[sv] -= s.p.Catalog[v].SizeBytes()
	return nil
}

// unassign reverses assign; used by conflict-resolution swaps.
func (s *state) unassign(sv, v int, w float64) {
	list := s.layout.Servers[v]
	for i, x := range list {
		if x == sv {
			s.layout.Servers[v] = append(list[:i], list[i+1:]...)
			break
		}
	}
	s.loads[sv] -= w
	s.storage[sv] += s.p.Catalog[v].SizeBytes()
}

// checkReplicaVector validates placement preconditions.
func checkReplicaVector(p *core.Problem, replicas []int) error {
	if len(replicas) != p.M() {
		return fmt.Errorf("place: replica vector has %d entries for %d videos", len(replicas), p.M())
	}
	needed := 0.0
	for v, r := range replicas {
		if r < 1 || r > p.N() {
			return fmt.Errorf("place: video %d has %d replicas; want 1..%d", v, r, p.N())
		}
		needed += float64(r) * p.Catalog[v].SizeBytes()
	}
	if avail := p.TotalStorage(); needed > avail*(1+1e-9) {
		return fmt.Errorf("place: replicas need %.0f bytes; cluster has %.0f", needed, avail)
	}
	return nil
}

// relocateFor makes room for a replica of video v when every server with
// storage room already holds it: it moves some other video's replica off a
// full server that does not hold v onto a server with room, then returns
// that freed server. This last-resort repair keeps the greedy placers
// complete on heterogeneous clusters, where storage can run out mid-stream.
// It returns -1 when no single relocation unblocks the placement.
func (s *state) relocateFor(v int) int { return s.relocateDepth(v, 3) }

func (s *state) relocateDepth(v, depth int) int {
	if depth <= 0 {
		return -1
	}
	for sf := 0; sf < s.p.N(); sf++ {
		if s.layout.Holds(v, sf) {
			continue // moving content off sf would not let it host v twice
		}
		if s.storage[sf] >= s.p.Catalog[v].SizeBytes()-1e-6 {
			continue // sf already has room; the caller would have used it
		}
		// Find a resident video vx on sf that fits somewhere else.
		for vx := 0; vx < s.p.M(); vx++ {
			if vx == v || !s.layout.Holds(vx, sf) {
				continue
			}
			for sr := 0; sr < s.p.N(); sr++ {
				if sr == sf || !s.canHost(sr, vx) {
					continue
				}
				w := s.weightOf(vx)
				s.unassign(sf, vx, w)
				if err := s.assign(sr, vx, w); err != nil {
					// Cannot happen after canHost, but restore defensively.
					_ = s.assign(sf, vx, w)
					continue
				}
				if s.canHost(sf, v) {
					return sf
				}
				// Still not enough room (larger video); keep freeing.
				if sf2 := s.relocateDepth(v, depth-1); sf2 != -1 {
					return sf2
				}
				// Give up on this path; leave the relocation in place (it
				// is harmless) and try the next candidate.
			}
		}
	}
	return -1
}

// weightOf returns the per-replica communication weight of video v under the
// target replica vector, not the replicas placed so far.
func (s *state) weightOf(v int) float64 {
	r := s.replicas[v]
	if r <= 0 {
		return 0
	}
	return s.p.Catalog[v].Popularity * s.p.PeakRequests() / float64(r)
}
