package core

import (
	"fmt"
	"math"
	"sort"
)

// Layout is a candidate solution: which servers hold each video's replicas
// and, optionally, at which encoding rate each copy is stored. Layouts
// returned by the placement algorithms always satisfy the hard constraints
// (storage Eq. 4, distinct servers Eq. 6, replica bounds Eq. 7); Validate
// re-checks them.
type Layout struct {
	// Servers[i] lists the servers holding video i, sorted ascending; its
	// length is r_i, the number of replicas of video i.
	Servers [][]int
	// Rates, when non-nil, gives every copy its own encoding rate (the
	// scalable-bit-rate layouts of §4.3): Rates[i][k] is the bits/s of the
	// copy on Servers[i][k]. Nil means every copy is at its catalog rate,
	// which is what every placer produces.
	Rates [][]float64
}

// NewLayout allocates an empty layout for m videos: one slot per video, no
// placements yet, every copy to come at its catalog rate.
func NewLayout(m int) *Layout {
	return &Layout{Servers: make([][]int, m)}
}

// Clone returns a deep copy of the layout.
func (l *Layout) Clone() *Layout {
	c := &Layout{Servers: make([][]int, len(l.Servers))}
	for i, s := range l.Servers {
		c.Servers[i] = append([]int(nil), s...)
	}
	if l.Rates != nil {
		c.Rates = make([][]float64, len(l.Rates))
		for i, r := range l.Rates {
			c.Rates[i] = append([]float64(nil), r...)
		}
	}
	return c
}

// ReplicaCounts returns the replica vector: r_i = len(Servers[i]).
func (l *Layout) ReplicaCounts() []int {
	r := make([]int, len(l.Servers))
	for i, s := range l.Servers {
		r[i] = len(s)
	}
	return r
}

// TotalReplicas returns Σ r_i.
func (l *Layout) TotalReplicas() int {
	sum := 0
	for _, s := range l.Servers {
		sum += len(s)
	}
	return sum
}

// ReplicationDegree returns the average number of replicas per video.
func (l *Layout) ReplicationDegree() float64 {
	if len(l.Servers) == 0 {
		return 0
	}
	return float64(l.TotalReplicas()) / float64(len(l.Servers))
}

// rate returns the encoding rate of the copy of video v on Servers[v][k]:
// its own under Rates, the catalog rate otherwise.
func (l *Layout) rate(p *Problem, v, k int) float64 {
	if l.Rates != nil {
		return l.Rates[v][k]
	}
	return p.Catalog[v].BitRate
}

// Place records that server s holds a replica of video v, keeping Servers[v]
// sorted. It returns an error if the server already holds the video
// (constraint Eq. 6). It adds no rate, so it is for layouts whose copies are
// at their catalog rates (Rates nil).
func (l *Layout) Place(v, s int) error {
	list := l.Servers[v]
	i := sort.SearchInts(list, s)
	if i < len(list) && list[i] == s {
		return fmt.Errorf("core: server %d already holds video %d", s, v)
	}
	list = append(list, 0)
	copy(list[i+1:], list[i:])
	list[i] = s
	l.Servers[v] = list
	return nil
}

// Holds reports whether server s holds a replica of video v.
func (l *Layout) Holds(v, s int) bool {
	list := l.Servers[v]
	i := sort.SearchInts(list, s)
	return i < len(list) && list[i] == s
}

// Weights returns the communication weight of each video's replicas under
// problem p: w_i = p_i · λ · T / r_i, the expected number of peak-period
// requests each replica serves with static round-robin scheduling (paper
// §3.2). Videos with zero replicas get weight 0 (they serve nothing; such
// layouts fail Validate anyway).
func (l *Layout) Weights(p *Problem) []float64 {
	peak := p.PeakRequests()
	w := make([]float64, len(l.Servers))
	for i, s := range l.Servers {
		if r := len(s); r > 0 {
			w[i] = p.Catalog[i].Popularity * peak / float64(r)
		}
	}
	return w
}

// ServerLoads returns l_j for each server: the expected number of peak-period
// requests it serves, i.e. the sum of the communication weights of the
// replicas it holds.
func (l *Layout) ServerLoads(p *Problem) []float64 {
	loads := make([]float64, p.NumServers)
	w := l.Weights(p)
	for v, servers := range l.Servers {
		for _, s := range servers {
			loads[s] += w[v]
		}
	}
	return loads
}

// ServerBandwidthDemand returns the expected concurrent outgoing bandwidth on
// each server in bits/s: Σ over its replicas of w_i · b · (duration/peak),
// where b is the copy's rate. With duration == peak period (the paper's
// conservative model) this is simply Σ w_i · b.
func (l *Layout) ServerBandwidthDemand(p *Problem) []float64 {
	demand := make([]float64, p.NumServers)
	w := l.Weights(p)
	for v, servers := range l.Servers {
		overlap := p.Catalog[v].Duration / p.PeakPeriod
		if overlap > 1 {
			overlap = 1
		}
		for k, s := range servers {
			demand[s] += w[v] * l.rate(p, v, k) * overlap
		}
	}
	return demand
}

// ServerStorageUsed returns the bytes of storage each server uses, every
// copy sized at its own rate.
func (l *Layout) ServerStorageUsed(p *Problem) []float64 {
	used := make([]float64, p.NumServers)
	for v, servers := range l.Servers {
		for k, s := range servers {
			used[s] += p.Catalog[v].SizeAtRate(l.rate(p, v, k))
		}
	}
	return used
}

// Validate checks the hard constraints of the formulation against problem p:
//
//   - every video has 1 ≤ r_i ≤ N replicas (Eq. 7),
//   - Servers[i] lists distinct servers in range, ascending (Eq. 6),
//   - under Rates, every video has one rate per copy, each finite and > 0,
//   - no server's storage capacity is exceeded, every copy sized at its own
//     rate (Eq. 4).
//
// The outgoing-bandwidth constraint (Eq. 5) is soft under a fixed encoding
// bit rate — the paper notes it may be violated when offered load exceeds
// cluster bandwidth — so it is checked separately by BandwidthFeasible.
func (l *Layout) Validate(p *Problem) error {
	if len(l.Servers) != p.M() {
		return fmt.Errorf("core: layout covers %d videos; problem has %d", len(l.Servers), p.M())
	}
	if l.Rates != nil && len(l.Rates) != p.M() {
		return fmt.Errorf("core: layout rates cover %d videos; problem has %d", len(l.Rates), p.M())
	}
	for v, servers := range l.Servers {
		if r := len(servers); r < 1 || r > p.NumServers {
			return fmt.Errorf("core: video %d has %d replicas; want 1..%d (Eq. 7)", v, r, p.NumServers)
		}
		for k, s := range servers {
			if s < 0 || s >= p.NumServers {
				return fmt.Errorf("core: video %d placed on invalid server %d", v, s)
			}
			if k > 0 && servers[k-1] >= s {
				return fmt.Errorf("core: video %d server list not strictly increasing (duplicate placement violates Eq. 6)", v)
			}
		}
		if l.Rates == nil {
			continue
		}
		if len(l.Rates[v]) != len(servers) {
			return fmt.Errorf("core: video %d lists %d servers but %d rates", v, len(servers), len(l.Rates[v]))
		}
		for k, rate := range l.Rates[v] {
			if !(rate > 0) || math.IsInf(rate, 1) {
				return fmt.Errorf("core: video %d's copy on server %d has rate %g; want finite and > 0", v, servers[k], rate)
			}
		}
	}
	for s, u := range l.ServerStorageUsed(p) {
		if u > p.StorageOf(s)*(1+1e-9) {
			return fmt.Errorf("core: server %d uses %.0f bytes of %.0f available (Eq. 4)", s, u, p.StorageOf(s))
		}
	}
	return nil
}

// BandwidthFeasible reports whether the expected peak bandwidth demand of
// every server fits within its outgoing link (Eq. 5), and returns the
// worst-case utilization (demand / capacity).
func (l *Layout) BandwidthFeasible(p *Problem) (worst float64, ok bool) {
	demand := l.ServerBandwidthDemand(p)
	for s, d := range demand {
		u := d / p.BandwidthOf(s)
		if u > worst {
			worst = u
		}
	}
	return worst, worst <= 1+1e-9
}
