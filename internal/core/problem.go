package core

import (
	"fmt"
	"math"
)

// Problem is one instance of the video replication and placement problem
// (paper §3.1): a homogeneous cluster, a catalog, and the peak-period
// workload intensity. The replication and placement algorithms in
// internal/replicate and internal/place consume a Problem and produce a
// Layout.
type Problem struct {
	// Catalog holds the M videos, most popular first.
	Catalog Catalog
	// NumServers is N, the number of back-end servers.
	NumServers int
	// StoragePerServer is each server's disk capacity in bytes.
	StoragePerServer float64
	// BandwidthPerServer is each server's outgoing network bandwidth in
	// bits/s — the paper's primary bottleneck resource.
	BandwidthPerServer float64
	// ServerStorage and ServerBandwidth optionally override the scalar
	// capacities per server (heterogeneous clusters — the generalization
	// the paper's homogeneous model invites). When non-nil they must have
	// NumServers entries; the scalars are then ignored except as
	// documentation. Use StorageOf/BandwidthOf to read capacities.
	ServerStorage   []float64
	ServerBandwidth []float64
	// ArrivalRate is λ, the mean request arrival rate during the peak
	// period, in requests per second.
	ArrivalRate float64
	// PeakPeriod is T, the length of the peak period in seconds. The paper
	// sets it equal to the video duration (90 min), so every request
	// admitted during the peak is still streaming at its end.
	PeakPeriod float64
	// BackboneBandwidth is the aggregate internal backbone bandwidth in
	// bits/s available for runtime request redirection (paper §6 / [29]).
	// Zero disables redirection.
	BackboneBandwidth float64
}

// M returns the number of videos in the catalog.
func (p *Problem) M() int { return len(p.Catalog) }

// N returns the number of servers.
func (p *Problem) N() int { return p.NumServers }

// Homogeneous reports whether every server has identical capacities.
func (p *Problem) Homogeneous() bool {
	for s := 1; s < p.NumServers; s++ {
		if p.StorageOf(s) != p.StorageOf(0) || p.BandwidthOf(s) != p.BandwidthOf(0) {
			return false
		}
	}
	return true
}

// StorageOf returns server s's storage capacity in bytes.
func (p *Problem) StorageOf(s int) float64 {
	if p.ServerStorage != nil {
		return p.ServerStorage[s]
	}
	return p.StoragePerServer
}

// BandwidthOf returns server s's outgoing bandwidth in bits/s.
func (p *Problem) BandwidthOf(s int) float64 {
	if p.ServerBandwidth != nil {
		return p.ServerBandwidth[s]
	}
	return p.BandwidthPerServer
}

// TotalStorage returns the cluster's aggregate storage in bytes.
func (p *Problem) TotalStorage() float64 {
	sum := 0.0
	for s := 0; s < p.NumServers; s++ {
		sum += p.StorageOf(s)
	}
	return sum
}

// TotalBandwidth returns the cluster's aggregate outgoing bandwidth.
func (p *Problem) TotalBandwidth() float64 {
	sum := 0.0
	for s := 0; s < p.NumServers; s++ {
		sum += p.BandwidthOf(s)
	}
	return sum
}

// Validate checks that the problem is well formed: a valid catalog, at least
// one server, positive resources, and a sane workload description.
func (p *Problem) Validate() error {
	if err := p.Catalog.Validate(); err != nil {
		return err
	}
	if p.NumServers <= 0 {
		return fmt.Errorf("core: need at least one server, got %d", p.NumServers)
	}
	if p.ServerStorage == nil && p.StoragePerServer <= 0 {
		return fmt.Errorf("core: storage per server must be positive, got %g", p.StoragePerServer)
	}
	if p.ServerBandwidth == nil && p.BandwidthPerServer <= 0 {
		return fmt.Errorf("core: bandwidth per server must be positive, got %g", p.BandwidthPerServer)
	}
	if p.ServerStorage != nil {
		if len(p.ServerStorage) != p.NumServers {
			return fmt.Errorf("core: ServerStorage has %d entries for %d servers", len(p.ServerStorage), p.NumServers)
		}
		for s, v := range p.ServerStorage {
			if v <= 0 {
				return fmt.Errorf("core: server %d storage must be positive, got %g", s, v)
			}
		}
	}
	if p.ServerBandwidth != nil {
		if len(p.ServerBandwidth) != p.NumServers {
			return fmt.Errorf("core: ServerBandwidth has %d entries for %d servers", len(p.ServerBandwidth), p.NumServers)
		}
		for s, v := range p.ServerBandwidth {
			if v <= 0 {
				return fmt.Errorf("core: server %d bandwidth must be positive, got %g", s, v)
			}
		}
	}
	if p.ArrivalRate < 0 {
		return fmt.Errorf("core: arrival rate must be non-negative, got %g", p.ArrivalRate)
	}
	if p.PeakPeriod <= 0 {
		return fmt.Errorf("core: peak period must be positive, got %g", p.PeakPeriod)
	}
	if p.BackboneBandwidth < 0 {
		return fmt.Errorf("core: backbone bandwidth must be non-negative, got %g", p.BackboneBandwidth)
	}
	// Every video must individually fit on at least one server, or no
	// layout exists.
	maxStorage := 0.0
	for s := 0; s < p.NumServers; s++ {
		if st := p.StorageOf(s); st > maxStorage {
			maxStorage = st
		}
	}
	for _, v := range p.Catalog {
		if v.SizeBytes() > maxStorage {
			return fmt.Errorf("core: video %d needs %.0f bytes but the largest server holds only %.0f",
				v.ID, v.SizeBytes(), maxStorage)
		}
	}
	return nil
}

// ReplicaCapacityPerServer returns C, the number of replicas one server can
// hold, for a fixed-bit-rate catalog (paper §4.1 re-defines storage capacity
// in replica units). It returns an error if bit rates differ across videos
// or the cluster is heterogeneous (use ReplicaCapacityOf then).
func (p *Problem) ReplicaCapacityPerServer() (int, error) {
	if !p.Homogeneous() {
		return 0, fmt.Errorf("core: per-server replica capacity undefined for a heterogeneous cluster")
	}
	return p.ReplicaCapacityOf(0)
}

// ReplicaCapacityOf returns the number of fixed-rate replicas server s can
// hold.
func (p *Problem) ReplicaCapacityOf(s int) (int, error) {
	size, err := p.replicaSize()
	if err != nil {
		return 0, err
	}
	return int(p.StorageOf(s) / size), nil
}

// ClusterReplicaCapacity returns the total number of fixed-rate replicas the
// cluster can hold: Σ_s ⌊storage_s / size⌋ (N·C when homogeneous). The copy
// size is derived once, O(M + N).
func (p *Problem) ClusterReplicaCapacity() (int, error) {
	size, err := p.replicaSize()
	if err != nil {
		return 0, err
	}
	total := 0
	for s := 0; s < p.NumServers; s++ {
		total += int(p.StorageOf(s) / size)
	}
	return total, nil
}

// replicaSize returns the bytes of one replica of a fixed-rate catalog, in
// which every video shares one bit rate and one duration.
func (p *Problem) replicaSize() (float64, error) {
	rate, ok := p.Catalog.FixedBitRate()
	if !ok {
		return 0, fmt.Errorf("core: replica capacity undefined for mixed bit rates")
	}
	duration, ok := p.Catalog.FixedDuration()
	if !ok {
		return 0, fmt.Errorf("core: replica capacity undefined for mixed durations")
	}
	size := rate * duration / 8
	if size <= 0 {
		return 0, fmt.Errorf("core: non-positive video size")
	}
	return size, nil
}

// StreamCapacityPerServer returns the number of concurrent fixed-rate streams
// one server's outgoing link supports; it requires a homogeneous cluster.
func (p *Problem) StreamCapacityPerServer() (int, error) {
	if !p.Homogeneous() {
		return 0, fmt.Errorf("core: per-server stream capacity undefined for a heterogeneous cluster")
	}
	rate, ok := p.Catalog.FixedBitRate()
	if !ok {
		return 0, fmt.Errorf("core: stream capacity undefined for mixed bit rates")
	}
	return int(p.BandwidthOf(0) / rate), nil
}

// PeakRequests returns λ·T, the expected number of requests during the peak
// period.
func (p *Problem) PeakRequests() float64 { return p.ArrivalRate * p.PeakPeriod }

// PeakWeight returns p_v·λ·T, video v's expected number of peak-period
// requests. Divided by the video's copy count it is the per-copy
// communication weight w_i the bandwidth-demand terms are built from; the
// scalable-bit-rate delta cache precomputes it per video.
func (p *Problem) PeakWeight(v int) float64 {
	return p.Catalog[v].Popularity * p.PeakRequests()
}

// SaturationArrivalRate returns the arrival rate (requests/s) at which the
// cluster's aggregate outgoing bandwidth is exactly consumed for a fixed-rate
// catalog, assuming perfectly balanced traffic: Σ_s ⌊B_s/b⌋ / T. The paper's
// example: 8 servers × 1.8 Gb/s at 4 Mb/s and 90 min gives 3600 streams, a
// peak rate of 40 requests/min.
func (p *Problem) SaturationArrivalRate() (float64, error) {
	rate, ok := p.Catalog.FixedBitRate()
	if !ok {
		return 0, fmt.Errorf("core: saturation rate undefined for mixed bit rates")
	}
	streams := 0
	for s := 0; s < p.NumServers; s++ {
		streams += int(p.BandwidthOf(s) / rate)
	}
	return float64(streams) / p.PeakPeriod, nil
}

// TargetTotalReplicas converts a replication degree (average replicas per
// video, ≥ 1) into a total replica budget, clamped to what the constraints
// allow: at least M (one replica each), at most min(N·M, cluster capacity).
func (p *Problem) TargetTotalReplicas(degree float64) (int, error) {
	if degree < 1 {
		return 0, fmt.Errorf("core: replication degree must be ≥ 1, got %g", degree)
	}
	cap, err := p.ClusterReplicaCapacity()
	if err != nil {
		return 0, err
	}
	m := p.M()
	if cap < m {
		return 0, fmt.Errorf("core: cluster holds only %d replicas but catalog has %d videos", cap, m)
	}
	total := int(math.Round(degree * float64(m)))
	if total < m {
		total = m
	}
	if max := p.NumServers * m; total > max {
		total = max
	}
	if total > cap {
		total = cap
	}
	return total, nil
}

// Clone returns a deep copy of the problem.
func (p *Problem) Clone() *Problem {
	q := *p
	q.Catalog = append(Catalog(nil), p.Catalog...)
	if p.ServerStorage != nil {
		q.ServerStorage = append([]float64(nil), p.ServerStorage...)
	}
	if p.ServerBandwidth != nil {
		q.ServerBandwidth = append([]float64(nil), p.ServerBandwidth...)
	}
	return &q
}
