// Package dynrep implements runtime dynamic replication: the paper notes
// that its replication algorithms "can be applied for dynamic replication
// during run-time" (§4.1.2), and its conclusion pairs the conservative
// offline placement with runtime strategies over the cluster backbone.
//
// The Manager watches the request stream, maintains an exponentially decayed
// per-video demand estimate, and periodically recomputes the target replica
// vector by running one of the §4.1 replication algorithms on the empirical
// popularity ranking. Deviations are repaired by migrating replicas over the
// internal backbone — each in-flight copy reserves backbone bandwidth for
// size/rate seconds — evicting surplus replicas when the destination server
// is out of storage. Active streams are never disturbed.
//
// Manager implements the simulator's Controller hook (sim.Controller)
// structurally, so the packages stay decoupled.
package dynrep

import (
	"fmt"
	"sort"

	"vodcluster/internal/cluster"
	"vodcluster/internal/core"
	"vodcluster/internal/demand"
	"vodcluster/internal/replicate"
)

// Options configures a Manager. The zero value of optional fields gets
// sensible defaults from New.
type Options struct {
	// Replicator recomputes target replica counts from empirical
	// popularity; nil means the Zipf-interval scheme (the paper's choice
	// for runtime use, as the fast approximation to bounded Adams).
	Replicator replicate.Replicator
	// IntervalSec is the adjustment cadence; default 300 s.
	IntervalSec float64
	// Decay multiplies the demand counters each tick, implementing an
	// exponential sliding window; default 0.5, must be in [0, 1).
	Decay float64
	// MigrationRate is the backbone bandwidth one in-flight copy consumes,
	// in bits/s; default 200 Mb/s (a 2.7 GB video then moves in ~108 s).
	MigrationRate float64
	// MaxPerTick caps replica copies started per adjustment round;
	// default 2.
	MaxPerTick int
}

// Manager is a runtime dynamic-replication controller for one simulation
// run. It is not safe for concurrent use; create one per run.
type Manager struct {
	p    *core.Problem
	opts Options

	est      *demand.Estimator // shared decayed-demand estimator
	inflight map[int]bool      // videos currently being copied

	migrations int
	evictions  int
	skipped    int
}

// withDefaults validates opts against the problem and fills in defaults.
func (opts Options) withDefaults(p *core.Problem) (Options, error) {
	var zero Options
	if p == nil {
		return zero, fmt.Errorf("dynrep: nil problem")
	}
	if err := p.Validate(); err != nil {
		return zero, err
	}
	if opts.Replicator == nil {
		opts.Replicator = replicate.ZipfInterval{}
	}
	if opts.IntervalSec == 0 {
		opts.IntervalSec = 300
	}
	if opts.IntervalSec < 0 {
		return zero, fmt.Errorf("dynrep: interval must be positive, got %g", opts.IntervalSec)
	}
	if opts.Decay == 0 {
		opts.Decay = 0.5
	}
	if opts.Decay < 0 || opts.Decay >= 1 {
		return zero, fmt.Errorf("dynrep: decay must be in [0,1), got %g", opts.Decay)
	}
	if opts.MigrationRate == 0 {
		opts.MigrationRate = 200 * core.Mbps
	}
	if opts.MigrationRate < 0 {
		return zero, fmt.Errorf("dynrep: migration rate must be positive, got %g", opts.MigrationRate)
	}
	if opts.MaxPerTick == 0 {
		opts.MaxPerTick = 2
	}
	if opts.MaxPerTick < 0 {
		return zero, fmt.Errorf("dynrep: MaxPerTick must be positive, got %d", opts.MaxPerTick)
	}
	return opts, nil
}

// newManager builds a Manager from already-validated options.
func newManager(p *core.Problem, opts Options) *Manager {
	est, err := demand.NewEstimator(p.M(), opts.Decay)
	if err != nil {
		// withDefaults already validated the problem and decay range.
		panic(err)
	}
	return &Manager{
		p:        p,
		opts:     opts,
		est:      est,
		inflight: make(map[int]bool),
	}
}

// New builds a Manager for the given problem.
func New(p *core.Problem, opts Options) (*Manager, error) {
	opts, err := opts.withDefaults(p)
	if err != nil {
		return nil, err
	}
	return newManager(p, opts), nil
}

// NewFactory validates (p, opts) once, up front, and returns a constructor
// producing a fresh Manager per call. A Manager holds per-run state, so
// replicated simulation runs need one each — sim.Config.NewController takes
// a factory for exactly that reason, but its signature has no error return.
// NewFactory moves the validation failure before the runs start instead of
// panicking inside one.
func NewFactory(p *core.Problem, opts Options) (func() *Manager, error) {
	opts, err := opts.withDefaults(p)
	if err != nil {
		return nil, err
	}
	return func() *Manager { return newManager(p, opts) }, nil
}

// Migrations returns the number of replica copies completed.
func (m *Manager) Migrations() int { return m.migrations }

// Evictions returns the number of surplus replicas removed.
func (m *Manager) Evictions() int { return m.evictions }

// Skipped returns adjustment opportunities abandoned for lack of backbone
// bandwidth or eligible servers.
func (m *Manager) Skipped() int { return m.skipped }

// Observe implements the controller hook: record one request.
func (m *Manager) Observe(video int) { m.est.Observe(video) }

// Interval implements the controller hook.
func (m *Manager) Interval() float64 { return m.opts.IntervalSec }

// Tick implements the controller hook: one adjustment round.
func (m *Manager) Tick(now float64, st *cluster.State, schedule func(delay float64, fn func(now float64))) {
	defer m.est.Decay()
	if m.p.BackboneBandwidth <= 0 {
		return // migrations need the backbone
	}
	counts := m.est.Snapshot()
	target := m.targetVector(st)
	if target == nil {
		return
	}
	// Deficit videos, hottest first.
	type deficit struct {
		video int
		want  int
		heat  float64
	}
	var deficits []deficit
	for v := 0; v < m.p.M(); v++ {
		if m.inflight[v] {
			continue
		}
		if have := st.Replicas(v); target[v] > have {
			deficits = append(deficits, deficit{video: v, want: target[v], heat: counts[v]})
		}
	}
	sort.Slice(deficits, func(i, j int) bool {
		if deficits[i].heat != deficits[j].heat {
			return deficits[i].heat > deficits[j].heat
		}
		return deficits[i].video < deficits[j].video
	})

	started := 0
	for _, d := range deficits {
		if started >= m.opts.MaxPerTick {
			break
		}
		if m.startMigration(d.video, target, st, schedule) {
			started++
		} else {
			m.skipped++
		}
	}
}

// targetVector recomputes the desired replica counts from the empirical
// demand ranking. It returns nil when there is nothing to go on yet.
func (m *Manager) targetVector(st *cluster.State) []int {
	// Empirical popularity with add-one smoothing so cold videos keep a
	// floor (and the catalog constraint p > 0 holds).
	pops, totalObs := m.est.SmoothedPopularity()
	if totalObs < 1 {
		return nil
	}
	rankedVideos := demand.RankByPopularity(pops)
	// Shadow problem with the empirical ranking.
	shadow := m.p.Clone()
	for rank := range shadow.Catalog {
		shadow.Catalog[rank].ID = rank
		shadow.Catalog[rank].Popularity = rankedVideos[rank].Pop
	}
	budget, err := shadow.ClusterReplicaCapacity()
	if err != nil {
		return nil
	}
	if max := shadow.M() * shadow.N(); budget > max {
		budget = max
	}
	if budget < shadow.M() {
		return nil
	}
	byRank, err := m.opts.Replicator.Replicate(shadow, budget)
	if err != nil {
		return nil
	}
	target := make([]int, m.p.M())
	for rank, r := range byRank {
		target[rankedVideos[rank].Video] = r
	}
	return target
}

// startMigration tries to begin copying one new replica of video v; it
// reports whether a copy started.
func (m *Manager) startMigration(v int, target []int, st *cluster.State, schedule func(delay float64, fn func(now float64))) bool {
	dst := m.pickDestination(v, target, st)
	if dst < 0 {
		return false
	}
	if !st.ReserveBackbone(m.opts.MigrationRate) {
		return false
	}
	size := m.p.Catalog[v].SizeBytes()
	delay := size * 8 / m.opts.MigrationRate
	m.inflight[v] = true
	schedule(delay, func(now float64) {
		st.ReleaseBackbone(m.opts.MigrationRate)
		delete(m.inflight, v)
		// The destination may have died or filled up during the copy;
		// dropping the finished copy then is the faithful outcome.
		if err := st.AddReplica(v, dst, m.p.Catalog[v].BitRate); err == nil {
			m.migrations++
		}
	})
	return true
}

// pickDestination chooses the server to receive a new replica of v: an up
// server not holding v with the most free outgoing bandwidth, evicting a
// surplus replica if storage demands it. It returns -1 when no server is
// eligible.
func (m *Manager) pickDestination(v int, target []int, st *cluster.State) int {
	size := m.p.Catalog[v].SizeBytes()
	best := -1
	bestFree := -1.0
	for s := 0; s < m.p.N(); s++ {
		if !st.Eligible(s) {
			continue
		}
		holders := st.Holders(v)
		if contains(holders, s) {
			continue
		}
		if st.StorageFree(s) < size && !m.canEvictOn(s, target, st) {
			continue
		}
		if free := st.FreeBandwidth(s); free > bestFree {
			best, bestFree = s, free
		}
	}
	if best == -1 {
		return -1
	}
	// Make room if needed.
	for st.StorageFree(best) < size {
		if !m.evictOne(best, target, st) {
			return -1
		}
	}
	return best
}

// canEvictOn reports whether server s holds at least one surplus replica.
func (m *Manager) canEvictOn(s int, target []int, st *cluster.State) bool {
	for v := 0; v < m.p.M(); v++ {
		if st.Replicas(v) > target[v] && st.Replicas(v) > 1 && contains(st.Holders(v), s) {
			return true
		}
	}
	return false
}

// evictOne removes the coldest surplus replica from server s.
func (m *Manager) evictOne(s int, target []int, st *cluster.State) bool {
	victim := -1
	for v := 0; v < m.p.M(); v++ {
		if st.Replicas(v) > target[v] && st.Replicas(v) > 1 && contains(st.Holders(v), s) {
			if victim == -1 || m.est.Count(v) < m.est.Count(victim) {
				victim = v
			}
		}
	}
	if victim == -1 {
		return false
	}
	if err := st.RemoveReplica(victim, s); err != nil {
		return false
	}
	m.evictions++
	return true
}

func contains(xs []int, x int) bool {
	i := sort.SearchInts(xs, x)
	return i < len(xs) && xs[i] == x
}
