package serve

// Sharded dispatch (DESIGN.md §15): Config.Shards > 1 partitions the
// cluster's servers into contiguous groups, each owned by one dispatcher
// goroutine. An owner drains its mailbox in batches — every wakeup takes the
// whole accumulated batch, so under load the channel/wakeup cost amortizes
// over many admissions — and is the only goroutine that commits admissions
// onto its servers, so same-server admissions never contend on the CAS loop
// and directory changes (rebalance/repair landings, evictions) serialize
// with the admission stream by construction. Session lifetime is tracked
// with a per-shard expiry heap and one timer instead of a goroutine and
// context per session, and session/op objects are pooled, so an admission
// allocates nothing in steady state.
//
// Failover is the one reservation that bypasses the owners: a crash or drain
// scan (evictSessions) reserves the target by CAS from the calling goroutine and
// swaps the session's grant in place under its birth shard's registry lock.
// A live session never leaves its registry, so Close, expiry and the scan
// settle it exactly once between them, and the expiry entry pushed at
// admission is the only one it ever has.
//
// The sim:* policies, which the single-shard engine serves through a global
// lock (SimPolicy), run sharded on a snapshot-and-verify protocol instead:
// the dispatcher reads each shard's version counter, ranks candidates
// against the lock-free gauges, and submits the decision with the expected
// version; the owner rejects the commit when the shard's state moved in
// between (a conflict), and the dispatcher re-decides against a fresh
// snapshot. After maxSnapshotRetries conflicts the request degrades to the
// unverified path — owners still re-check capacity, so the protocol bounds
// decision staleness without risking livelock.
//
// Shards ≤ 1 never constructs any of this: the daemon runs the original
// code path bit-identically, which is what the live-vs-sim smoke
// cross-checks validate; the benchmark's serve_churn workload cross-checks
// the sharded engine against sim.Run the same way.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vodcluster/internal/obs"
	"vodcluster/internal/policy"
)

// maxSnapshotRetries bounds how many times a snapshot-verified admission
// re-decides after a version conflict before degrading to the unverified
// path. Conflicts are counted in vod_snapshot_conflicts_total either way.
const maxSnapshotRetries = 8

// errShardStopped reports an operation submitted to a dispatcher that has
// already shut down; callers surface it as a draining outcome.
var errShardStopped = errors.New("serve: dispatch shard stopped")

// engine is the sharded dispatch runtime: the shard set, the server→shard
// map, the candidate ranker of the configured policy, and the object pools
// the hot path draws from.
type engine struct {
	s      *Server
	rk     ranker
	name   string // policy name reported by /metrics and /layout
	verify bool   // snapshot-and-verify commits (sim:* policies)

	shards  []*shard
	shardOf []int // server index -> owning shard index

	opPool      sync.Pool // *shardOp
	sessPool    sync.Pool // *session
	scratchPool sync.Pool // *rankScratch
}

// shard owns a contiguous server range [lo, hi): its dispatcher goroutine is
// the only committer of admissions onto those servers, and its registry
// holds every session whose id was allocated here (id mod len(shards) ==
// idx), wherever the session's grant lives after failovers.
type shard struct {
	eng     *engine
	idx     int
	lo, hi  int
	version atomic.Int64 // bumped on every accounting or directory commit here

	// mailbox: an unbounded slice guarded by a mutex plus a 1-slot wakeup
	// channel, so cross-shard submissions never block however deep the
	// backlog — which is what keeps owner→owner operations deadlock-free.
	mbMu   sync.Mutex
	mb     []*shardOp
	dead   bool // set under mbMu when the owner exits; submissions fail fast
	notify chan struct{}

	// registry of birth-shard sessions. The owner is the main writer, but
	// Close removes entries, and eviction scans remove them or swap their
	// grant in place, from other goroutines, so a shard-local mutex guards
	// it and every session's grant; presence in the map is the settlement
	// token — whoever removes an entry owns ending that session.
	regMu sync.Mutex
	reg   map[int64]*session

	nextID int64      // owner-only id allocator; ids are nextID*nshards+idx
	exp    expiryHeap // owner-only session-deadline heap
	done   chan struct{}
}

// opKind selects what a shardOp asks the owner to do.
type opKind uint8

const (
	opAdmit  opKind = iota // reserve + register one session on an owned server
	opLand                 // rebalance migration: publish a replica
	opEvict                // rebalance eviction: remove a replica
	opRepair               // repair landing: publish a replica, no migration count
)

// shardOp is one pooled mailbox message; it carries a 1-buffered done
// channel the owner signals exactly once.
type shardOp struct {
	kind   opKind
	video  int
	server int
	rate   int64
	verify int64 // expected shard version; -1 disables the snapshot check

	info     SessionInfo
	ok       bool
	conflict bool
	err      error
	done     chan struct{}
}

// rankScratch is the pooled per-request working set of one admission:
// candidate and free-bandwidth slices for the ranker plus the shard-version
// snapshot, so ranking allocates nothing once the pool is warm.
type rankScratch struct {
	cands []int
	frees []int64
	vers  []int64
}

// ranker orders the admission candidates for one request — the lock-free
// decision half of a policy, decoupled from the commit so the sharded
// dispatcher can verify and reserve at the owning shard.
type ranker interface {
	// rank writes video v's candidate servers into sc.cands, most preferred
	// first. Owners re-check eligibility and capacity at commit time, so a
	// ranker's filtering is an optimization, not a safety requirement.
	rank(c *Cluster, v int, rate int64, sc *rankScratch) []int
}

// llRanker mirrors the least-loaded policy: eligible holders with room for
// the stream, most free outgoing bandwidth first (ties to the lower index).
type llRanker struct{}

func (llRanker) rank(c *Cluster, v int, rate int64, sc *rankScratch) []int {
	out, frees := sc.cands[:0], sc.frees[:0]
	for _, s := range c.Holders(v) {
		if c.Draining(s) {
			continue
		}
		f := c.Free(s)
		if f < rate {
			continue
		}
		// Insertion keeps frees descending; holders iterate in ascending
		// server order and ties don't displace, so equal-free candidates
		// stay ordered by index.
		i := len(out)
		out = append(out, 0)
		frees = append(frees, 0)
		for i > 0 && frees[i-1] < f {
			out[i], frees[i] = out[i-1], frees[i-1]
			i--
		}
		out[i], frees[i] = s, f
	}
	sc.cands, sc.frees = out, frees
	return out
}

// rotRanker mirrors static-rr (§3.2) and first-available: a per-video atomic
// cursor advances exactly once per request; probe widens the candidate list
// from the designated holder to the whole rotation.
type rotRanker struct {
	cursor []atomic.Int64
	probe  bool
}

func (r *rotRanker) rank(c *Cluster, v int, rate int64, sc *rankScratch) []int {
	hs := c.Holders(v)
	out := sc.cands[:0]
	if len(hs) == 0 {
		sc.cands = out
		return out
	}
	k := int((r.cursor[v].Add(1) - 1) % int64(len(hs)))
	n := 1
	if r.probe {
		n = len(hs)
	}
	for i := 0; i < n; i++ {
		out = append(out, hs[(k+i)%len(hs)])
	}
	sc.cands = out
	return out
}

// newEngine builds the sharded dispatch runtime and starts one owner
// goroutine per shard. The policy name resolves to a ranker: the three
// lock-free policies run unverified, their sim: forms run with
// snapshot-and-verify commits. Policies without a ranker (and backbone
// redirection, which no ranker models yet) require the single-shard engine.
func newEngine(s *Server, nshard int, polName string) (*engine, error) {
	c := s.c
	if c.Problem().BackboneBandwidth > 0 {
		return nil, fmt.Errorf("serve: sharded dispatch does not support backbone redirection yet; run with 1 shard")
	}
	base, sim := strings.CutPrefix(polName, "sim:")
	if !sim {
		base = polName
	} else {
		e, err := policy.Lookup(base)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		base = e.Name
	}
	var rk ranker
	switch base {
	case "", "least-loaded":
		rk, base = llRanker{}, "least-loaded"
	case "static-rr":
		rk = &rotRanker{cursor: make([]atomic.Int64, c.Videos())}
	case "first-available":
		rk = &rotRanker{cursor: make([]atomic.Int64, c.Videos()), probe: true}
	default:
		if sim {
			return nil, fmt.Errorf("serve: policy %q has no sharded dispatch ranker; run with 1 shard", polName)
		}
		return nil, policy.UnknownServeError(polName)
	}
	name := base
	if sim {
		name = "sim:" + base
	}
	n := c.Servers()
	if nshard > n {
		nshard = n
	}
	eng := &engine{s: s, rk: rk, name: name, verify: sim, shardOf: make([]int, n)}
	for i := 0; i < nshard; i++ {
		sh := &shard{
			eng: eng, idx: i,
			lo: i * n / nshard, hi: (i + 1) * n / nshard,
			notify: make(chan struct{}, 1),
			reg:    make(map[int64]*session),
			done:   make(chan struct{}),
		}
		for b := sh.lo; b < sh.hi; b++ {
			eng.shardOf[b] = i
		}
		eng.shards = append(eng.shards, sh)
	}
	for _, sh := range eng.shards {
		go sh.run()
	}
	s.met.SetShards(nshard)
	return eng, nil
}

// Shards reports how many admission shards the daemon dispatches through
// (1 for the legacy single-shard engine).
func (s *Server) Shards() int {
	if s.eng == nil {
		return 1
	}
	return len(s.eng.shards)
}

// --- pools ---

func (e *engine) getOp() *shardOp {
	if v := e.opPool.Get(); v != nil {
		op := v.(*shardOp)
		*op = shardOp{done: op.done}
		return op
	}
	return &shardOp{done: make(chan struct{}, 1)}
}

func (e *engine) putOp(op *shardOp) { e.opPool.Put(op) }

func (e *engine) getSession() *session {
	if v := e.sessPool.Get(); v != nil {
		return v.(*session)
	}
	return new(session)
}

func (e *engine) putSession(sess *session) {
	*sess = session{}
	e.sessPool.Put(sess)
}

func (e *engine) getScratch() *rankScratch {
	if v := e.scratchPool.Get(); v != nil {
		return v.(*rankScratch)
	}
	return &rankScratch{}
}

func (e *engine) putScratch(sc *rankScratch) { e.scratchPool.Put(sc) }

// --- accounting (version-stamped) ---

// reserve charges one stream onto server b and stamps the owning shard's
// version so snapshot readers observe the commit.
func (e *engine) reserve(b int, rate int64) bool {
	if !e.s.c.TryReserve(b, rate) {
		return false
	}
	e.shards[e.shardOf[b]].version.Add(1)
	return true
}

// release returns a grant's bandwidth. Releases are plain atomic adds, so
// any goroutine may settle a session without routing through the owner; the
// version stamp keeps snapshot readers honest.
func (e *engine) release(g Grant) {
	e.s.c.Release(g.Server, g.Rate)
	e.shards[e.shardOf[g.Server]].version.Add(1)
	if g.Redirected {
		e.s.c.ReleaseBackbone(g.Rate)
	}
}

// --- shard mailbox ---

// submit enqueues op; a dead shard fails it immediately so callers never
// block on a stopped owner.
func (sh *shard) submit(op *shardOp) {
	sh.mbMu.Lock()
	if sh.dead {
		sh.mbMu.Unlock()
		op.err = errShardStopped
		op.done <- struct{}{}
		return
	}
	sh.mb = append(sh.mb, op)
	sh.mbMu.Unlock()
	select {
	case sh.notify <- struct{}{}:
	default:
	}
}

// call submits op and waits for the owner (or the dead-shard fast path) to
// signal completion.
func (sh *shard) call(op *shardOp) {
	sh.submit(op)
	<-op.done
}

// --- owner loop ---

// run is the shard dispatcher: wake on mail or the next session deadline,
// drain the whole accumulated batch, fire due expiries, re-arm the timer.
// The mailbox slice double-buffers with a spare: each drain swaps in the
// previous batch's (fully processed) backing array instead of handing the
// allocator a nil slice, so steady-state dispatch appends into warm memory.
func (sh *shard) run() {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	var spare []*shardOp
	for {
		select {
		case <-sh.eng.s.baseCtx.Done():
			sh.shutdown()
			return
		case <-sh.notify:
		case <-timer.C:
		}
		for {
			sh.mbMu.Lock()
			batch := sh.mb
			if len(batch) == 0 {
				sh.mbMu.Unlock()
				break
			}
			sh.mb = spare
			sh.mbMu.Unlock()
			for i, op := range batch {
				sh.exec(op)
				batch[i] = nil // drop the ref; ops recycle through the pool
			}
			spare = batch[:0]
		}
		sh.fireExpired()
		if len(sh.exp) > 0 {
			d := time.Until(sh.exp[0].at)
			if d < 0 {
				d = 0
			}
			timer.Reset(d)
		} else {
			timer.Reset(time.Hour)
		}
	}
}

func (sh *shard) exec(op *shardOp) {
	switch op.kind {
	case opAdmit:
		sh.execAdmit(op)
	case opLand:
		op.err = sh.execLand(op)
	case opEvict:
		op.err = sh.execEvict(op)
	case opRepair:
		op.ok = sh.execRepair(op)
	}
	op.done <- struct{}{}
}

// execAdmit commits one admission onto an owned server: verify the snapshot
// version (when asked), reserve, register a pooled session, arm its expiry.
func (sh *shard) execAdmit(op *shardOp) {
	e := sh.eng
	if op.verify >= 0 && sh.version.Load() != op.verify {
		op.conflict = true
		return
	}
	if !e.reserve(op.server, op.rate) {
		return
	}
	s := e.s
	sh.nextID++
	id := sh.nextID*int64(len(e.shards)) + int64(sh.idx)
	wall := s.wallDuration(op.video)
	deadline := time.Now().Add(wall)
	sess := e.getSession()
	sess.id = id
	sess.video = op.video
	sess.grant = Grant{Video: op.video, Server: op.server, Source: op.server, Rate: op.rate}
	// The insert publishes sess: an eviction scan may drop and recycle it
	// (putSession zeroes it) before the next line runs, so everything below
	// works from locals and never reads sess again. The gauge counts the
	// session before it is visible so such a drop cannot drive it negative.
	s.activeN.Add(1)
	sh.regMu.Lock()
	sh.reg[id] = sess
	sh.regMu.Unlock()
	sh.exp.push(expiry{at: deadline, id: id})
	op.ok = true
	op.info = SessionInfo{
		ID: id, Video: op.video, Server: op.server, Source: op.server,
		RateBps: op.rate, ExpiresInS: wall.Seconds(),
	}
}

// execLand is LandReplica's owner half: publish the migrated replica so the
// landing serializes with this shard's admission stream.
func (sh *shard) execLand(op *shardOp) error {
	s := sh.eng.s
	v, b := op.video, op.server
	if s.c.State(b) == BackendDown {
		return ErrBackendDown
	}
	if !s.c.AddHolder(v, b) {
		return fmt.Errorf("serve: backend %d already holds video %d", b, v)
	}
	sh.version.Add(1)
	s.met.Migrated()
	s.tracer.Record(obs.Event{TS: s.tracer.NowNS(), Kind: obs.KindRepair,
		Video: v, Server: b, Detail: "replica migrated in"})
	return nil
}

// execEvict is EvictReplica's owner half: same safety ladder as the
// single-shard path (exists → not last live copy → not pinned → remove →
// re-check). Owner serialization covers same-shard admissions; the
// post-removal re-check covers direct failover grants, which land without
// an op.
func (sh *shard) execEvict(op *shardOp) error {
	e := sh.eng
	s := e.s
	v, b := op.video, op.server
	if !holds(s.c, v, b) {
		return ErrNoReplica
	}
	live := 0
	for _, h := range s.c.Holders(v) {
		if h != b && s.c.State(h) != BackendDown {
			live++
		}
	}
	if live == 0 {
		return ErrLastReplica
	}
	if e.pinnedSessions(v, b) > 0 {
		return ErrReplicaPinned
	}
	if !s.c.RemoveHolder(v, b) {
		return ErrLastReplica
	}
	sh.version.Add(1)
	if e.pinnedSessions(v, b) > 0 {
		s.c.AddHolder(v, b)
		sh.version.Add(1)
		return ErrReplicaPinned
	}
	s.met.Evicted()
	s.tracer.Record(obs.Event{TS: s.tracer.NowNS(), Kind: obs.KindRepair,
		Video: v, Server: b, Detail: "replica evicted"})
	return nil
}

// execRepair is the repairer's settle half: publish the re-replicated copy.
// The caller (settleCopy) owns metrics and journaling.
func (sh *shard) execRepair(op *shardOp) bool {
	if !sh.eng.s.c.AddHolder(op.video, op.server) {
		return false
	}
	sh.version.Add(1)
	return true
}

// fireExpired settles every session whose deadline passed. Stale entries —
// sessions already closed or dropped — find no registry entry and are skipped.
func (sh *shard) fireExpired() {
	now := time.Now()
	for len(sh.exp) > 0 && !sh.exp[0].at.After(now) {
		sh.settle(sh.exp.popMin().id, true)
	}
}

// settle ends session id exactly once: registry removal is the settlement
// token, so an expiry firing, a client Close, an eviction scan, and the
// shutdown flush can all race and exactly one of them releases the grant.
func (sh *shard) settle(id int64, natural bool) bool {
	sh.regMu.Lock()
	sess, ok := sh.reg[id]
	if ok {
		delete(sh.reg, id)
	}
	sh.regMu.Unlock()
	if !ok {
		return false
	}
	e := sh.eng
	s := e.s
	s.activeN.Add(-1)
	g := sess.grant
	video := sess.video
	e.release(g)
	e.putSession(sess)
	if natural {
		s.met.Completed()
		s.tracer.Record(obs.Event{TS: s.tracer.NowNS(), Kind: obs.KindEnd,
			Session: id, Video: video, Server: g.Server})
	} else {
		s.met.Canceled()
		s.tracer.Record(obs.Event{TS: s.tracer.NowNS(), Kind: obs.KindTear,
			Session: id, Video: video, Server: g.Server, Detail: "canceled"})
	}
	return true
}

// shutdown fails queued ops, settles every registered session as canceled
// (the daemon-shutdown semantics of the legacy engine's context cancel), and
// signals done.
func (sh *shard) shutdown() {
	sh.mbMu.Lock()
	sh.dead = true
	batch := sh.mb
	sh.mb = nil
	sh.mbMu.Unlock()
	for _, op := range batch {
		op.err = errShardStopped
		op.done <- struct{}{}
	}
	sh.regMu.Lock()
	ids := make([]int64, 0, len(sh.reg))
	for id := range sh.reg {
		ids = append(ids, id)
	}
	sh.regMu.Unlock()
	for _, id := range ids {
		sh.settle(id, false)
	}
	close(sh.done)
}

// --- engine-level request paths ---

// attempt is the sharded counterpart of Server.attempt: rank candidates
// lock-free, submit the commit to the owning shard, retry on snapshot
// conflicts, settle exactly one decision.
func (e *engine) attempt(v int, arriveNS int64, settleReject bool) (SessionInfo, Outcome) {
	s := e.s
	start := time.Now()
	s.met.ObserveQueueDepth(float64(s.activeN.Load()))
	if s.draining.Load() {
		s.met.Decision(false, false, true, time.Since(start))
		s.tracer.Record(obs.Event{TS: arriveNS, Kind: obs.KindDrain, Video: v,
			DurNS: s.tracer.NowNS() - arriveNS})
		return SessionInfo{}, OutcomeDraining
	}
	rate := s.c.Rate(v)
	sc := e.getScratch()
	defer e.putScratch(sc)
	for try := 0; ; try++ {
		verify := e.verify && try < maxSnapshotRetries
		if verify {
			vers := sc.vers[:0]
			for _, sh := range e.shards {
				vers = append(vers, sh.version.Load())
			}
			sc.vers = vers
		}
		cands := e.rk.rank(s.c, v, rate, sc)
		conflict := false
		for _, b := range cands {
			sh := e.shards[e.shardOf[b]]
			op := e.getOp()
			op.kind, op.video, op.server, op.rate = opAdmit, v, b, rate
			op.verify = -1
			if verify {
				op.verify = sc.vers[sh.idx]
			}
			sh.call(op)
			ok, conf, err, info := op.ok, op.conflict, op.err, op.info
			e.putOp(op)
			if err != nil { // shard stopped: the daemon is shutting down
				s.met.Decision(false, false, true, time.Since(start))
				s.tracer.Record(obs.Event{TS: arriveNS, Kind: obs.KindDrain, Video: v,
					DurNS: s.tracer.NowNS() - arriveNS})
				return SessionInfo{}, OutcomeDraining
			}
			if conf {
				conflict = true
				break
			}
			if ok {
				s.met.Decision(true, false, false, time.Since(start))
				s.tracer.Record(obs.Event{TS: arriveNS, Kind: obs.KindAdmit,
					Session: info.ID, Video: v, Server: info.Server,
					DurNS: s.tracer.NowNS() - arriveNS})
				return info, OutcomeAccepted
			}
		}
		if conflict {
			s.met.SnapshotConflict()
			continue // re-decide against a fresh snapshot
		}
		if settleReject {
			s.met.Decision(false, false, false, time.Since(start))
			s.tracer.Record(obs.Event{TS: arriveNS, Kind: obs.KindReject, Video: v,
				DurNS: s.tracer.NowNS() - arriveNS})
		}
		return SessionInfo{}, OutcomeRejected
	}
}

// close ends session id early; ids route to their birth shard's registry.
func (e *engine) close(id int64) bool {
	if id < 0 {
		return false
	}
	return e.shards[int(id%int64(len(e.shards)))].settle(id, false)
}

// pinnedSessions counts sessions of v served by or sourced from b across
// every shard registry.
func (e *engine) pinnedSessions(v, b int) int {
	n := 0
	for _, sh := range e.shards {
		sh.regMu.Lock()
		for _, sess := range sh.reg {
			if sess.video == v && (sess.grant.Server == b || sess.grant.Source == b) {
				n++
			}
		}
		sh.regMu.Unlock()
	}
	return n
}

// evictSessions is the sharded eviction scan: Server.evictSessions'
// snapshot-and-settle algorithm over k registries. A session never leaves
// its registry while it is live — failover swaps its grant in place — so a
// racing Close or expiry always finds it and settles whichever grant is
// current, and its deadline (hence its one heap entry) does not change. The
// snapshot carries (id, video) pairs, never *session: sessions are pooled,
// and one that ends after the snapshot may already be another admission's.
// The loop repeats until no session references b, catching failovers that
// land onto b concurrently.
func (e *engine) evictSessions(b int, cause string) (failedOver, dropped int) {
	s := e.s
	type ref struct {
		id    int64
		video int
	}
	var affected []ref
	for {
		affected = affected[:0]
		for _, sh := range e.shards {
			sh.regMu.Lock()
			for id, sess := range sh.reg {
				if sess.grant.Server == b || sess.grant.Source == b {
					affected = append(affected, ref{id, sess.video})
				}
			}
			sh.regMu.Unlock()
		}
		if len(affected) == 0 {
			return failedOver, dropped
		}
		for _, r := range affected {
			ng, ok := failoverMostFree(s.c, r.video, b)
			if ok {
				e.shards[e.shardOf[ng.Server]].version.Add(1)
			}
			sh := e.shards[int(r.id%int64(len(e.shards)))]
			sh.regMu.Lock()
			sess, live := sh.reg[r.id]
			if !live || (sess.grant.Server != b && sess.grant.Source != b) {
				// Ended or moved concurrently; undo our failover reservation.
				sh.regMu.Unlock()
				if ok {
					e.release(ng)
				}
				continue
			}
			// The target can be drained or crashed between our reservation
			// and this commit, and its own eviction scan may already have
			// passed this registry — so never commit a grant onto an
			// ineligible server; drop the session instead. The state read
			// happens under the lock that scan takes too, so one of the two
			// always sees the other.
			moved := ok && s.c.Eligible(ng.Server)
			old := sess.grant
			if moved {
				sess.grant = ng
			} else {
				delete(sh.reg, r.id)
			}
			sh.regMu.Unlock()
			e.release(old)
			if moved {
				s.met.FailedOver()
				s.tracer.Record(obs.Event{TS: s.tracer.NowNS(), Kind: obs.KindFailover,
					Session: r.id, Video: r.video, Server: ng.Server,
					Detail: "from server " + fmt.Sprint(b)})
				failedOver++
				continue
			}
			if ok {
				e.release(ng)
			}
			s.activeN.Add(-1)
			e.putSession(sess)
			s.met.Dropped()
			s.tracer.Record(obs.Event{TS: s.tracer.NowNS(), Kind: obs.KindTear,
				Session: r.id, Video: r.video, Server: b, Detail: cause})
			dropped++
		}
	}
}

// drain waits for the active sessions to expire naturally; on ctx expiry the
// owners are stopped, which force-settles the remainder.
func (e *engine) drain(ctx context.Context) error {
	t := time.NewTicker(2 * time.Millisecond)
	defer t.Stop()
	for {
		if e.s.activeN.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			e.s.baseStop()
			e.wait()
			return fmt.Errorf("serve: drain timed out; %w", ctx.Err())
		case <-t.C:
		}
	}
}

// wait blocks until every shard owner has exited (after baseStop).
func (e *engine) wait() {
	for _, sh := range e.shards {
		<-sh.done
	}
}

// landReplica routes a rebalance migration through b's owner.
func (e *engine) landReplica(v, b int) error {
	sh := e.shards[e.shardOf[b]]
	op := e.getOp()
	op.kind, op.video, op.server = opLand, v, b
	sh.call(op)
	err := op.err
	e.putOp(op)
	return err
}

// evictReplica routes a rebalance eviction through b's owner.
func (e *engine) evictReplica(v, b int) error {
	sh := e.shards[e.shardOf[b]]
	op := e.getOp()
	op.kind, op.video, op.server = opEvict, v, b
	sh.call(op)
	err := op.err
	e.putOp(op)
	return err
}

// landRepair routes a repair-copy landing through dst's owner; it reports
// whether the copy became a new replica.
func (e *engine) landRepair(v, dst int) bool {
	sh := e.shards[e.shardOf[dst]]
	op := e.getOp()
	op.kind, op.video, op.server = opRepair, v, dst
	sh.call(op)
	ok := op.ok && op.err == nil
	e.putOp(op)
	return ok
}

// expiry is one deadline entry, pushed once at admission; entries are lazy —
// settlement consults the registry, so the entry of a session that already
// ended is a no-op.
type expiry struct {
	at time.Time
	id int64
}

// expiryHeap is a hand-rolled binary min-heap on the deadline. It
// deliberately does not implement container/heap: heap.Push takes its
// element through an interface value, which boxes the expiry struct onto the
// heap on every admission — one avoidable allocation on the owner's hot
// path. The sift loops below move value types only.
type expiryHeap []expiry

// push adds e and restores the heap order (sift up).
func (h *expiryHeap) push(e expiry) {
	*h = append(*h, e)
	hs := *h
	i := len(hs) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !hs[i].at.Before(hs[parent].at) {
			break
		}
		hs[i], hs[parent] = hs[parent], hs[i]
		i = parent
	}
}

// popMin removes and returns the earliest entry (sift down). The caller
// checks len > 0 first.
func (h *expiryHeap) popMin() expiry {
	hs := *h
	top := hs[0]
	n := len(hs) - 1
	hs[0] = hs[n]
	hs = hs[:n]
	*h = hs
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && hs[l].at.Before(hs[min].at) {
			min = l
		}
		if r < n && hs[r].at.Before(hs[min].at) {
			min = r
		}
		if min == i {
			return top
		}
		hs[i], hs[min] = hs[min], hs[i]
		i = min
	}
}
