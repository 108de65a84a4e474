package serve

// Session registry (DESIGN.md §15). Server.attempt decides and reserves on
// the calling goroutine, then registers the pooled session in the caller's
// home partition under that partition's lock — every ingress connection has
// one, picked round-robin at accept; a caller without a connection gets one
// round-robin per admission — which hands out the session id from its own
// sequence and pushes (deadline, id) onto the partition's expiry heap in the
// same critical section. The id's low bits name the partition, so a Close
// finds it without a table. Each partition has one goroutine and one timer
// that only fire expiries; an admission wakes it only when its push becomes
// the new heap top, which with equal-length titles is rare.
//
// Presence in a partition's session index is the settlement token: natural
// expiry, a client Close, an eviction scan and the shutdown flush race to
// remove the entry, and whichever removes it releases the grant. A live session never
// leaves its partition — failover swaps its grant in place — so the heap
// entry pushed at admission is the only one it ever has.

import (
	"cmp"
	"math/bits"
	"slices"
	"sync"
	"time"

	"vodcluster/internal/obs"
)

// partition is one slice of the session registry with its expiry queue.
type partition struct {
	s   *Server
	idx int64      // this partition's index, the low bits of its session ids
	tel *partStats // this partition's telemetry row

	mu        sync.Mutex
	reg       sessionIndex
	exp       expiryHeap
	seq       int64 // ids handed out; the next is (seq+1)<<idBits | idx
	compactAt int   // heap length at which compact runs
	dead      bool  // set by the shutdown flush; later inserts are refused

	wake chan struct{} // 1-buffered: an insert moved the heap top earlier
	done chan struct{} // closed when the expiry goroutine has flushed and exited
}

// startPartitions builds k registry partitions over the metrics' k rows and
// starts their expiry goroutines.
func (s *Server) startPartitions(k int) {
	s.parts = make([]*partition, k)
	s.idBits = uint8(bits.Len(uint(k - 1)))
	for i := range s.parts {
		p := &partition{
			s:         s,
			idx:       int64(i),
			tel:       &s.met.rows[i],
			compactAt: compactSlack,
			wake:      make(chan struct{}, 1),
			done:      make(chan struct{}),
		}
		s.parts[i] = p
		go p.run()
	}
	s.met.SetShards(k)
}

// Shards reports how many registry partitions the daemon runs.
func (s *Server) Shards() int { return len(s.parts) }

// partOf returns the partition that registered session id, or nil when the
// id names no partition.
func (s *Server) partOf(id int64) *partition {
	if i := id & (1<<s.idBits - 1); i < int64(len(s.parts)) {
		return s.parts[i]
	}
	return nil
}

// nextHome picks the next partition round-robin: the home of a new ingress
// connection, or of one admission by a caller without a connection.
func (s *Server) nextHome() *partition {
	return s.parts[(s.homes.Add(1)-1)%uint64(len(s.parts))]
}

// waitPartitions blocks until every expiry goroutine has exited (after
// baseStop).
func (s *Server) waitPartitions() {
	for _, p := range s.parts {
		<-p.done
	}
}

func (s *Server) getSession() *session {
	if v := s.sessPool.Get(); v != nil {
		return v.(*session)
	}
	return new(session)
}

func (s *Server) putSession(sess *session) {
	*sess = session{}
	s.sessPool.Put(sess)
}

// insertResult is how a registry insert ended.
type insertResult uint8

const (
	inserted      insertResult = iota
	insertEvicted              // g.Source no longer holds the video
	insertStopped              // the partition has shut down
)

// insert registers grant g as a live session expiring at deadline (nowNS
// time) and returns its id, the partition's next. It re-checks that g.Source
// still holds the video under the partition lock: EvictReplica removes the
// holder before its pinned-session re-check, which takes this lock, so either
// that re-check sees the session and rolls the eviction back, or this check
// sees the removal and the caller decides again. A refused insert uses up its
// id, as a refused admission always has, so one caller's ids stay in
// admission order across partitions whatever is refused.
func (p *partition) insert(g Grant, deadline int64) (int64, insertResult) {
	s := p.s
	sess := s.getSession()
	sess.video, sess.grant = g.Video, g
	p.mu.Lock()
	p.seq++
	id := p.seq<<s.idBits | p.idx
	if p.dead || !holds(s.c, g.Video, g.Source) {
		res := insertEvicted
		if p.dead {
			res = insertStopped
		}
		p.mu.Unlock()
		s.putSession(sess)
		return 0, res
	}
	sess.id = id
	// Counted before it is visible, so an eviction scan that drops it at once
	// cannot drive the gauge negative.
	p.tel.active.Add(1)
	p.reg.put(id, sess)
	top := p.exp.push(expiry{at: deadline, id: id})
	if len(p.exp) >= p.compactAt {
		p.compact()
	}
	p.mu.Unlock()
	if top {
		select {
		case p.wake <- struct{}{}:
		default:
		}
	}
	return id, inserted
}

// compactSlack is the heap length below which a partition never compacts.
const compactSlack = 1024

// compact drops the heap entries of sessions that already ended, so sessions
// closed before their deadline do not hold an entry until it passes. It
// runs under p.mu once the heap has grown to twice the live sessions plus
// compactSlack, so each push pays for an amortized constant number of
// visited entries. Dropping entries can only make the earliest deadline
// later, so the armed timer at worst fires early.
func (p *partition) compact() {
	live := p.exp[:0]
	for _, e := range p.exp {
		if p.reg.get(e.id) != nil {
			live = append(live, e)
		}
	}
	p.exp = live
	p.exp.heapify()
	p.compactAt = 2*len(live) + compactSlack
}

// settle ends session id exactly once: whoever removes the registry entry
// releases its grant.
func (p *partition) settle(id int64, natural bool) bool {
	p.mu.Lock()
	sess := p.reg.del(id)
	p.mu.Unlock()
	if sess != nil {
		p.end(sess, natural)
	}
	return sess != nil
}

// end releases a session that the partition's settler has just removed from
// the registry, counts how it ended, and recycles the record. natural reports
// a completed playback rather than a close or shutdown.
func (p *partition) end(sess *session, natural bool) {
	s := p.s
	id, video, g := sess.id, sess.video, sess.grant
	s.putSession(sess)
	s.pol.Release(g)
	p.tel.active.Add(-1)
	p.tel.ended(natural)
	if natural {
		s.tracer.Record(obs.Event{TS: s.tracer.NowNS(), Kind: obs.KindEnd,
			Session: id, Video: video, Server: g.Server})
	} else {
		s.tracer.Record(obs.Event{TS: s.tracer.NowNS(), Kind: obs.KindTear,
			Session: id, Video: video, Server: g.Server, Detail: "canceled"})
	}
}

// run is the partition's expiry goroutine: wake at the next deadline or on
// a new heap top, settle what is due, re-arm the timer.
func (p *partition) run() {
	defer close(p.done)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		select {
		case <-p.s.baseCtx.Done():
			p.shutdown()
			return
		case <-p.wake:
		case <-timer.C:
		}
		timer.Reset(p.fireExpired())
	}
}

// fireExpired settles every session whose deadline has passed and returns
// the wait until the next one. Entries of sessions that already ended find
// no registry entry and are skipped.
func (p *partition) fireExpired() time.Duration {
	now := p.s.nowNS()
	for {
		p.mu.Lock()
		if len(p.exp) == 0 {
			p.mu.Unlock()
			return time.Hour
		}
		if at := p.exp[0].at; at > now {
			p.mu.Unlock()
			return time.Duration(max(at-p.s.nowNS(), 0))
		}
		sess := p.reg.del(p.exp.popMin().id)
		p.mu.Unlock()
		if sess != nil {
			p.end(sess, true)
		}
	}
}

// shutdown refuses further inserts and settles every registered session as
// canceled, in ID order (admission order for one caller's sessions).
func (p *partition) shutdown() {
	p.mu.Lock()
	p.dead = true
	live := make([]*session, 0, p.reg.n)
	p.reg.each(func(sess *session) { live = append(live, sess) })
	p.reg = sessionIndex{}
	p.exp = nil
	p.mu.Unlock()
	slices.SortFunc(live, func(x, y *session) int { return cmp.Compare(x.id, y.id) })
	for _, sess := range live {
		p.end(sess, false)
	}
}

// PinnedSessions counts live sessions pinned to video v's replica on backend
// b: sessions streaming v from b's outgoing link plus redirected sessions of
// v sourced from b's copy. A pinned replica must not be evicted.
func (s *Server) PinnedSessions(v, b int) int {
	n := 0
	for _, p := range s.parts {
		p.mu.Lock()
		p.reg.each(func(sess *session) {
			if sess.video == v && (sess.grant.Server == b || sess.grant.Source == b) {
				n++
			}
		})
		p.mu.Unlock()
	}
	return n
}

// expiry is one deadline entry, pushed once at admission; entries are lazy —
// settlement consults the registry, so the entry of a session that already
// ended is a no-op. at is in nowNS time.
type expiry struct {
	at int64
	id int64
}

// expiryHeap is a hand-rolled binary min-heap on the deadline. It
// deliberately does not implement container/heap: heap.Push takes its
// element through an interface value, which boxes the expiry struct onto the
// heap on every admission. The sift loops below move value types only.
type expiryHeap []expiry

// push adds e, restores the heap order (sift up), and reports whether e is
// the new earliest entry.
func (h *expiryHeap) push(e expiry) bool {
	*h = append(*h, e)
	hs := *h
	i := len(hs) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if hs[i].at >= hs[parent].at {
			break
		}
		hs[i], hs[parent] = hs[parent], hs[i]
		i = parent
	}
	return i == 0
}

// popMin removes and returns the earliest entry. The caller checks len > 0
// first.
func (h *expiryHeap) popMin() expiry {
	hs := *h
	top := hs[0]
	n := len(hs) - 1
	hs[0] = hs[n]
	*h = hs[:n]
	h.down(0)
	return top
}

// heapify restores the heap order of an arbitrary slice.
func (h expiryHeap) heapify() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// down sifts entry i toward the leaves until its children are later.
func (h expiryHeap) down(i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && h[l].at < h[min].at {
			min = l
		}
		if r < n && h[r].at < h[min].at {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}
