package serve

// Session registry (DESIGN.md §15). Server.attempt decides and reserves on
// the calling goroutine, then registers the pooled session in partition
// id mod k under that partition's lock and pushes (deadline, id) onto the
// partition's expiry heap in the same critical section. Each partition has
// one goroutine and one timer that only fire expiries; an admission wakes it
// only when its push becomes the new heap top, which with equal-length
// titles is rare.
//
// Presence in a partition's map is the settlement token: natural expiry, a
// client Close, an eviction scan and the shutdown flush race to remove the
// entry, and whichever removes it releases the grant. A live session never
// leaves its partition — failover swaps its grant in place — so the heap
// entry pushed at admission is the only one it ever has.

import (
	"sync"
	"time"
)

// partition is one slice of the session registry with its expiry queue.
type partition struct {
	s *Server

	mu        sync.Mutex
	reg       map[int64]*session
	exp       expiryHeap
	compactAt int  // heap length at which compact runs
	dead      bool // set by the shutdown flush; later inserts are refused

	wake chan struct{} // 1-buffered: an insert moved the heap top earlier
	done chan struct{} // closed when the expiry goroutine has flushed and exited
}

// startPartitions builds k registry partitions and starts their expiry
// goroutines.
func (s *Server) startPartitions(k int) {
	s.parts = make([]*partition, k)
	for i := range s.parts {
		p := &partition{
			s:         s,
			reg:       make(map[int64]*session),
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

// partOf returns the partition that registers session id.
func (s *Server) partOf(id int64) *partition { return s.parts[id%int64(len(s.parts))] }

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

// insert registers grant g as live session id expiring at deadline. It
// re-checks that g.Source still holds the video under the partition lock:
// EvictReplica removes the holder before its pinned-session re-check, which
// takes this lock, so either that re-check sees the session and rolls the
// eviction back, or this check sees the removal and the caller decides again.
func (p *partition) insert(id int64, g Grant, deadline time.Time) insertResult {
	s := p.s
	sess := s.getSession()
	sess.id, sess.video, sess.grant = id, g.Video, g
	p.mu.Lock()
	if p.dead || !holds(s.c, g.Video, g.Source) {
		res := insertEvicted
		if p.dead {
			res = insertStopped
		}
		p.mu.Unlock()
		s.putSession(sess)
		return res
	}
	// Counted before it is visible, so an eviction scan that drops it at once
	// cannot drive the gauge negative.
	s.activeN.Add(1)
	p.reg[id] = sess
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
	return inserted
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
		if _, ok := p.reg[e.id]; ok {
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
	sess, ok := p.reg[id]
	if ok {
		delete(p.reg, id)
	}
	p.mu.Unlock()
	if ok {
		p.s.end(sess, natural)
	}
	return ok
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
	now := time.Now()
	for {
		p.mu.Lock()
		if len(p.exp) == 0 {
			p.mu.Unlock()
			return time.Hour
		}
		if p.exp[0].at.After(now) {
			d := time.Until(p.exp[0].at)
			p.mu.Unlock()
			return max(d, 0)
		}
		id := p.exp.popMin().id
		sess, ok := p.reg[id]
		if ok {
			delete(p.reg, id)
		}
		p.mu.Unlock()
		if ok {
			p.s.end(sess, true)
		}
	}
}

// shutdown refuses further inserts and settles every registered session as
// canceled.
func (p *partition) shutdown() {
	p.mu.Lock()
	p.dead = true
	live := make([]*session, 0, len(p.reg))
	for _, sess := range p.reg {
		live = append(live, sess)
	}
	clear(p.reg)
	p.exp = nil
	p.mu.Unlock()
	for _, sess := range live {
		p.s.end(sess, false)
	}
}

// PinnedSessions counts live sessions pinned to video v's replica on backend
// b: sessions streaming v from b's outgoing link plus redirected sessions of
// v sourced from b's copy. A pinned replica must not be evicted.
func (s *Server) PinnedSessions(v, b int) int {
	n := 0
	for _, p := range s.parts {
		p.mu.Lock()
		for _, sess := range p.reg {
			if sess.video == v && (sess.grant.Server == b || sess.grant.Source == b) {
				n++
			}
		}
		p.mu.Unlock()
	}
	return n
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
		if !hs[i].at.Before(hs[parent].at) {
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
		if l < n && h[l].at.Before(h[min].at) {
			min = l
		}
		if r < n && h[r].at.Before(h[min].at) {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}
