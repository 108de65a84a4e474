package sim

import (
	"sync"

	"vodcluster/internal/cluster"
)

// runBuffers is the storage one run grows and the next can reuse: the
// engine's queues, the two stream-ID tables, and the session slabs. A sweep
// is hundreds of runs of similar size, and re-growing (and re-faulting)
// about a megabyte for each costs more than simulating it.
//
// Only buffers are recycled — never the run, its Engine or its cluster.State,
// which are built fresh for every run and merely lent this storage for their
// lifetime (run.swapBuffers). What a recycled buffer still holds is dead by
// construction: reset empties the queues and tables, and a slab record is
// overwritten when it is handed out again. The one thing that outlives a run
// inside a buffer is therefore a *Session, which is why Hook limits its
// validity to the run.
type runBuffers struct {
	eng      engineBuffers
	streams  cluster.StreamTable[cluster.Stream]
	sessions cluster.StreamTable[*Session]
	slab     sessionSlab
}

func (b *runBuffers) reset() {
	b.eng.reset()
	b.streams.Reset()
	b.sessions.Reset()
	b.slab.reset()
}

// maxPooled is the size, in entries (events, table slots, session records),
// past which a buffer is not worth keeping: a set with such a buffer is left
// to the collector instead of going back to the pool — the rule fmt applies
// to its pooled print buffers. The pool is there for sweeps of many runs,
// where re-growing the buffers costs as much as the simulation; it must not
// leave a process that replays one long trace now and then (the daemon's
// live-vs-sim cross-check) megabytes heavier for it. 8192 is over twice the
// sessions the paper's cluster carries at saturation, so every run of the
// figures is recycled.
const maxPooled = 8192

func (b *runBuffers) poolable() bool {
	return cap(b.eng.heap) <= maxPooled && len(b.eng.lane) <= maxPooled && cap(b.eng.closures) <= maxPooled &&
		b.streams.Cap() <= maxPooled && b.sessions.Cap() <= maxPooled &&
		len(b.slab.chunks)*sessionSlabSize <= maxPooled
}

// bufferPool holds the buffers of finished runs. A sync.Pool keeps about one
// set per P in use and drops idle ones at the next collections.
var bufferPool = sync.Pool{New: func() any { return new(runBuffers) }}

// sessionSlabSize is the number of Session records per slab chunk.
const sessionSlabSize = 512

// sessionSlab hands out Session records from fixed-size chunks instead of
// one heap object per admission. Records are never handed back within a run
// (a *Session stays valid until the run's OnDone), so a run's slab memory is
// its admission count × 48 B; reset makes every chunk available again.
// Session holds no pointers, so the collector does not scan the chunks.
type sessionSlab struct {
	chunks [][]Session
	chunk  int // index of the chunk being handed out
	used   int // records handed out from it
}

// alloc returns a record for the caller to overwrite; it is not zeroed.
func (s *sessionSlab) alloc() *Session {
	if s.used == sessionSlabSize {
		s.chunk++
		s.used = 0
	}
	if s.chunk == len(s.chunks) {
		s.chunks = append(s.chunks, make([]Session, sessionSlabSize))
	}
	rec := &s.chunks[s.chunk][s.used]
	s.used++
	return rec
}

func (s *sessionSlab) reset() { s.chunk, s.used = 0, 0 }
