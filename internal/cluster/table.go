package cluster

// StreamTable maps StreamIDs to values without hashing. It leans on the one
// property stream handles already have: they are handed out in ascending
// order. The table is a power-of-two ring of slots covering the ID window
// oldest-live … newest, so Put, Get and Delete are one mask and one index,
// and Each walks the window in ascending ID — that is, admission — order.
//
// Memory is the ID span (newest − oldest live + 1, rounded up to a power of
// two), not the live count. The two agree when entries are deleted in the
// order they were put, as the paper's equal-length sessions are; in general
// the span is at most the number of IDs handed out during the longest-lived
// entry's life — arrival rate × longest title for a cluster.State, however
// long the State itself lives. An entry that is never deleted pins the
// window and the table then grows with every Put, so the table suits
// sessions that end, not a registry of permanent records.
//
// The zero value is an empty table. A StreamTable is not safe for concurrent
// use.
type StreamTable[T any] struct {
	slots []tableSlot[T] // len is 0 or a power of two ≥ next − base
	base  StreamID       // every live ID is in [base, next); slots outside are dead
	next  StreamID       // one past the newest ID put
	live  int
}

type tableSlot[T any] struct {
	v    T
	live bool
}

// minTableSlots is the first allocation; growth doubles from there.
const minTableSlots = 16

// Len returns the number of live entries.
func (t *StreamTable[T]) Len() int { return t.live }

// Cap returns the number of slots allocated — the table's memory, in entries.
func (t *StreamTable[T]) Cap() int { return len(t.slots) }

// Put stores v under id, which must be larger than every ID put before
// (stream handles are monotone; anything else is a caller bug and panics).
// IDs may skip values.
func (t *StreamTable[T]) Put(id StreamID, v T) {
	if id < t.next {
		panic("cluster: stream table IDs must ascend")
	}
	if t.live == 0 {
		t.base = id
	}
	if span := int(id-t.base) + 1; span > len(t.slots) {
		t.grow(span)
	}
	t.slots[int(id)&(len(t.slots)-1)] = tableSlot[T]{v: v, live: true}
	t.next = id + 1
	t.live++
}

// grow re-seats the live window in a ring of at least span slots.
func (t *StreamTable[T]) grow(span int) {
	n := len(t.slots)
	if n < minTableSlots {
		n = minTableSlots
	}
	for n < span {
		n *= 2
	}
	slots := make([]tableSlot[T], n)
	if t.live > 0 {
		old := t.slots
		for id := t.base; id < t.next; id++ {
			if s := old[int(id)&(len(old)-1)]; s.live {
				slots[int(id)&(n-1)] = s
			}
		}
	}
	t.slots = slots
}

// Get returns the value stored under id; ok is false for an ID that was
// never put or has been deleted.
func (t *StreamTable[T]) Get(id StreamID) (v T, ok bool) {
	if id < t.base || id >= t.next {
		return v, false
	}
	s := &t.slots[int(id)&(len(t.slots)-1)]
	return s.v, s.live
}

// Delete removes id and reports whether it was live. The slot is zeroed, so
// a pointer-typed value is released to the collector.
func (t *StreamTable[T]) Delete(id StreamID) bool {
	if id < t.base || id >= t.next {
		return false
	}
	mask := len(t.slots) - 1
	s := &t.slots[int(id)&mask]
	if !s.live {
		return false
	}
	*s = tableSlot[T]{}
	t.live--
	// Each ID is stepped over once in the table's life, so the walk is O(1)
	// amortized; it is what keeps the window at the live span.
	for t.base < t.next && !t.slots[int(t.base)&mask].live {
		t.base++
	}
	return true
}

// Each calls fn for every live entry in ascending ID order. fn must not
// modify the table.
func (t *StreamTable[T]) Each(fn func(id StreamID, v T)) {
	for id := t.base; id < t.next; id++ {
		if s := &t.slots[int(id)&(len(t.slots)-1)]; s.live {
			fn(id, s.v)
		}
	}
}

// Reset empties the table and restarts the ID window at zero, keeping the
// slots for reuse.
func (t *StreamTable[T]) Reset() {
	if t.live > 0 {
		clear(t.slots)
	}
	t.base, t.next, t.live = 0, 0, 0
}
