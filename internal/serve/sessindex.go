package serve

import "math/bits"

// sessionIndex is one partition's live sessions by id (DESIGN.md §15): an
// open-addressed hash table with linear probing, parallel key and value
// slices, a power-of-two size and a load factor of at most one half.
// Deletes shift the following run back instead of leaving tombstones, so a
// lookup never scans past slots that were freed. The table doubles when it
// fills and never shrinks. The zero value is an empty table. Session ids
// are positive; key 0 marks an empty slot.
//
// A partition's ids step by 2^b from its index (the low b bits name the
// partition), so the slot is a multiplicative (Fibonacci) hash of the id.
// Slotting by id >> b would pack the live ids into one contiguous run, and
// every lookup of a closed session's stale id — compact does one per heap
// entry — would then scan that whole run.
type sessionIndex struct {
	keys  []int64
	vals  []*session
	n     int   // sessions in the table
	shift uint8 // 64 - log2(len(keys))
}

// minIndexSize is the table size of the first insert.
const minIndexSize = 64

// slot is id's home slot.
func (t *sessionIndex) slot(id int64) int {
	return int(uint64(id) * 0x9E3779B97F4A7C15 >> t.shift)
}

// get returns session id, or nil when it is not in the table.
func (t *sessionIndex) get(id int64) *session {
	if t.n == 0 {
		return nil
	}
	mask := len(t.keys) - 1
	for i := t.slot(id); ; i = (i + 1) & mask {
		switch t.keys[i] {
		case id:
			return t.vals[i]
		case 0:
			return nil
		}
	}
}

// put adds session sess under id > 0, which must not be in the table.
func (t *sessionIndex) put(id int64, sess *session) {
	if 2*(t.n+1) > len(t.keys) {
		t.grow()
	}
	mask := len(t.keys) - 1
	i := t.slot(id)
	for t.keys[i] != 0 {
		i = (i + 1) & mask
	}
	t.keys[i], t.vals[i] = id, sess
	t.n++
}

// grow doubles the table (or allocates the first one) and reinserts every
// entry.
func (t *sessionIndex) grow() {
	keys, vals := t.keys, t.vals
	size := max(2*len(keys), minIndexSize)
	t.keys, t.vals = make([]int64, size), make([]*session, size)
	t.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	t.n = 0
	for i, id := range keys {
		if id != 0 {
			t.put(id, vals[i])
		}
	}
}

// del removes session id and returns it, or returns nil when it is not in
// the table. Each entry after the freed slot in its probe run moves back
// into the hole when the hole lies between the entry's home slot and its
// current slot, so every remaining entry stays reachable from its home.
func (t *sessionIndex) del(id int64) *session {
	if t.n == 0 {
		return nil
	}
	mask := len(t.keys) - 1
	i := t.slot(id)
	for t.keys[i] != id {
		if t.keys[i] == 0 {
			return nil
		}
		i = (i + 1) & mask
	}
	sess := t.vals[i]
	for j := (i + 1) & mask; t.keys[j] != 0; j = (j + 1) & mask {
		if home := t.slot(t.keys[j]); (j-home)&mask >= (j-i)&mask {
			t.keys[i], t.vals[i] = t.keys[j], t.vals[j]
			i = j
		}
	}
	t.keys[i], t.vals[i] = 0, nil
	t.n--
	return sess
}

// each calls fn for every session, in slot order. fn must not change the
// table.
func (t *sessionIndex) each(fn func(*session)) {
	for i, id := range t.keys {
		if id != 0 {
			fn(t.vals[i])
		}
	}
}
