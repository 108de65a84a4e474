package serve

import (
	"math/rand/v2"
	"testing"
)

// indexOracle drives a sessionIndex and a map[int64]*session side by side
// and fails at the first call on which they disagree. Ids come from one
// residue class mod k, the ids one registry partition sees.
type indexOracle struct {
	t    testing.TB
	idx  sessionIndex
	ref  map[int64]*session
	ids  []int64 // every id ever put, live or stale
	next int64   // the next fresh id
	k    int64
}

func newIndexOracle(t testing.TB, k, residue int64) *indexOracle {
	return &indexOracle{t: t, ref: make(map[int64]*session), next: k + residue, k: k}
}

// put adds the next id of the residue class.
func (o *indexOracle) put() {
	id := o.next
	o.next += o.k
	sess := &session{id: id}
	o.idx.put(id, sess)
	o.ref[id] = sess
	o.ids = append(o.ids, id)
}

// pick returns a live or stale id from the history, or one never put.
func (o *indexOracle) pick(r uint64) int64 {
	if len(o.ids) == 0 || r%8 == 0 {
		return o.next + o.k*int64(r%4) // never put
	}
	return o.ids[r%uint64(len(o.ids))]
}

func (o *indexOracle) get(id int64) {
	o.t.Helper()
	if got, want := o.idx.get(id), o.ref[id]; got != want {
		o.t.Fatalf("get(%d) = %v, map has %v", id, got, want)
	}
}

func (o *indexOracle) del(id int64) {
	o.t.Helper()
	got, want := o.idx.del(id), o.ref[id]
	delete(o.ref, id)
	if got != want {
		o.t.Fatalf("del(%d) = %v, map had %v", id, got, want)
	}
}

// each checks that iteration visits exactly the map's sessions, once each,
// and that every one of them is reachable by get.
func (o *indexOracle) each() {
	o.t.Helper()
	seen := make(map[int64]bool, len(o.ref))
	o.idx.each(func(sess *session) {
		if o.ref[sess.id] != sess || seen[sess.id] {
			o.t.Fatalf("each visited session %d, which the map does not hold once", sess.id)
		}
		seen[sess.id] = true
	})
	if len(seen) != len(o.ref) || o.idx.n != len(o.ref) {
		o.t.Fatalf("each visited %d, len %d, map holds %d", len(seen), o.idx.n, len(o.ref))
	}
	for id, sess := range o.ref {
		if o.idx.get(id) != sess {
			o.t.Fatalf("session %d unreachable", id)
		}
	}
	if 2*o.idx.n > len(o.idx.keys) {
		o.t.Fatalf("load %d of %d slots exceeds one half", o.idx.n, len(o.idx.keys))
	}
}

// step runs one operation chosen by op, with r choosing its id.
func (o *indexOracle) step(op byte, r uint64) {
	switch op % 4 {
	case 0:
		o.put()
	case 1:
		o.get(o.pick(r))
	case 2:
		o.del(o.pick(r))
	case 3:
		if r%128 == 0 { // each is O(table): keep it occasional
			o.each()
		}
	}
}

// TestSessionIndexMatchesMap drives the table and a map through random put,
// get, del and each calls at several partition counts: growth from empty
// through many doublings, stale ids of sessions already deleted, and a
// steady state that churns at a fixed live count.
func TestSessionIndexMatchesMap(t *testing.T) {
	for _, k := range []int64{1, 3, 8} {
		for residue := int64(0); residue < k; residue += max(k/2, 1) {
			rng := rand.New(rand.NewPCG(uint64(k), uint64(residue)))
			o := newIndexOracle(t, k, residue)
			for i := 0; i < 8000; i++ { // put-heavy: grow to thousands
				o.step(byte(rng.IntN(3)), rng.Uint64())
			}
			o.each()
			for i := 0; i < 16000; i++ { // churn: as many puts as deletes
				op := byte(rng.IntN(4))
				if op == 2 && len(o.ids) > 0 {
					// Delete a live id most of the time, so the live count holds.
					o.del(o.ids[len(o.ids)-1-rng.IntN(min(len(o.ids), 4096))])
					continue
				}
				o.step(op, rng.Uint64())
			}
			o.each()
			for _, id := range o.ids { // drain to empty
				o.del(id)
			}
			o.each()
		}
	}
}

// TestSessionIndexWrapDelete fills the last slot and the first ones of the
// ring with a run of ids that all hash to the last slot, then deletes from
// the run: the backward shift must move entries across the wrap and leave
// no hole that cuts a probe run.
func TestSessionIndexWrapDelete(t *testing.T) {
	for _, k := range []int64{1, 8} {
		o := newIndexOracle(t, k, 0)
		o.put() // allocate the first table
		last := len(o.idx.keys) - 1
		var run []int64
		for id := o.next; len(run) < 4; id += k {
			if o.idx.slot(id) == last {
				run = append(run, id)
			}
		}
		for _, id := range run {
			sess := &session{id: id}
			o.idx.put(id, sess)
			o.ref[id] = sess
			o.ids = append(o.ids, id)
		}
		o.each()
		if o.idx.keys[last] != run[0] || o.idx.keys[0] == 0 {
			t.Fatalf("k=%d: the run does not wrap: slot %d holds %d, slot 0 holds %d",
				k, last, o.idx.keys[last], o.idx.keys[0])
		}
		o.del(run[0]) // every later entry of the run shifts back, one across the wrap
		o.each()
		if o.idx.keys[last] != run[1] {
			t.Fatalf("k=%d: slot %d holds %d after the delete, want %d shifted back across the wrap",
				k, last, o.idx.keys[last], run[1])
		}
		o.del(run[2])
		o.each()
		for _, id := range o.ids {
			o.del(id)
		}
		o.each()
	}
}

// FuzzSessionIndex drives the differential check with fuzzer-chosen
// operations: the first byte picks the partition count and residue, then
// each pair of bytes is one operation and its id choice.
func FuzzSessionIndex(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 0, 2, 1, 1, 0, 3, 0})
	f.Add([]byte{8, 0, 0, 0, 0, 0, 0, 2, 2, 2, 1, 3, 0, 0, 0, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		k := int64(data[0]%8) + 1
		o := newIndexOracle(t, k, int64(data[0]/8)%k)
		for i := 1; i+1 < len(data); i += 2 {
			// Repeat puts so short inputs still grow the table past its
			// first size.
			if data[i]%4 == 0 {
				for j := 0; j <= int(data[i+1]%64); j++ {
					o.put()
				}
				continue
			}
			o.step(data[i], uint64(data[i+1]))
		}
		o.each()
	})
}
