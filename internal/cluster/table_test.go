package cluster

import (
	"reflect"
	"sort"
	"testing"

	"vodcluster/internal/core"
	"vodcluster/internal/stats"
)

// tableOracle is the map a StreamTable replaced.
type tableOracle map[StreamID]int

func (o tableOracle) sorted() []StreamID {
	ids := make([]StreamID, 0, len(o))
	for id := range o {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func checkTable(t *testing.T, tab *StreamTable[int], want tableOracle, probe StreamID) {
	t.Helper()
	if tab.Len() != len(want) {
		t.Fatalf("Len = %d, oracle has %d", tab.Len(), len(want))
	}
	var ids []StreamID
	tab.Each(func(id StreamID, v int) {
		if want[id] != v {
			t.Fatalf("Each yields %d → %d, oracle %d", id, v, want[id])
		}
		ids = append(ids, id)
	})
	if sorted := want.sorted(); !(len(ids) == 0 && len(sorted) == 0) && !reflect.DeepEqual(ids, sorted) {
		t.Fatalf("Each visits %v, want ascending %v", ids, sorted)
	}
	for id := probe - 40; id <= probe+2; id++ {
		v, ok := tab.Get(id)
		if w, wok := want[id]; ok != wok || v != w {
			t.Fatalf("Get(%d) = %d, %t; oracle %d, %t", id, v, ok, w, wok)
		}
	}
}

// TestStreamTableMatchesMap drives the table and a map with the same seeded
// operations: ascending puts with gaps, deletes in and out of order, deletes
// of dead and unknown IDs, bursts that grow the ring while its window
// straddles the wrap point, and drains to empty that restart the window.
func TestStreamTableMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := stats.NewRNG(seed)
		var tab StreamTable[int]
		want := tableOracle{}
		next := StreamID(1 + rng.Intn(1000)) // windows start anywhere, not at slot 0
		var order []StreamID                 // live IDs, oldest first
		for op := 0; op < 4000; op++ {
			switch k := rng.Intn(10); {
			case k < 4 || (k < 7 && len(order) < 30):
				next += StreamID(1 + rng.Intn(3)/2) // mostly consecutive, sometimes a gap
				tab.Put(next, op)
				want[next] = op
				order = append(order, next)
			case k < 8 && len(order) > 0:
				// Delete the oldest most of the time, anything otherwise.
				i := 0
				if rng.Intn(3) == 0 {
					i = rng.Intn(len(order))
				}
				id := order[i]
				order = append(order[:i], order[i+1:]...)
				if !tab.Delete(id) {
					t.Fatalf("seed %d: Delete(%d) of a live entry reported false", seed, id)
				}
				delete(want, id)
			case k == 8:
				// Dead, never-put, below-window and above-window IDs.
				for _, id := range []StreamID{next - StreamID(rng.Intn(50)), next + 1, next + 100, 0, -3} {
					if _, live := want[id]; !live && tab.Delete(id) {
						t.Fatalf("seed %d: Delete(%d) of a dead entry reported true", seed, id)
					}
				}
			default:
				// Drain to empty now and then: the next Put re-bases the window.
				if rng.Intn(20) == 0 {
					for _, id := range order {
						tab.Delete(id)
						delete(want, id)
					}
					order = order[:0]
				}
			}
			checkTable(t, &tab, want, next)
		}
	}
}

func TestStreamTablePutMustAscend(t *testing.T) {
	var tab StreamTable[int]
	tab.Put(5, 1)
	tab.Delete(5)
	defer func() {
		if recover() == nil {
			t.Fatal("Put of an ID at or below an earlier one did not panic")
		}
	}()
	tab.Put(5, 2)
}

// TestStreamTableMemoryIsTheSpan: a million put/delete cycles whose live IDs
// never span more than K keep the ring under 2K slots, wherever in the ID
// space the window has travelled to; and the span, not the live count, is
// what it costs — one pinned entry grows the ring with every Put.
func TestStreamTableMemoryIsTheSpan(t *testing.T) {
	const K = 1000
	rng := stats.NewRNG(7)
	var tab StreamTable[struct{}]
	var live []StreamID
	next := StreamID(0)
	for cycle := 0; cycle < 1_000_000; cycle++ {
		next++
		tab.Put(next, struct{}{})
		live = append(live, next)
		// Delete out of order, but never let the oldest fall K behind.
		for len(live) > 0 && (next-live[0] >= K-1 || rng.Intn(2) == 0) {
			i := 0
			if next-live[0] < K-1 {
				i = rng.Intn(len(live))
			}
			tab.Delete(live[i])
			live = append(live[:i], live[i+1:]...)
		}
		if len(tab.slots) >= 2*K {
			t.Fatalf("cycle %d: %d live entries spanning < %d IDs hold %d slots", cycle, tab.Len(), K, len(tab.slots))
		}
	}

	var pinned StreamTable[struct{}]
	pinned.Put(1, struct{}{})
	for id := StreamID(2); id <= 10*K; id++ {
		pinned.Put(id, struct{}{})
		pinned.Delete(id)
	}
	if pinned.Len() != 1 || len(pinned.slots) < 10*K {
		t.Fatalf("pinned table: %d live in %d slots; the documented bound says ≥ %d", pinned.Len(), len(pinned.slots), 10*K)
	}
	pinned.Reset()
	if pinned.Len() != 0 {
		t.Fatal("Reset left entries behind")
	}
	pinned.Put(1, struct{}{}) // the window restarts at zero
}

// stateModel is the map-based stream bookkeeping State had before the table.
type stateModel map[StreamID]Stream

func (m stateModel) pinned(v, s int) int {
	n := 0
	for _, st := range m {
		if st.Video == v && (st.Server == s || st.Source == s) {
			n++
		}
	}
	return n
}

// TestStateStreamsMatchMapModel: after any mix of admissions, releases in
// any order, double releases and failures, TotalActive, Lookup and
// PinnedStreams answer as the map did, and FailServer reports what it tore
// in admission order with nothing sorting it.
func TestStateStreamsMatchMapModel(t *testing.T) {
	c, err := core.NewCatalog(6, 0.75, 4*core.Mbps, 90*core.Minute)
	if err != nil {
		t.Fatal(err)
	}
	p := &core.Problem{
		Catalog:            c,
		NumServers:         3,
		StoragePerServer:   6 * c[0].SizeBytes(),
		BandwidthPerServer: 40 * 4 * core.Mbps,
		BackboneBandwidth:  20 * 4 * core.Mbps,
		ArrivalRate:        1.0 / core.Minute,
		PeakPeriod:         90 * core.Minute,
	}
	layout := core.NewLayout(p.M())
	for v := 0; v < p.M(); v++ {
		layout.Replicas[v] = 2
		if err := layout.Place(v, v%p.N()); err != nil {
			t.Fatal(err)
		}
		if err := layout.Place(v, (v+1)%p.N()); err != nil {
			t.Fatal(err)
		}
	}
	rng := stats.NewRNG(3)
	st, err := New(p, layout)
	if err != nil {
		t.Fatal(err)
	}
	model := stateModel{}
	var ids []StreamID
	tornTotal, redirected := 0, 0
	for op := 0; op < 3000; op++ {
		switch k := rng.Intn(20); {
		case k < 10:
			v := rng.Intn(p.M())
			// Direct and redirected streams: a redirected one is pinned to
			// its source's copy as well as to the link that carries it.
			d := Direct(st.Holders(v)[rng.Intn(2)])
			if rng.Intn(4) == 0 {
				d.Server = (d.Source + 1 + rng.Intn(2)) % p.N()
			}
			if id, ok := st.admit(v, d); ok {
				s, _ := st.Lookup(id)
				model[id] = s
				ids = append(ids, id)
				if s.Redirected {
					redirected++
				}
			}
		case k < 18 && len(ids) > 0:
			i := rng.Intn(len(ids))
			id := ids[i]
			_, live := model[id]
			if err := st.Release(id); (err == nil) != live {
				t.Fatalf("Release(%d) = %v with the stream live = %t", id, err, live)
			}
			delete(model, id)
			if rng.Intn(4) > 0 {
				ids = append(ids[:i], ids[i+1:]...) // else keep it: a later double release
			}
		case k == 18:
			srv := rng.Intn(p.N())
			torn := st.FailServer(srv)
			var want []StreamID
			for id, s := range model {
				if s.Server == srv || s.Source == srv {
					want = append(want, id)
				}
			}
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			if len(torn) != len(want) {
				t.Fatalf("FailServer(%d) tore %d streams, model %d", srv, len(torn), len(want))
			}
			for i, tr := range torn {
				if tr.ID != want[i] || tr.Stream != model[tr.ID] {
					t.Fatalf("torn[%d] = %+v, want stream %d %+v in admission order", i, tr, want[i], model[want[i]])
				}
				delete(model, tr.ID)
			}
			tornTotal += len(torn)
			st.RestoreServer(srv)
		}
		if st.TotalActive() != len(model) {
			t.Fatalf("TotalActive = %d, model %d", st.TotalActive(), len(model))
		}
		for _, id := range ids {
			s, ok := st.Lookup(id)
			if w, wok := model[id]; ok != wok || s != w {
				t.Fatalf("Lookup(%d) = %+v, %t; model %+v, %t", id, s, ok, w, wok)
			}
		}
		v, s := rng.Intn(p.M()), rng.Intn(p.N())
		if got, want := st.PinnedStreams(v, s), model.pinned(v, s); got != want {
			t.Fatalf("PinnedStreams(%d, %d) = %d, model %d", v, s, got, want)
		}
	}
	if tornTotal < 100 || redirected < 100 {
		t.Fatalf("the schedule tore %d streams and redirected %d: too few to mean anything", tornTotal, redirected)
	}
	if _, ok := st.Lookup(0); ok {
		t.Fatal("Lookup(0) found a stream")
	}
	if _, ok := st.Lookup(st.nextID + 1); ok {
		t.Fatal("Lookup of a handle never issued found a stream")
	}
}
