package netsim

import (
	"runtime"
	"slices"
	"testing"

	"mafic/internal/sim"
)

// refAdjacency is a map-backed adjacency the sparse rows are checked
// against: every simplex link keyed by its endpoints, with no ordering or
// slab carving of its own.
type refAdjacency map[[2]NodeID]*Link

// neighbors returns from's targets in ascending order.
func (ref refAdjacency) neighbors(from NodeID) []NodeID {
	var out []NodeID
	for k := range ref {
		if k[0] == from {
			out = append(out, k[1])
		}
	}
	slices.Sort(out)
	return out
}

// buildAdjNet wires a small random-ish graph: a ring of routers with a few
// chords. Reserve is called with the given budget (which tests deliberately
// under-shoot). It returns the network and a reference holding every link
// Connect handed out.
func buildAdjNet(t *testing.T, routers, reserve int) (*Network, []*Router, refAdjacency) {
	t.Helper()
	n := New(sim.NewScheduler(), sim.NewRNG(7))
	n.Reserve(reserve)
	cfg := LinkConfig{BandwidthBps: 1e9, Delay: sim.Millisecond, QueueLen: 16}
	ref := refAdjacency{}
	connect := func(a, b NodeID) {
		for _, e := range [][2]NodeID{{a, b}, {b, a}} {
			l, err := n.Connect(e[0], e[1], cfg)
			if err != nil {
				t.Fatalf("connect %v: %v", e, err)
			}
			ref[e] = l
		}
	}
	rs := make([]*Router, routers)
	for i := range rs {
		rs[i] = n.AddRouter("r")
	}
	for i := range rs {
		connect(rs[i].ID(), rs[(i+1)%routers].ID())
	}
	// A few chords, inserted out of ascending order so insertion has to
	// shift within rows.
	for _, c := range [][2]int{{0, routers / 2}, {1, routers - 2}, {3, routers/2 + 2}} {
		if c[0] == c[1] || ref[[2]NodeID{rs[c[0]].ID(), rs[c[1]].ID()}] != nil {
			continue
		}
		connect(rs[c[0]].ID(), rs[c[1]].ID())
	}
	return n, rs, ref
}

// TestSparseAdjacencyMatchesReference pins the structural contract of the
// sorted adjacency rows: for every node pair (out-of-range IDs included),
// LinkBetween returns exactly the link the map reference holds, and
// AppendNeighbors yields the reference's neighbours in ascending order —
// the property BFS tie-breaking, and therefore the whole simulation,
// depends on.
func TestSparseAdjacencyMatchesReference(t *testing.T) {
	const routers = 24
	n, rs, ref := buildAdjNet(t, routers, routers)

	for a := 0; a < routers; a++ {
		from := rs[a].ID()
		for b := -1; b <= routers; b++ {
			if got, want := n.LinkBetween(from, NodeID(b)), ref[[2]NodeID{from, NodeID(b)}]; got != want {
				t.Fatalf("LinkBetween(%d,%d) = %v, reference %v", a, b, got, want)
			}
		}
		if got, want := n.Neighbors(from), ref.neighbors(from); !slices.Equal(got, want) {
			t.Fatalf("Neighbors(%d) = %v, reference %v", a, got, want)
		}
	}
}

// TestCarvingPastReservation is the stale-sizeHint regression test: rows for
// nodes added after the Reserve budget is exhausted must still be
// slab-carved and complete. The historical carve helpers bailed out to one
// heap allocation per row the moment a node ID exceeded the stale hint; the
// alloc pin below fails on that code. The link sweep guards the sharper edge
// of the same bug: a row silently missing links for high IDs.
func TestCarvingPastReservation(t *testing.T) {
	const reserve, final = 4, 96
	cfg := LinkConfig{BandwidthBps: 1e9, Delay: sim.Millisecond, QueueLen: 16}

	n := New(sim.NewScheduler(), sim.NewRNG(1))
	n.Reserve(reserve)
	rs := make([]*Router, 0, final)
	for i := 0; i < reserve; i++ {
		rs = append(rs, n.AddRouter("r"))
	}
	// Carve rows at the reserved width before the budget is exhausted.
	for i := 0; i+1 < reserve; i++ {
		if err := n.ConnectDuplex(rs[i].ID(), rs[i+1].ID(), cfg); err != nil {
			t.Fatalf("reserved connect: %v", err)
		}
	}

	// Exhaust the budget, then wire the over-budget routers.
	for i := reserve; i < final; i++ {
		rs = append(rs, n.AddRouter("r"))
	}
	// Wiring past the budget is not idempotent, so AllocsPerRun (which
	// re-runs its body as a warm-up) cannot measure it; count mallocs
	// around the single pass instead.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := reserve - 1; i+1 < final; i++ {
		if err := n.ConnectDuplex(rs[i].ID(), rs[i+1].ID(), cfg); err != nil {
			t.Fatalf("over-budget connect: %v", err)
		}
	}
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	// Rows past the reservation must keep amortizing through the slabs.
	if allocs > 32 {
		t.Errorf("over-budget wiring cost %d allocations; rows are not slab-carved", allocs)
	}
	for i := 0; i+1 < final; i++ {
		if n.LinkBetween(rs[i].ID(), rs[i+1].ID()) == nil {
			t.Fatalf("link %d->%d missing after over-budget growth", i, i+1)
		}
		if n.LinkBetween(rs[i+1].ID(), rs[i].ID()) == nil {
			t.Fatalf("link %d->%d missing after over-budget growth", i+1, i)
		}
	}
}

// TestSparseLookupZeroAlloc pins that the per-hop adjacency lookups never
// allocate: LinkBetween and a buffer-reusing AppendNeighbors both run on
// the forwarding path.
func TestSparseLookupZeroAlloc(t *testing.T) {
	n, rs, _ := buildAdjNet(t, 24, 24)
	buf := make([]NodeID, 0, 8)
	allocs := testing.AllocsPerRun(100, func() {
		for i := range rs {
			if n.LinkBetween(rs[i].ID(), rs[(i+1)%len(rs)].ID()) == nil {
				t.Fatal("ring link missing")
			}
			buf = n.AppendNeighbors(buf[:0], rs[i].ID())
			if len(buf) < 2 {
				t.Fatal("ring router has fewer than 2 neighbours")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("per-hop lookups allocated %.1f times per run, want 0", allocs)
	}
}
