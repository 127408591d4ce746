package topology

import (
	"runtime"
	"testing"

	"mafic/internal/netsim"
	"mafic/internal/sim"
)

// TestArenaReuseMatchesFreshBuild dirties an arena with one domain shape and
// then rebuilds a different shape through it, asserting the result is
// structurally identical to a from-scratch build with the same seed: reused
// backing arrays must never leak state between sweep points.
func TestArenaReuseMatchesFreshBuild(t *testing.T) {
	big := DefaultConfig()
	big.NumRouters = 48
	big.ExtraVictims = 3
	big.MultiHomedVictim = true

	small := DefaultConfig()
	small.NumRouters = 14
	small.ExtraChords = 3
	small.BystanderHosts = 5

	for _, style := range []Style{StyleRing, StyleTransitStub} {
		arena := NewArena()
		bigCfg := big
		bigCfg.Style = style
		if _, err := arena.Build(bigCfg, sim.NewScheduler(), sim.NewRNG(9)); err != nil {
			t.Fatalf("dirtying build (%v): %v", style, err)
		}

		smallCfg := small
		smallCfg.Style = style
		got, err := arena.Build(smallCfg, sim.NewScheduler(), sim.NewRNG(5))
		if err != nil {
			t.Fatalf("arena build (%v): %v", style, err)
		}
		want, err := Build(smallCfg, sim.NewScheduler(), sim.NewRNG(5))
		if err != nil {
			t.Fatalf("fresh build (%v): %v", style, err)
		}

		if len(got.Routers) != len(want.Routers) {
			t.Fatalf("router count %d != %d", len(got.Routers), len(want.Routers))
		}
		if len(got.Ingress) != len(want.Ingress) {
			t.Fatalf("ingress count %d != %d", len(got.Ingress), len(want.Ingress))
		}
		for i := range got.Ingress {
			if got.Ingress[i].ID() != want.Ingress[i].ID() {
				t.Fatalf("ingress[%d] = %d != %d", i, got.Ingress[i].ID(), want.Ingress[i].ID())
			}
		}
		if got.LastHop.ID() != want.LastHop.ID() {
			t.Fatalf("last hop %d != %d", got.LastHop.ID(), want.LastHop.ID())
		}
		if len(got.Clients) != len(want.Clients) || len(got.Zombies) != len(want.Zombies) ||
			len(got.Bystanders) != len(want.Bystanders) {
			t.Fatalf("host populations differ: %d/%d/%d vs %d/%d/%d",
				len(got.Clients), len(got.Zombies), len(got.Bystanders),
				len(want.Clients), len(want.Zombies), len(want.Bystanders))
		}
		for i, c := range got.Clients {
			gi, wi := got.IngressOf(c), want.IngressOf(want.Clients[i])
			if (gi == nil) != (wi == nil) || (gi != nil && gi.ID() != wi.ID()) {
				t.Fatalf("client %d ingress mismatch", i)
			}
		}
		// Every router's next hop toward every node must match the fresh
		// build.
		nodes := got.Net.NodeCount()
		if nodes != want.Net.NodeCount() {
			t.Fatalf("node count %d != %d", nodes, want.Net.NodeCount())
		}
		for _, r := range got.Routers {
			ref := want.Net.Router(r.ID())
			for dest := 0; dest < nodes; dest++ {
				if g, w := got.Net.NextHop(r.ID(), netsim.NodeID(dest)), want.Net.NextHop(ref.ID(), netsim.NodeID(dest)); g != w {
					t.Fatalf("router %d route to %d: %d != %d (style %v)", r.ID(), dest, g, w, style)
				}
			}
		}
	}
}

// TestArenaBuildRouteScratchReused pins the allocation win: the second build
// through an arena must allocate substantially less than the first.
func TestArenaBuildRouteScratchReused(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumRouters = 24

	arena := NewArena()
	measure := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := arena.Build(cfg, sim.NewScheduler(), sim.NewRNG(1)); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	first := measure()
	second := measure()
	if second >= first {
		t.Fatalf("arena reuse saved nothing: first build %d mallocs, second %d", first, second)
	}
}
