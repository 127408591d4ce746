package topology

import (
	"fmt"
	"testing"

	"mafic/internal/netsim"
	"mafic/internal/sim"
)

// refNextHops is the independent all-pairs reference for the lazy columns:
// ref[dest][at] is at's next hop toward dest, from one plain BFS per
// destination over Network.AppendNeighbors (ascending neighbours, FIFO
// queue), with no CSR snapshot and no host aggregation.
func refNextHops(net *netsim.Network) [][]netsim.NodeID {
	n := net.NodeCount()
	ref := make([][]netsim.NodeID, n)
	for dest := range ref {
		parent := make([]netsim.NodeID, n)
		for i := range parent {
			parent[i] = netsim.NoNode
		}
		parent[dest] = netsim.NodeID(dest)
		queue := []netsim.NodeID{netsim.NodeID(dest)}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range net.Neighbors(u) {
				if parent[v] == netsim.NoNode {
					parent[v] = u
					queue = append(queue, v)
				}
			}
		}
		ref[dest] = parent
	}
	return ref
}

// forwardingHop reproduces the router forwarding decision for a packet at
// router r addressed to node dest: the direct attachment link when dest is a
// host attached to r, then the demand-driven column lookup.
func forwardingHop(net *netsim.Network, r *netsim.Router, dest netsim.NodeID) netsim.NodeID {
	if net.Host(dest) != nil && net.AttachmentLink(r.ID(), dest) != nil {
		return dest
	}
	return net.NextHop(r.ID(), dest)
}

// checkAgainstBFS requires every router's forwarding decision toward every
// other node to equal the reference BFS parent.
func checkAgainstBFS(t *testing.T, label string, d *Domain) {
	t.Helper()
	ref := refNextHops(d.Net)
	for _, r := range d.Routers {
		for dest := range ref {
			id := netsim.NodeID(dest)
			if id == r.ID() {
				continue
			}
			if got, want := forwardingHop(d.Net, r, id), ref[dest][r.ID()]; got != want {
				t.Fatalf("%s: router %d → dest %d: next hop %d, reference BFS %d",
					label, r.ID(), dest, got, want)
			}
		}
	}
}

// TestLazyForwardingMatchesBFS checks the routing invariant exhaustively: for
// every router and every destination — routers, single-homed hosts, the
// multi-homed victim, extra victims, bystanders — the demand-driven column
// lookup makes the same forwarding decision as an independent all-pairs
// BFS, on ring and transit-stub domains, and again after a core link on the
// victim's path goes down.
func TestLazyForwardingMatchesBFS(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumRouters = 32
	cfg.ExtraVictims = 2
	cfg.BystanderHosts = 4

	for _, style := range []Style{StyleRing, StyleTransitStub} {
		for _, multiHomed := range []bool{false, true} {
			cfg := cfg
			cfg.Style = style
			cfg.MultiHomedVictim = multiHomed
			d, err := Build(cfg, sim.NewScheduler(), sim.NewRNG(7))
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			label := fmt.Sprintf("%v multihomed=%v", style, multiHomed)
			checkAgainstBFS(t, label, d)

			// Take down the first core link on an ingress router's
			// multi-hop path to the last hop, in both directions.
			from, to := netsim.NoNode, netsim.NoNode
			for _, ing := range d.Ingress {
				next := d.Net.NextHop(ing.ID(), d.LastHop.ID())
				if next != netsim.NoNode && next != d.LastHop.ID() {
					from, to = ing.ID(), next
					break
				}
			}
			if from == netsim.NoNode {
				t.Fatalf("%s: no ingress has a multi-hop path to the last hop", label)
			}
			d.Net.LinkBetween(from, to).SetDown(true)
			d.Net.LinkBetween(to, from).SetDown(true)
			if d.Net.NextHop(from, d.LastHop.ID()) == to {
				t.Fatalf("%s: route still crosses the down link %d→%d", label, from, to)
			}
			checkAgainstBFS(t, label+" link down", d)
		}
	}
}

// TestColumnMaterializedOncePerDestination pins the memoization contract: any
// number of lookups toward hosts behind the same router materialize exactly
// one column, and a second destination router costs exactly one more.
func TestColumnMaterializedOncePerDestination(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumRouters = 24
	d, err := Build(cfg, sim.NewScheduler(), sim.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	net := d.Net
	if net.RouteColumns() != 0 {
		t.Fatalf("fresh build already has %d columns", net.RouteColumns())
	}

	victim := d.Victim.ID()
	for _, r := range d.Routers {
		if r == d.LastHop {
			continue
		}
		if next := net.NextHop(r.ID(), victim); next == netsim.NoNode {
			t.Fatalf("router %d cannot reach the victim", r.ID())
		}
	}
	if got := net.RouteColumns(); got != 1 {
		t.Fatalf("victim lookups from every router materialized %d columns, want 1", got)
	}
	// The victim's attachment router itself resolves through the same
	// column (aliased, not re-materialized).
	net.NextHop(d.Routers[0].ID(), d.LastHop.ID())
	if got := net.RouteColumns(); got != 1 {
		t.Fatalf("attachment-router lookup materialized a second column (%d total)", got)
	}
	// A destination behind a different router costs exactly one more.
	client := d.Clients[0]
	net.NextHop(d.LastHop.ID(), client.ID())
	if got := net.RouteColumns(); got != 2 {
		t.Fatalf("second destination made column count %d, want 2", got)
	}

	entries, bytes := net.RouteStats()
	wantEntries := 2 * net.NodeCount()
	if entries != wantEntries || bytes != int64(entries)*8 {
		t.Fatalf("RouteStats = (%d, %d), want (%d, %d)", entries, bytes, wantEntries, int64(wantEntries)*8)
	}
}

// TestColumnStorageReusedAcrossSweepPoints pins the arena half of the memo:
// rebuilding the same domain through one arena and touching the same
// destinations must not carve any new column storage.
func TestColumnStorageReusedAcrossSweepPoints(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumRouters = 24

	arena := NewArena()
	touch := func() {
		d, err := arena.Build(cfg, sim.NewScheduler(), sim.NewRNG(3))
		if err != nil {
			t.Fatal(err)
		}
		d.Net.NextHop(d.Routers[0].ID(), d.Victim.ID())
		d.Net.NextHop(d.LastHop.ID(), d.Clients[0].ID())
		if d.Net.RouteColumns() != 2 {
			t.Fatalf("expected 2 columns, got %d", d.Net.RouteColumns())
		}
	}
	touch()
	carved := arena.lazy.carved
	if carved == 0 {
		t.Fatal("first build carved no columns; the test is not exercising the pool")
	}
	for i := 0; i < 3; i++ {
		touch()
	}
	if arena.lazy.carved != carved {
		t.Fatalf("rebuilds carved %d new columns (total %d, first build %d)",
			arena.lazy.carved-carved, arena.lazy.carved, carved)
	}
}

// TestLazyRouterRefreshesAfterPostBuildMutation verifies the resolver does
// not serve a stale CSR snapshot: mutating the graph after Build (new router,
// new links) both invalidates the memoized columns and forces the next
// materialization to see the new topology.
func TestLazyRouterRefreshesAfterPostBuildMutation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumRouters = 24
	cfg.ExtraChords = 0 // plain ring: path lengths are predictable
	d, err := Build(cfg, sim.NewScheduler(), sim.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	net := d.Net
	far := d.Routers[11] // halfway around the ring from the last hop (23)
	if next := net.NextHop(far.ID(), d.Victim.ID()); next == netsim.NoNode {
		t.Fatal("victim unreachable before mutation")
	}

	// Shortcut from the far router straight to the last hop, plus a brand
	// new router beyond the snapshot's width.
	extra := net.AddRouter("post-build")
	link := cfg.CoreLink
	if err := net.ConnectDuplex(far.ID(), d.LastHop.ID(), link); err != nil {
		t.Fatal(err)
	}
	if err := net.ConnectDuplex(extra.ID(), far.ID(), link); err != nil {
		t.Fatal(err)
	}
	if net.RouteColumns() != 0 {
		t.Fatalf("mutation left %d stale columns", net.RouteColumns())
	}

	if next := net.NextHop(far.ID(), d.Victim.ID()); next != d.LastHop.ID() {
		t.Fatalf("far router ignores the new shortcut: next hop %d, want %d", next, d.LastHop.ID())
	}
	// The post-snapshot router must be routable both as origin and as
	// destination (this used to index past the stale parent table).
	if next := net.NextHop(extra.ID(), d.Victim.ID()); next != far.ID() {
		t.Fatalf("new router cannot reach the victim: next hop %d, want %d", next, far.ID())
	}
	if next := net.NextHop(d.LastHop.ID(), extra.ID()); next != far.ID() {
		t.Fatalf("no route toward the new router: next hop %d, want %d", next, far.ID())
	}
}

// TestMultiHomedHostGetsDedicatedColumn verifies level-1 aggregation treats a
// dual-homed victim as its own destination rather than folding it onto either
// home, which would bias the tie-break between its two access links.
func TestMultiHomedHostGetsDedicatedColumn(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumRouters = 24
	cfg.MultiHomedVictim = true
	d, err := Build(cfg, sim.NewScheduler(), sim.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.VictimHomes) != 2 {
		t.Fatalf("victim has %d homes, want 2", len(d.VictimHomes))
	}
	net := d.Net
	// Route toward one of the homes first, then toward the victim: the
	// victim must not alias the home's column.
	net.NextHop(d.Routers[2].ID(), d.VictimHomes[0].ID())
	if net.RouteColumns() != 1 {
		t.Fatalf("home lookup made %d columns", net.RouteColumns())
	}
	net.NextHop(d.Routers[2].ID(), d.Victim.ID())
	if net.RouteColumns() != 2 {
		t.Fatalf("multi-homed victim shared a home's column (%d columns total)", net.RouteColumns())
	}
}
