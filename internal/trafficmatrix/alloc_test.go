package trafficmatrix

import (
	"runtime"
	"testing"

	"mafic/internal/netsim"
	"mafic/internal/sim"
)

// TestCounterHandleZeroAlloc pins the per-packet measurement path at zero
// allocations: recording a packet into the epoch sketches must be free of
// heap traffic no matter how many packets flow.
func TestCounterHandleZeroAlloc(t *testing.T) {
	d := smallDomain(t)
	mon, err := NewMonitor(d.Net, MonitorConfig{Epoch: sim.Second}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ingress := d.Ingress[0]
	c := mon.Counter(ingress.ID())
	if c == nil {
		t.Fatal("no counter on ingress router")
	}

	pkt := &netsim.Packet{
		ID:    1,
		Label: netsim.FlowLabel{SrcIP: d.Clients[0].PrimaryIP(), DstIP: d.VictimIP(), SrcPort: 9, DstPort: 80},
		Kind:  netsim.KindData,
		Proto: netsim.ProtoUDP,
		Size:  500,
	}
	// Resolve and cache the destination owner up front, as the forwarding
	// path does before the counter runs.
	pkt.DestOwner(d.Net)

	allocs := testing.AllocsPerRun(1000, func() {
		pkt.ID++
		if c.Handle(pkt, 0, ingress) != netsim.ActionForward {
			t.Fatal("counter must never drop")
		}
	})
	if allocs != 0 {
		t.Fatalf("Counter.Handle allocates %v per packet, want 0", allocs)
	}
}

// TestEpochProcessingZeroAlloc pins the monitor's per-epoch pipeline —
// counter rotation, estimate tables, matrix intersection, report delivery —
// at zero steady-state allocations.
func TestEpochProcessingZeroAlloc(t *testing.T) {
	d := smallDomain(t)
	d.Victim.SetDefaultHandler(func(*netsim.Packet, sim.Time) {})

	var sink float64
	mon, err := NewMonitor(d.Net, MonitorConfig{Epoch: 50 * sim.Millisecond}, func(r EpochReport) {
		for _, id := range r.Routers {
			sink += r.DestEstimate(id) + r.SourceEstimate(id)
		}
		for _, cell := range r.Matrix {
			sink += cell.Packets
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	mon.Start()

	// Push real traffic through so the matrix has non-trivial cells, then
	// let a few epochs run to warm the pooled buffers.
	floodFrom(d, d.Zombies[0], 400, 120*sim.Millisecond)
	if err := d.Net.Scheduler().RunUntil(200 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}

	now := d.Net.Now()
	allocs := testing.AllocsPerRun(20, func() {
		mon.OnEvent(now)
	})
	if allocs != 0 {
		t.Fatalf("epoch processing allocates %v per epoch, want 0", allocs)
	}
	if sink == 0 {
		t.Fatal("callback never saw traffic; the zero-alloc run proved nothing")
	}
}

// TestMonitorReuseRecyclesSketchSlab pins the monitor pool: building a
// monitor on a fresh same-shaped domain after releasing one must cost a
// small fraction of the first build's allocations, because the sketch slab —
// the dominant construction cost — is recycled rather than reallocated.
func TestMonitorReuseRecyclesSketchSlab(t *testing.T) {
	measure := func() uint64 {
		d := smallDomain(t)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mon, err := NewMonitor(d.Net, MonitorConfig{Epoch: sim.Second}, nil)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		mon.Release()
		return after.Mallocs - before.Mallocs
	}
	first := measure()
	second := measure()
	if second*4 >= first {
		t.Fatalf("monitor reuse saved too little: first build %d mallocs, second %d", first, second)
	}
}

// TestMonitorReuseLeaksNoCounts verifies recycled sketches are reset: a
// reused monitor must estimate zero traffic before any packet flows.
func TestMonitorReuseLeaksNoCounts(t *testing.T) {
	d := smallDomain(t)
	mon, err := NewMonitor(d.Net, MonitorConfig{Epoch: 50 * sim.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	floodFrom(d, d.Zombies[0], 200, 60*sim.Millisecond)
	if err := d.Net.Scheduler().RunUntil(100 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	warm := mon.Compute(d.Net.Now())
	if warm.DestEstimate(d.LastHop.ID()) == 0 {
		t.Fatal("setup monitor saw no traffic; the reuse check would prove nothing")
	}
	mon.Release()

	d2 := smallDomain(t)
	mon2, err := NewMonitor(d2.Net, MonitorConfig{Epoch: 50 * sim.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	report := mon2.Compute(d2.Net.Now())
	for _, id := range report.Routers {
		if report.DestEstimate(id) != 0 || report.SourceEstimate(id) != 0 {
			t.Fatalf("recycled monitor leaked counts at router %d: dest %v src %v",
				id, report.DestEstimate(id), report.SourceEstimate(id))
		}
	}
}

// TestClonedReportsAreIndependent verifies the retention rule for pooled
// reports: clones of consecutive reports must not share backing arrays, and
// a retained clone keeps its data after later epochs overwrite the pool.
func TestClonedReportsAreIndependent(t *testing.T) {
	d := smallDomain(t)
	d.Victim.SetDefaultHandler(func(*netsim.Packet, sim.Time) {})

	var reports []EpochReport
	mon, err := NewMonitor(d.Net, MonitorConfig{Epoch: 50 * sim.Millisecond},
		func(r EpochReport) { reports = append(reports, r.Clone()) })
	if err != nil {
		t.Fatal(err)
	}
	mon.Start()
	floodFrom(d, d.Zombies[0], 300, 40*sim.Millisecond)
	if err := d.Net.Scheduler().RunUntil(160 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(reports) < 2 {
		t.Fatalf("got %d reports, want >= 2", len(reports))
	}
	if &reports[0].DestEst[0] == &reports[1].DestEst[0] {
		t.Fatal("cloned reports share estimate backing")
	}
	// The first epoch saw the burst; later epochs must still show it even
	// though newer reports were produced since (no pooled overwrite).
	if reports[0].DestEstimate(d.LastHop.ID()) < 100 {
		t.Fatalf("first retained report lost its data: %v", reports[0].DestEstimate(d.LastHop.ID()))
	}
}
