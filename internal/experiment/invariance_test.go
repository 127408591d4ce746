package experiment

import (
	"reflect"
	"testing"

	"mafic/internal/netsim"
	"mafic/internal/topology"
)

// TestMonitoredSetInvariance runs every registered scenario (quick mode) with
// the default monitored-only traffic matrix and with an explicit counter on
// every router, and requires bit-identical results: a counter on a router with no attached
// host can never record a packet (see the trafficmatrix package comment), so
// instrumenting only the host-adjacent routers changes nothing an epoch
// report, the pushback coordinator, or any golden fixture can observe.
func TestMonitoredSetInvariance(t *testing.T) {
	for _, e := range Entries() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			monitored := Quick(e.Build())
			all := monitored
			all.Monitor.Monitored = make([]netsim.NodeID, all.Topology.NumRouters)
			for i := range all.Monitor.Monitored {
				all.Monitor.Monitored[i] = netsim.NodeID(i)
			}

			gotMonitored, err := Run(monitored)
			if err != nil {
				t.Fatalf("monitored run: %v", err)
			}
			gotAll, err := Run(all)
			if err != nil {
				t.Fatalf("monitor-all run: %v", err)
			}
			if !reflect.DeepEqual(gotMonitored, gotAll) {
				t.Errorf("monitored-only and every-router runs diverge")
				if gotMonitored.Counts != gotAll.Counts {
					t.Errorf("counts: monitored %+v, all %+v", gotMonitored.Counts, gotAll.Counts)
				}
				if gotMonitored.EventsProcessed != gotAll.EventsProcessed {
					t.Errorf("events: monitored %d, all %d", gotMonitored.EventsProcessed, gotAll.EventsProcessed)
				}
				if gotMonitored.Accuracy != gotAll.Accuracy {
					t.Errorf("accuracy: monitored %v, all %v", gotMonitored.Accuracy, gotAll.Accuracy)
				}
			}
		})
	}
}

// TestHardenedBufferReuseInvariance repeats the shared-vs-fresh arena proof
// with the robustness hardening switched on across the whole catalog: the
// probing memory and the ATR hysteresis tables are recycled through the same
// pools, so they too must never leak state between runs. Bit-identical
// results or the hardened zero-alloc path is unsound.
func TestHardenedBufferReuseInvariance(t *testing.T) {
	arena := topology.NewArena()

	for _, e := range Entries() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			pooled := Harden(Quick(e.Build()))
			fresh := Harden(Quick(e.Build()))

			gotPooled, err := runWith(pooled, arena)
			if err != nil {
				t.Fatalf("pooled run: %v", err)
			}
			gotFresh, err := runWith(fresh, nil)
			if err != nil {
				t.Fatalf("fresh run: %v", err)
			}
			if !reflect.DeepEqual(gotPooled, gotFresh) {
				t.Errorf("hardened pooled and fresh runs diverge")
				if gotPooled.Counts != gotFresh.Counts {
					t.Errorf("counts: pooled %+v, fresh %+v", gotPooled.Counts, gotFresh.Counts)
				}
				if gotPooled.Accuracy != gotFresh.Accuracy {
					t.Errorf("accuracy: pooled %v, fresh %v", gotPooled.Accuracy, gotFresh.Accuracy)
				}
				if gotPooled.ATRCount != gotFresh.ATRCount {
					t.Errorf("ATRs: pooled %d, fresh %d", gotPooled.ATRCount, gotFresh.ATRCount)
				}
			}
		})
	}
}

// TestBufferReuseInvariance runs every registered scenario (quick mode) twice
// — through one topology arena shared across the whole catalog, and through a
// fresh arena — and requires bit-identical results. Both runs also draw
// schedulers, monitors and defenders from the engine pools the catalog before
// them warmed. This is the guarantee that makes the zero-alloc pipeline safe:
// buffer reuse can never leak state between epochs or between sweep points.
func TestBufferReuseInvariance(t *testing.T) {
	// One arena deliberately shared across every scenario in the catalog,
	// mimicking a sweep worker that rebuilds wildly different topologies
	// back to back.
	arena := topology.NewArena()

	for _, e := range Entries() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			pooled := Quick(e.Build())
			fresh := Quick(e.Build())

			gotPooled, err := runWith(pooled, arena)
			if err != nil {
				t.Fatalf("pooled run: %v", err)
			}
			gotFresh, err := runWith(fresh, nil)
			if err != nil {
				t.Fatalf("fresh run: %v", err)
			}

			// Every metric, counter and time-series bin must match
			// exactly — tolerances would hide pooling leaks.
			if !reflect.DeepEqual(gotPooled, gotFresh) {
				t.Errorf("pooled and fresh runs diverge")
				if gotPooled.Counts != gotFresh.Counts {
					t.Errorf("counts: pooled %+v, fresh %+v", gotPooled.Counts, gotFresh.Counts)
				}
				if gotPooled.EventsProcessed != gotFresh.EventsProcessed {
					t.Errorf("events: pooled %d, fresh %d", gotPooled.EventsProcessed, gotFresh.EventsProcessed)
				}
				if gotPooled.Accuracy != gotFresh.Accuracy {
					t.Errorf("accuracy: pooled %v, fresh %v", gotPooled.Accuracy, gotFresh.Accuracy)
				}
				if gotPooled.ATRCount != gotFresh.ATRCount {
					t.Errorf("ATRs: pooled %d, fresh %d", gotPooled.ATRCount, gotFresh.ATRCount)
				}
			}
		})
	}
}
