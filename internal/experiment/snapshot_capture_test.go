package experiment

import (
	"bytes"
	"strings"
	"testing"

	"mafic/internal/checkpoint"
	"mafic/internal/sim"
	"mafic/internal/topology"
)

// faultWindowCheckpoint is a checkpoint interval whose second multiple,
// 850 ms, falls inside flap-core's first link outage (800–950 ms) and
// partition-heal's router crash (700–1400 ms).
const faultWindowCheckpoint = 425 * sim.Millisecond

// snapshotStream runs s under RunControlled with a checkpoint every `every`
// and returns every snapshot saved, in order.
func snapshotStream(t *testing.T, s Scenario, every sim.Time) [][]byte {
	t.Helper()
	var stream [][]byte
	_, err := RunControlled(s, ControlOptions{
		CheckpointEvery: every,
		Save: func(_ sim.Time, data []byte) error {
			stream = append(stream, data)
			return nil
		},
	})
	if err != nil {
		t.Fatalf("controlled run: %v", err)
	}
	if len(stream) == 0 {
		t.Fatal("controlled run saved no snapshot")
	}
	return stream
}

// freshSnapshot captures and encodes b's current state through a World
// assembled from scratch, so the checkpoint layer rebuilds its handler
// registry for this one capture. b's own World is left as it was.
func freshSnapshot(t *testing.T, b *builtRun) []byte {
	t.Helper()
	cached := b.cw
	b.cw = nil
	defer func() { b.cw = cached }()
	data, err := b.snapshot()
	if err != nil {
		t.Fatalf("fresh-registry capture: %v", err)
	}
	return data
}

// startRun builds s on a pooled scheduler and advances it to at. The
// returned cleanup aborts the run and recycles the scheduler.
func startRun(t *testing.T, s Scenario, at sim.Time) (*builtRun, func()) {
	t.Helper()
	sched := getScheduler()
	b, err := buildRun(s, nil, sched)
	if err != nil {
		putScheduler(sched)
		t.Fatalf("build: %v", err)
	}
	cleanup := func() {
		b.abort()
		putScheduler(sched)
	}
	if err := sched.RunUntil(at); err != nil {
		cleanup()
		t.Fatalf("run to %v: %v", at, err)
	}
	return b, cleanup
}

// TestCachedRegistryMatchesFreshRegistry pins the handler-registry cache:
// for every catalog scenario, each snapshot RunControlled writes through the
// run's one World (registry built at the first checkpoint, reused after) is
// byte-identical to a snapshot of the same scenario and time whose registry
// was built from scratch for that capture. flap-core and partition-heal are
// checkpointed inside their fault windows, so the cache is exercised while
// links and routers are down. Each snapshot must also fill the buffer Encode
// sized for it exactly, so no snapshot is encoded with a regrowing buffer.
func TestCachedRegistryMatchesFreshRegistry(t *testing.T) {
	for _, e := range Entries() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			s := Quick(e.Build())
			every := s.Duration / 8
			faulted := e.Name == "flap-core" || e.Name == "partition-heal"
			if faulted {
				every = faultWindowCheckpoint
			}
			stream := snapshotStream(t, s, every)

			b, cleanup := startRun(t, s, 0)
			defer cleanup()
			for i, want := range stream {
				at := sim.Time(i+1) * every
				if err := b.sched.RunUntil(at); err != nil {
					t.Fatalf("run to %v: %v", at, err)
				}
				if len(want) != cap(want) {
					t.Errorf("snapshot %d at %v: Encode wrote %d bytes into a %d-byte buffer", i, at, len(want), cap(want))
				}
				if got := freshSnapshot(t, b); !bytes.Equal(want, got) {
					t.Fatalf("snapshot %d at %v: cached registry wrote %d bytes, fresh registry %d, contents differ",
						i, at, len(want), len(got))
				}
				if faulted && at == 2*faultWindowCheckpoint {
					requireFaultActive(t, e.Name, want)
				}
			}
		})
	}
}

// requireFaultActive fails unless the snapshot records a downed link or a
// crashed router, proving the checkpoint landed inside a fault window.
func requireFaultActive(t *testing.T, name string, data []byte) {
	t.Helper()
	snap, err := checkpoint.Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	for _, l := range snap.Links {
		if l.Down {
			return
		}
	}
	for _, n := range snap.Nodes {
		if n.Router && n.R.Down {
			return
		}
	}
	t.Fatalf("%s: no link or router is down at the mid-fault checkpoint", name)
}

// TestSnapshotsIndependentOfProcessHistory pins that a snapshot is a pure
// function of (scenario, time): two identical checkpointed runs back to back
// in one process write byte-identical snapshot streams, although the second
// reuses every pooled engine object the first released — MAFIC defenders and
// their flow-table slabs included.
func TestSnapshotsIndependentOfProcessHistory(t *testing.T) {
	for _, name := range []string{"table2", "rolling-pulse"} {
		name := name
		t.Run(name, func(t *testing.T) {
			e, ok := LookupScenario(name)
			if !ok {
				t.Fatalf("scenario %q not registered", name)
			}
			s := Quick(e.Build())
			first := snapshotStream(t, s, s.Duration/8)
			second := snapshotStream(t, s, s.Duration/8)
			if len(first) != len(second) {
				t.Fatalf("first run saved %d snapshots, second %d", len(first), len(second))
			}
			for i := range first {
				if !bytes.Equal(first[i], second[i]) {
					t.Errorf("snapshot %d differs between the first and second run", i)
				}
			}
		})
	}
}

// TestResumedSnapshotsMatchUninterrupted pins that resuming does not change
// later snapshots: a run resumed from its first or second of seven
// checkpoints must write every later checkpoint byte-identical to the
// uninterrupted run's. A restore re-inserts pending events in a different
// scheduler-arena order, so anything Capture numbers by arena position, such
// as the probe-record table, shows up here.
func TestResumedSnapshotsMatchUninterrupted(t *testing.T) {
	for _, name := range []string{"table2", "rolling-pulse", "flap-core"} {
		name := name
		t.Run(name, func(t *testing.T) {
			e, ok := LookupScenario(name)
			if !ok {
				t.Fatalf("scenario %q not registered", name)
			}
			s := Quick(e.Build())
			every := s.Duration / 8
			want := snapshotStream(t, s, every)
			if len(want) != 7 {
				t.Fatalf("uninterrupted run saved %d snapshots, want 7", len(want))
			}
			for from := 0; from < 2; from++ {
				var got [][]byte
				_, err := ResumeControlled(want[from], ControlOptions{
					CheckpointEvery: every,
					Save: func(_ sim.Time, data []byte) error {
						got = append(got, data)
						return nil
					},
				})
				if err != nil {
					t.Fatalf("resume from snapshot %d: %v", from+1, err)
				}
				later := want[from+1:]
				if len(got) != len(later) {
					t.Fatalf("resumed from snapshot %d: saved %d snapshots, want %d", from+1, len(got), len(later))
				}
				for i := range later {
					if !bytes.Equal(got[i], later[i]) {
						t.Errorf("resumed from snapshot %d: snapshot %d differs from the uninterrupted run's",
							from+1, from+2+i)
					}
				}
			}
		})
	}
}

// strayHandler is an event handler no checkpoint registry knows.
type strayHandler struct{}

func (strayHandler) OnEvent(sim.Time) {}

// TestCaptureRejectsUncapturableEvents pins Capture's failure paths: a
// runtime event that dispatches a closure, or whose handler is not in the
// registry, cannot be resumed, so the capture must fail rather than write a
// snapshot that silently drops it. Both cases run with the registry already
// built by an earlier checkpoint of the same run.
func TestCaptureRejectsUncapturableEvents(t *testing.T) {
	cases := []struct {
		name     string
		schedule func(*sim.Scheduler)
		want     string
	}{
		{"closure", func(sched *sim.Scheduler) {
			sched.ScheduleAfter(sim.Millisecond, func(sim.Time) {})
		}, "closure"},
		{"unregistered handler", func(sched *sim.Scheduler) {
			sched.ScheduleHandlerAfter(sim.Millisecond, strayHandler{})
		}, "unrecognised handler"},
	}
	e, ok := LookupScenario("table2")
	if !ok {
		t.Fatal("table2 not registered")
	}
	s := Quick(e.Build())
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			b, cleanup := startRun(t, s, s.Duration/4)
			defer cleanup()
			if _, err := b.snapshot(); err != nil {
				t.Fatalf("warm-up capture: %v", err)
			}
			tc.schedule(b.sched)
			data, err := b.snapshot()
			if err == nil {
				t.Fatalf("capture succeeded (%d bytes) with an uncapturable event pending", len(data))
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("capture error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// captureAllocBudget bounds the heap objects one steady-state Capture+Encode
// allocates: the snapshot and its top-level slices, the monitor's counter
// and bucket buffers, the coordinator's and collector's series, and the
// encode buffer. None of them scales with the link count.
const captureAllocBudget = 24

// TestCaptureEncodeAllocsIndependentOfLinks pins the steady-state cost of a
// checkpoint. Once a run's registry is built, Capture+Encode allocates the
// same small number of objects on the 104-link table2 domain as on the
// 13514-link stress-5k one; rebuilding the registry per capture would add
// map and link-list allocations that grow with the link count.
func TestCaptureEncodeAllocsIndependentOfLinks(t *testing.T) {
	const at = 100 * sim.Millisecond
	var allocs []float64
	for _, name := range []string{"table2", "stress-5k"} {
		e, ok := LookupScenario(name)
		if !ok {
			t.Fatalf("scenario %q not registered", name)
		}
		b, cleanup := startRun(t, Quick(e.Build()), at)
		if _, err := b.snapshot(); err != nil {
			cleanup()
			t.Fatalf("%s: warm-up capture: %v", name, err)
		}
		n := testing.AllocsPerRun(10, func() {
			if _, err := b.snapshot(); err != nil {
				t.Fatalf("%s: capture: %v", name, err)
			}
		})
		t.Logf("%s: %d links, %.0f allocs per Capture+Encode", name, b.domain.Net.LinkTotal(), n)
		cleanup()
		if n > captureAllocBudget {
			t.Errorf("%s: Capture+Encode allocates %.0f objects, budget %d", name, n, captureAllocBudget)
		}
		allocs = append(allocs, n)
	}
	if allocs[0] != allocs[1] {
		t.Errorf("Capture+Encode allocations depend on the domain: table2 %.0f, stress-5k %.0f", allocs[0], allocs[1])
	}
}

// BenchmarkCaptureEncode measures one checkpoint of the stress-50k quick
// scenario at t = 100 ms — Capture plus Encode, about 7.8 MB — with the
// run's handler registry already built, as every checkpoint after a run's
// first sees it.
//
//	go test ./internal/experiment -run '^$' -bench CaptureEncode -benchmem
func BenchmarkCaptureEncode(b *testing.B) {
	e, ok := LookupScenario("stress-50k")
	if !ok {
		b.Fatal("stress-50k not registered")
	}
	s := Quick(e.Build())
	sched := getScheduler()
	defer putScheduler(sched)
	run, err := buildRun(s, nil, sched)
	if err != nil {
		b.Fatal(err)
	}
	defer run.abort()
	if err := sched.RunUntil(100 * sim.Millisecond); err != nil {
		b.Fatal(err)
	}
	if _, err := run.snapshot(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run.snapshot(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeRestore measures the resume side of the same checkpoint:
// Decode of the stress-50k quick snapshot at t = 100 ms plus Restore onto a
// freshly rebuilt run, registry build included, as a restart pays it. The
// rebuild itself is excluded from the timing and the allocation counts.
//
//	go test ./internal/experiment -run '^$' -bench DecodeRestore -benchmem
func BenchmarkDecodeRestore(b *testing.B) {
	e, ok := LookupScenario("stress-50k")
	if !ok {
		b.Fatal("stress-50k not registered")
	}
	s := Quick(e.Build())
	arena := topology.NewArena()
	sched := getScheduler()
	run, err := buildRun(s, arena, sched)
	if err != nil {
		b.Fatal(err)
	}
	if err := sched.RunUntil(100 * sim.Millisecond); err != nil {
		b.Fatal(err)
	}
	data, err := run.snapshot()
	run.abort()
	putScheduler(sched)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sched := getScheduler()
		rebuilt, err := buildRun(s, arena, sched)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		snap, err := checkpoint.Decode(data)
		if err != nil {
			b.Fatal(err)
		}
		if err := checkpoint.Restore(rebuilt.world(), snap); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		rebuilt.abort()
		putScheduler(sched)
		b.StartTimer()
	}
}
