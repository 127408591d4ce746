package experiment

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"testing"

	"mafic/internal/checkpoint"
	"mafic/internal/sim"
)

// snapshotMidRun runs s with one checkpoint at the given virtual time and
// returns the encoded snapshot plus the (complete) run's result.
func snapshotMidRun(t *testing.T, s Scenario, at sim.Time) ([]byte, Result) {
	t.Helper()
	var data []byte
	res, err := RunWithCheckpoints(s, []sim.Time{at}, func(_ sim.Time, d []byte) error {
		data = d
		return nil
	})
	if err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	if len(data) == 0 {
		t.Fatal("checkpoint callback never fired")
	}
	return data, res
}

// diffResults reports the usual headline fields when two results diverge.
func diffResults(t *testing.T, label string, want, got Result) {
	t.Helper()
	t.Errorf("%s: results diverge", label)
	if want.Counts != got.Counts {
		t.Errorf("counts: want %+v, got %+v", want.Counts, got.Counts)
	}
	if want.EventsProcessed != got.EventsProcessed {
		t.Errorf("events: want %d, got %d", want.EventsProcessed, got.EventsProcessed)
	}
	if want.Accuracy != got.Accuracy {
		t.Errorf("accuracy: want %v, got %v", want.Accuracy, got.Accuracy)
	}
	if want.ATRCount != got.ATRCount {
		t.Errorf("ATRs: want %d, got %d", want.ATRCount, got.ATRCount)
	}
}

// TestKillAndResumeEquivalence is the crash-recovery guarantee, proven over
// the whole catalog (chaos scenarios included): every scenario is snapshotted
// mid-run, the snapshot is decoded into a freshly rebuilt world, and the
// resumed run must produce a Result bit-identical to the uninterrupted run.
// It also pins that taking a checkpoint is a pure read — the checkpointed
// run's own result must match the plain run exactly.
func TestKillAndResumeEquivalence(t *testing.T) {
	for _, e := range Entries() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			s := Quick(e.Build())
			want, err := Run(s)
			if err != nil {
				t.Fatalf("uninterrupted run: %v", err)
			}
			data, chk := snapshotMidRun(t, s, s.Duration/2)
			if !reflect.DeepEqual(want, chk) {
				diffResults(t, "checkpointing perturbed the run", want, chk)
			}
			got, err := RunFromSnapshot(data)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if !reflect.DeepEqual(want, got) {
				diffResults(t, "kill-and-resume", want, got)
			}
		})
	}
}

// TestCheckpointUnderActiveFaults snapshots the chaos scenarios inside their
// fault windows — while a flapped link is down (flap-core) and while the
// crashed chord hub is away (partition-heal) — and requires the resumed run
// to reproduce the uninterrupted one exactly: fault drops, activation
// timing, and the TopoVersion-driven route re-convergence all travel through
// the snapshot.
func TestCheckpointUnderActiveFaults(t *testing.T) {
	// 850 ms is inside flap-core's first outage (800–950 ms) and inside
	// partition-heal's crash window (700–1400 ms).
	const midFault = 850 * sim.Millisecond
	for _, name := range []string{"flap-core", "partition-heal"} {
		name := name
		t.Run(name, func(t *testing.T) {
			e, ok := LookupScenario(name)
			if !ok {
				t.Fatalf("scenario %q not registered", name)
			}
			s := Quick(e.Build())
			want, err := Run(s)
			if err != nil {
				t.Fatalf("uninterrupted run: %v", err)
			}
			if want.Counts.FaultDrops == 0 {
				t.Fatalf("scenario %s produced no fault drops; the snapshot window misses the fault", name)
			}
			data, _ := snapshotMidRun(t, s, midFault)
			got, err := RunFromSnapshot(data)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if !reflect.DeepEqual(want, got) {
				diffResults(t, "mid-fault kill-and-resume", want, got)
			}
			if got.Counts.FaultDrops != want.Counts.FaultDrops {
				t.Errorf("fault drops: want %d, got %d", want.Counts.FaultDrops, got.Counts.FaultDrops)
			}
			if got.Activated != want.Activated || got.ActivationSeconds != want.ActivationSeconds {
				t.Errorf("activation: want (%v, %v), got (%v, %v)",
					want.Activated, want.ActivationSeconds, got.Activated, got.ActivationSeconds)
			}
		})
	}
}

// TestRestoreThenReuseInvariance pins that a restore leaves the pooled engine
// objects healthy: after a RunFromSnapshot, running a different catalog
// scenario on the same pools must still be bit-identical to its reference
// run. A restore that leaked state into a pooled scheduler, arena or scratch
// table would surface here.
func TestRestoreThenReuseInvariance(t *testing.T) {
	entries := Entries()
	if len(entries) < 2 {
		t.Skip("need at least two catalog scenarios")
	}
	// Two structurally different scenarios: the first catalog entry and the
	// partition-heal chaos run.
	a := Quick(entries[0].Build())
	ph, ok := LookupScenario("partition-heal")
	if !ok {
		t.Fatal("partition-heal not registered")
	}
	b := Quick(ph.Build())

	want, err := Run(b)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	data, _ := snapshotMidRun(t, a, a.Duration/2)
	if _, err := RunFromSnapshot(data); err != nil {
		t.Fatalf("resume: %v", err)
	}
	got, err := Run(b)
	if err != nil {
		t.Fatalf("post-restore run: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		diffResults(t, "pooled objects after restore", want, got)
	}
}

// TestCheckpointRoundTripStability pins the wire format: encode → decode →
// encode must be byte-identical, so a snapshot file can be copied, inspected
// and re-saved without drift.
func TestCheckpointRoundTripStability(t *testing.T) {
	e := Entries()[0]
	s := Quick(e.Build())
	data, _ := snapshotMidRun(t, s, s.Duration/2)
	snap, err := checkpoint.Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	again := checkpoint.Encode(snap)
	if !bytes.Equal(data, again) {
		t.Fatalf("re-encoded snapshot differs: %d bytes vs %d", len(data), len(again))
	}
}

// TestCheckpointTimeValidation pins the harness-level input checks.
func TestCheckpointTimeValidation(t *testing.T) {
	s := Quick(Entries()[0].Build())
	noSave := func(sim.Time, []byte) error { return nil }
	if _, err := RunWithCheckpoints(s, []sim.Time{0}, noSave); !errors.Is(err, ErrScenario) {
		t.Errorf("t=0 accepted: %v", err)
	}
	if _, err := RunWithCheckpoints(s, []sim.Time{s.Duration}, noSave); !errors.Is(err, ErrScenario) {
		t.Errorf("t=Duration accepted: %v", err)
	}
	if _, err := RunWithCheckpoints(s, []sim.Time{s.Duration / 2, s.Duration / 4}, noSave); !errors.Is(err, ErrScenario) {
		t.Errorf("descending times accepted: %v", err)
	}
}

// TestSnapshotDecodeRejectsCorruption walks a real snapshot and verifies the
// decoder survives systematic damage — truncation at every section boundary
// region and bit flips across the header — returning clean errors.
func TestSnapshotDecodeRejectsCorruption(t *testing.T) {
	s := Quick(Entries()[0].Build())
	data, _ := snapshotMidRun(t, s, s.Duration/2)

	for cut := 0; cut < len(data); cut += 97 {
		if _, err := checkpoint.Decode(data[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly", cut)
		}
	}
	for i := 0; i < len(data) && i < 64; i++ {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x5a
		// A flipped byte may still decode (e.g. inside the scenario JSON);
		// the requirement is no panic and no unbounded allocation.
		_, _ = checkpoint.Decode(mut)
	}
}

// TestVersion1FixtureRestores resumes a SnapshotVersion-1 snapshot written
// by an earlier build (table2, quick, at 850 ms). Its embedded scenario
// still carries the Scheduler, Topology.Routing, Topology.Adjacency,
// Monitor.MonitorAll and Monitor.FreshBuffers settings that build accepted;
// they must decode as unknown JSON and the resumed result must equal a
// plain run of the decoded scenario.
func TestVersion1FixtureRestores(t *testing.T) {
	data, err := os.ReadFile("testdata/snapshot-v1-table2-850ms.bin")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.Decode(data)
	if err != nil {
		t.Fatalf("decode fixture: %v", err)
	}
	for _, key := range []string{`"Scheduler"`, `"Routing"`, `"Adjacency"`, `"MonitorAll"`, `"FreshBuffers"`} {
		if !bytes.Contains(snap.Scenario, []byte(key)) {
			t.Fatalf("fixture scenario lacks %s; it no longer exercises the removed settings", key)
		}
	}
	var s Scenario
	if err := json.Unmarshal(snap.Scenario, &s); err != nil {
		t.Fatalf("decode fixture scenario: %v", err)
	}
	want, err := Run(s)
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}
	got, err := RunFromSnapshot(data)
	if err != nil {
		t.Fatalf("resume fixture: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed fixture diverges from a plain run:\n got %+v\nwant %+v", got.Counts, want.Counts)
	}
}
