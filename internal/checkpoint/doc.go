// Package checkpoint serializes the live state of a running simulation into
// a self-describing binary snapshot and restores it into a freshly built
// world, such that the resumed run is bit-identical to one that was never
// interrupted.
//
// # Design: deterministic rebuild + dynamic-state overlay
//
// A snapshot does not try to serialize every object graph edge. The engine is
// deliberately deterministic — a Scenario's seed fully determines its outcome
// — so the restore path first *rebuilds* the scenario through the exact same
// construction path as the original run (same topology, same RNG fork order,
// same build-time event sequence numbers), then *overlays* the dynamic state
// the snapshot captured: clocks, counters, flow tables, sketches, pushback
// hysteresis, in-flight packets and the pending event queue. Rebuilding
// reproduces every pointer topology for free; the overlay only carries plain
// values.
//
// Pending events are the delicate part. Events scheduled during construction
// ("build events", sequence numbers below World.BuildSeq) are recreated by
// the rebuild itself; the restore cancels the ones the original run had
// already consumed (sim.Scheduler.ReconcilePending) and leaves the rest.
// Events scheduled while the simulation was running ("runtime events") are
// captured by classifying their handlers against a closed registry — link
// transmit/arrive, flow send/phase/end, monitor ticks, probe timers — and
// re-inserted with their original timestamps and sequence numbers
// (sim.Scheduler.RestoreEvent) against the rebuilt objects. An event whose
// handler cannot be classified fails the capture loudly rather than
// producing a snapshot that cannot resume.
//
// The registry's lifetime is the run. It is built by the first Capture or
// Restore of a World and cached on it, together with the links in
// Network.ForEachLink order. That is valid because links are created only by
// Network.Connect while the topology is built and flows only by
// traffic.BuildWorkload: nothing a registry indexes is added or replaced once
// the run starts. A run therefore keeps one World for all its checkpoints and
// only refreshes World.Flags before each capture, and a checkpoint costs only
// the copying of state. As a guard, a link count that no longer matches the
// cached list makes the registry rebuild.
//
// RNG streams are restored by fast-forward: the rebuild recreates every
// stream with its original seed (verified), then each stream replays draws
// until it reaches the checkpointed draw count (sim.RNG.FastForwardStream).
//
// # Wire format
//
// A snapshot is a little-endian byte stream: the magic "MAFICSNP", a u32
// SnapshotVersion, then a sequence of sections, each (kind u8 | length u32 |
// payload). Every section appears exactly once; unknown or duplicate
// sections, truncations and trailing bytes are decode errors. The scenario
// itself travels as a JSON blob inside the snapshot, so a snapshot file is
// fully self-describing: Decode + the experiment package's rebuild are all
// that is needed to resume. Encode(Decode(b)) is byte-identical, pinned by
// test, so snapshot files can be copied and inspected without drift.
//
// # Coverage guard
//
// Every stateful engine package exports a CheckpointTypes list, and the
// guard test in this package reflects over each listed struct's fields
// against a pinned manifest. Adding a field anywhere in the live-state
// surface fails the guard until the manifest — and, when the wire format is
// affected, SnapshotVersion — is updated deliberately. New state cannot
// silently miss the snapshot.
//
// The experiment package owns the harness entry points: RunWithCheckpoints
// pauses a run at requested virtual times and hands each encoded snapshot to
// a save callback; RunFromSnapshot decodes, rebuilds, overlays and runs to
// completion.
package checkpoint
