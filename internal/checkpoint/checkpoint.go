package checkpoint

import (
	"cmp"
	"fmt"
	"slices"

	"mafic/internal/baseline"
	"mafic/internal/core"
	"mafic/internal/metrics"
	"mafic/internal/netsim"
	"mafic/internal/pushback"
	"mafic/internal/sim"
	"mafic/internal/traffic"
	"mafic/internal/trafficmatrix"
)

// World is the bridge between the experiment run loop and the checkpoint
// layer: every live component of a built run, plus the build/run sequence
// boundary. The experiment package fills it in (avoiding an import cycle —
// this package knows the stateful engine packages, the experiment package
// knows this one).
//
// A run keeps one World for all its checkpoints: the first Capture or
// Restore builds the handler registry and caches it here, so the component
// fields must not be replaced afterwards. Only Flags changes between
// captures.
type World struct {
	Sched       *sim.Scheduler
	RNG         *sim.RNG // the run's root stream; the fork registry hangs off it
	Net         *netsim.Network
	Workload    *traffic.Workload
	Monitor     *trafficmatrix.Monitor
	Coordinator *pushback.Coordinator
	Collector   *metrics.Collector
	// MAFIC and Baseline list the per-ingress defenders in ascending
	// ingress order; at most one of them is non-empty.
	MAFIC    []*core.Defender
	Baseline []*baseline.Dropper
	// BuildSeq is the scheduler sequence number recorded immediately after
	// the build completed, before the first RunUntil: events with a lower
	// sequence number were created by the deterministic rebuild, events at
	// or above it were scheduled at runtime and travel in the snapshot.
	BuildSeq uint64
	// Flags carries the run-level bookkeeping the activation callback has
	// written into the result so far.
	Flags RunFlags

	// reg is the handler registry, built by the first Capture or Restore and
	// kept for the rest of the run; see registry.
	reg *registry
}

// RunFlags is the run-level activation bookkeeping that lives in the result
// struct rather than in any engine component.
type RunFlags struct {
	Activated          bool
	ActivationSeconds  float64
	DetectedByPushback bool
	ATRCount           int64
}

// Event kinds. EvBuild marks a still-pending build-time event (the rebuild
// recreates it; the restore merely keeps it); every other kind is a
// runtime-scheduled event re-inserted explicitly. The runtime kinds form a
// closed set — Capture fails loudly on an unrecognised handler rather than
// silently dropping an event.
const (
	EvBuild uint8 = iota + 1
	EvLinkTx
	EvLinkArrive
	EvFlowSend
	EvFlowPhase
	EvFlowEnd
	EvMonitorTick
	EvMonitorLate
	EvProbeSend
	EvWindowEnd
)

// EventState is one pending event in a snapshot.
type EventState struct {
	At   sim.Time
	Seq  uint64
	Kind uint8
	// Index identifies the handler owner by kind: the link index (in
	// Network.ForEachLink order) for link events, the flow index (in
	// Workload.Flows order) for flow events, the defender index (ascending
	// ingress order) for probe-cycle events.
	Index uint32
	// Probe is the probe-record table index for EvProbeSend / EvWindowEnd;
	// the two events of one probe cycle share one record. Records are
	// numbered in first-appearance order of the Seq-sorted events.
	Probe uint32
	// Packet is the in-flight payload of an EvLinkArrive event.
	Packet netsim.PacketState
	// Report is the owned payload of an EvMonitorLate delayed report.
	Report trafficmatrix.EpochReportState
}

// ProbeRec is one entry of the deduplicated probe-record table.
type ProbeRec struct {
	Def   uint32
	State core.ProbeRecordState
}

// StreamState is the position of one RNG stream.
type StreamState struct {
	Seed  int64
	Draws uint64
}

// NodeState is the per-node dynamic state, exactly one of Router/Host valid.
type NodeState struct {
	ID     netsim.NodeID
	Router bool
	R      netsim.RouterState
	H      netsim.HostState
}

// Defender kinds in a snapshot.
const (
	DefNone     uint8 = 0
	DefMAFIC    uint8 = 1
	DefBaseline uint8 = 2
)

// Snapshot is the decoded in-memory form of one checkpoint: the scenario
// (JSON, so a resume can rebuild the run from nothing but the snapshot file)
// plus every piece of dynamic state the rebuild does not reproduce.
type Snapshot struct {
	Scenario []byte

	BuildSeq  uint64
	Now       sim.Time
	NextSeq   uint64
	Processed uint64

	Streams []StreamState

	Events    []EventState
	ProbeRecs []ProbeRec

	Links   []netsim.LinkState
	Nodes   []NodeState
	Network netsim.NetworkState

	Monitor     trafficmatrix.MonitorState
	Coordinator pushback.CoordinatorState
	Collector   metrics.CollectorState

	DefKind   uint8
	Defenders []core.DefenderState
	Droppers  []baseline.DropperState

	Flows   []traffic.FlowState
	Victims []traffic.VictimServerState

	Flags RunFlags
}

// CheckpointTypes lists this package's own snapshot-carrying structs; the
// coverage guard watches them like every engine package's, so the wire format
// cannot silently drift from the in-memory snapshot layout.
var CheckpointTypes = []any{
	Snapshot{},
	EventState{},
	ProbeRec{},
	StreamState{},
	NodeState{},
	RunFlags{},
	World{},
}

// handlerRole classifies a scheduled handler identity during capture.
type handlerRole struct {
	kind  uint8 // the EvFlowSend/EvFlowPhase/... base kind, or EvLinkTx / EvMonitorTick for the dual-role owners
	index uint32
}

// registry indexes every object runtime events can dispatch through, keyed
// by the exact interface value the scheduler holds, plus the links in
// Network.ForEachLink order (the index space of link events and of
// Snapshot.Links). Links are created only by Network.Connect while the
// topology is built and flows only by traffic.BuildWorkload, so the registry
// is built once per run and every later Capture or Restore of the same World
// reuses it.
type registry struct {
	handlers map[any]handlerRole
	links    []*netsim.Link
}

// registry returns the World's handler registry, building it on first use.
// A link count that no longer matches the cached list means the network
// changed after all; the registry is then rebuilt rather than trusted.
func (w *World) registry() *registry {
	if w.reg != nil && len(w.reg.links) == w.Net.LinkTotal() {
		return w.reg
	}
	n := w.Net.LinkTotal()
	// At most three handlers per flow (send, phase, phase end), two per
	// defender and the monitor.
	size := n + 3*len(w.Workload.Flows) + 2*len(w.MAFIC) + 1
	reg := &registry{
		handlers: make(map[any]handlerRole, size),
		links:    make([]*netsim.Link, 0, n),
	}
	w.Net.ForEachLink(func(l *netsim.Link) {
		reg.handlers[l] = handlerRole{kind: EvLinkTx, index: uint32(len(reg.links))}
		reg.links = append(reg.links, l)
	})
	for i, f := range w.Workload.Flows {
		if h := traffic.SendHandler(f); h != nil {
			reg.handlers[h] = handlerRole{kind: EvFlowSend, index: uint32(i)}
		}
		if ph, eh := traffic.PhaseHandlers(f); ph != nil {
			reg.handlers[ph] = handlerRole{kind: EvFlowPhase, index: uint32(i)}
			reg.handlers[eh] = handlerRole{kind: EvFlowEnd, index: uint32(i)}
		}
	}
	if w.Monitor != nil {
		reg.handlers[w.Monitor] = handlerRole{kind: EvMonitorTick}
	}
	for i, d := range w.MAFIC {
		ps, we := d.ProbeHandlers()
		reg.handlers[ps] = handlerRole{kind: EvProbeSend, index: uint32(i)}
		reg.handlers[we] = handlerRole{kind: EvWindowEnd, index: uint32(i)}
	}
	w.reg = reg
	return reg
}

// Capture walks the live run and assembles a Snapshot. scenarioJSON is the
// serialized Scenario the resume path will rebuild from. The run must be
// paused at an event boundary (between RunUntil calls); Capture only reads.
// A run that checkpoints repeatedly passes the same World every time, so the
// handler registry is built once and each capture only copies state.
func Capture(w *World, scenarioJSON []byte) (*Snapshot, error) {
	reg := w.registry()
	snap := &Snapshot{
		Scenario:  scenarioJSON,
		BuildSeq:  w.BuildSeq,
		Now:       w.Sched.Now(),
		NextSeq:   w.Sched.Seq(),
		Processed: w.Sched.Processed(),
		Flags:     w.Flags,
		Streams:   make([]StreamState, w.RNG.StreamCount()),
		Events:    make([]EventState, 0, w.Sched.Len()),
		Links:     make([]netsim.LinkState, len(reg.links)),
		Nodes:     make([]NodeState, 0, w.Net.NodeCount()),
	}

	for i := range snap.Streams {
		seed, draws := w.RNG.StreamState(i)
		snap.Streams[i] = StreamState{Seed: seed, Draws: draws}
	}

	probeIdx := make(map[any]uint32)
	var captureErr error
	w.Sched.ForEachPending(func(ev sim.PendingEvent) {
		if captureErr != nil {
			return
		}
		if ev.Seq < w.BuildSeq {
			snap.Events = append(snap.Events, EventState{At: ev.At, Seq: ev.Seq, Kind: EvBuild})
			return
		}
		if ev.Closure {
			captureErr = fmt.Errorf("checkpoint: runtime event %d at %v dispatches a closure and cannot be captured", ev.Seq, ev.At)
			return
		}
		var key any = ev.H
		if key == nil {
			key = ev.ArgH
		}
		role, ok := reg.handlers[key]
		if !ok {
			captureErr = fmt.Errorf("checkpoint: runtime event %d at %v has unrecognised handler %T", ev.Seq, ev.At, key)
			return
		}
		st := EventState{At: ev.At, Seq: ev.Seq, Kind: role.kind, Index: role.index}
		switch role.kind {
		case EvLinkTx:
			if ev.ArgH != nil {
				// The link's ArgHandler face: a propagated packet arriving.
				st.Kind = EvLinkArrive
				pkt, ok := ev.Arg.(*netsim.Packet)
				if !ok {
					captureErr = fmt.Errorf("checkpoint: link arrival event %d carries %T, not a packet", ev.Seq, ev.Arg)
					return
				}
				st.Packet = netsim.CapturePacket(pkt)
			}
		case EvMonitorTick:
			if ev.ArgH != nil {
				st.Kind = EvMonitorLate
				rep, err := w.Monitor.CaptureEpochReport(ev.Arg)
				if err != nil {
					captureErr = err
					return
				}
				st.Report = rep
			}
		case EvProbeSend, EvWindowEnd:
			idx, seen := probeIdx[ev.Arg]
			if !seen {
				rec, err := w.MAFIC[role.index].CaptureProbeRecord(ev.Arg)
				if err != nil {
					captureErr = err
					return
				}
				idx = uint32(len(snap.ProbeRecs))
				snap.ProbeRecs = append(snap.ProbeRecs, ProbeRec{Def: role.index, State: rec})
				probeIdx[ev.Arg] = idx
			}
			st.Probe = idx
		}
		snap.Events = append(snap.Events, st)
	})
	if captureErr != nil {
		return nil, captureErr
	}
	slices.SortFunc(snap.Events, func(a, b EventState) int { return cmp.Compare(a.Seq, b.Seq) })
	renumberProbes(snap)

	for i, l := range reg.links {
		snap.Links[i] = l.CheckpointState()
	}
	w.Net.ForEachNode(func(id netsim.NodeID, r *netsim.Router, h *netsim.Host) {
		ns := NodeState{ID: id}
		if r != nil {
			ns.Router = true
			ns.R = r.CheckpointState()
		} else {
			ns.H = h.CheckpointState()
		}
		snap.Nodes = append(snap.Nodes, ns)
	})
	snap.Network = w.Net.CheckpointState()

	if w.Monitor != nil {
		snap.Monitor = w.Monitor.CheckpointState()
	}
	if w.Coordinator != nil {
		snap.Coordinator = w.Coordinator.CheckpointState()
	}
	if w.Collector != nil {
		snap.Collector = w.Collector.CheckpointState()
	}

	switch {
	case len(w.MAFIC) > 0:
		snap.DefKind = DefMAFIC
		snap.Defenders = make([]core.DefenderState, len(w.MAFIC))
		for i, d := range w.MAFIC {
			snap.Defenders[i] = d.CheckpointState()
		}
	case len(w.Baseline) > 0:
		snap.DefKind = DefBaseline
		snap.Droppers = make([]baseline.DropperState, len(w.Baseline))
		for i, d := range w.Baseline {
			snap.Droppers[i] = d.CheckpointState()
		}
	}

	snap.Flows = make([]traffic.FlowState, len(w.Workload.Flows))
	for i, f := range w.Workload.Flows {
		fs, err := traffic.CaptureFlowState(f)
		if err != nil {
			return nil, err
		}
		snap.Flows[i] = fs
	}
	snap.Victims = make([]traffic.VictimServerState, 0, 1+len(w.Workload.ExtraServers))
	snap.Victims = append(snap.Victims, w.Workload.Victim.CheckpointState())
	for _, v := range w.Workload.ExtraServers {
		snap.Victims = append(snap.Victims, v.CheckpointState())
	}

	return snap, nil
}

// renumberProbes renumbers the probe-record table in first-appearance order
// of the Seq-sorted events. Capture first numbers records in scheduler-arena
// order, which a restore rearranges; numbering by sequence makes a snapshot
// taken after a resume byte-identical to the uninterrupted run's.
func renumberProbes(snap *Snapshot) {
	if len(snap.ProbeRecs) < 2 {
		return
	}
	// renum[old] is the new index plus one; zero means not yet seen.
	renum := make([]uint32, len(snap.ProbeRecs))
	recs := make([]ProbeRec, 0, len(snap.ProbeRecs))
	for i := range snap.Events {
		ev := &snap.Events[i]
		if ev.Kind != EvProbeSend && ev.Kind != EvWindowEnd {
			continue
		}
		if renum[ev.Probe] == 0 {
			recs = append(recs, snap.ProbeRecs[ev.Probe])
			renum[ev.Probe] = uint32(len(recs))
		}
		ev.Probe = renum[ev.Probe] - 1
	}
	snap.ProbeRecs = recs
}

// Restore overlays a snapshot onto a freshly rebuilt world. The rebuild must
// have followed the exact build path of the original run (same scenario, same
// RNG fork order, same build-time event sequence) — Restore verifies the
// build boundary and the RNG stream layout and fails loudly on divergence.
// After Restore returns, resuming the scheduler continues the simulation
// bit-identically to the uninterrupted run.
func Restore(w *World, snap *Snapshot) error {
	if w.BuildSeq != snap.BuildSeq {
		return fmt.Errorf("checkpoint: rebuild scheduled %d build events, snapshot recorded %d — the builds diverged",
			w.BuildSeq, snap.BuildSeq)
	}
	if got, want := w.RNG.StreamCount(), len(snap.Streams); got != want {
		return fmt.Errorf("checkpoint: rebuild created %d rng streams, snapshot recorded %d", got, want)
	}
	for i, st := range snap.Streams {
		if err := w.RNG.FastForwardStream(i, st.Seed, st.Draws); err != nil {
			return err
		}
	}

	links := w.registry().links
	if len(links) != len(snap.Links) {
		return fmt.Errorf("checkpoint: rebuild has %d links, snapshot recorded %d", len(links), len(snap.Links))
	}
	for i, l := range links {
		l.RestoreState(snap.Links[i])
	}
	var nodeErr error
	nodeAt := 0
	w.Net.ForEachNode(func(id netsim.NodeID, r *netsim.Router, h *netsim.Host) {
		if nodeErr != nil {
			return
		}
		if nodeAt >= len(snap.Nodes) {
			nodeErr = fmt.Errorf("checkpoint: rebuild has more nodes than the snapshot's %d", len(snap.Nodes))
			return
		}
		ns := snap.Nodes[nodeAt]
		nodeAt++
		if ns.ID != id || ns.Router != (r != nil) {
			nodeErr = fmt.Errorf("checkpoint: node %d of the rebuild (%d, router=%v) does not match the snapshot (%d, router=%v)",
				nodeAt-1, id, r != nil, ns.ID, ns.Router)
			return
		}
		if r != nil {
			r.RestoreState(ns.R)
		} else {
			h.RestoreState(ns.H)
		}
	})
	if nodeErr != nil {
		return nodeErr
	}
	if nodeAt != len(snap.Nodes) {
		return fmt.Errorf("checkpoint: snapshot has %d nodes, rebuild has %d", len(snap.Nodes), nodeAt)
	}
	if err := w.Net.RestoreState(snap.Network); err != nil {
		return err
	}

	if w.Monitor != nil {
		if err := w.Monitor.RestoreState(snap.Monitor); err != nil {
			return err
		}
	}
	if w.Coordinator != nil {
		if err := w.Coordinator.RestoreState(snap.Coordinator); err != nil {
			return err
		}
	}
	if w.Collector != nil {
		if err := w.Collector.RestoreState(snap.Collector); err != nil {
			return err
		}
	}

	switch snap.DefKind {
	case DefMAFIC:
		if len(w.MAFIC) != len(snap.Defenders) {
			return fmt.Errorf("checkpoint: rebuild has %d MAFIC defenders, snapshot recorded %d",
				len(w.MAFIC), len(snap.Defenders))
		}
		for i, d := range w.MAFIC {
			if err := d.RestoreState(snap.Defenders[i]); err != nil {
				return err
			}
		}
	case DefBaseline:
		if len(w.Baseline) != len(snap.Droppers) {
			return fmt.Errorf("checkpoint: rebuild has %d baseline droppers, snapshot recorded %d",
				len(w.Baseline), len(snap.Droppers))
		}
		for i, d := range w.Baseline {
			d.RestoreState(snap.Droppers[i])
		}
	}

	if len(w.Workload.Flows) != len(snap.Flows) {
		return fmt.Errorf("checkpoint: rebuild has %d flows, snapshot recorded %d",
			len(w.Workload.Flows), len(snap.Flows))
	}
	for i, f := range w.Workload.Flows {
		if err := traffic.RestoreFlowState(f, snap.Flows[i]); err != nil {
			return err
		}
	}
	if want := 1 + len(w.Workload.ExtraServers); want != len(snap.Victims) {
		return fmt.Errorf("checkpoint: rebuild has %d victim servers, snapshot recorded %d", want, len(snap.Victims))
	}
	w.Workload.Victim.RestoreState(snap.Victims[0])
	for i, v := range w.Workload.ExtraServers {
		v.RestoreState(snap.Victims[1+i])
	}

	// Probe records are re-bound against the already-restored flow tables.
	probeRecs := make([]any, len(snap.ProbeRecs))
	for i, pr := range snap.ProbeRecs {
		if int(pr.Def) >= len(w.MAFIC) {
			return fmt.Errorf("checkpoint: probe record %d names defender %d of %d", i, pr.Def, len(w.MAFIC))
		}
		rec, err := w.MAFIC[pr.Def].RestoreProbeRecord(pr.State)
		if err != nil {
			return err
		}
		probeRecs[i] = rec
	}

	// Event reconciliation: cancel the rebuilt build-time events the
	// original run had already consumed, land the clock, then re-insert the
	// runtime events in sequence order.
	keep := make(map[uint64]bool, len(snap.Events))
	for _, ev := range snap.Events {
		if ev.Kind == EvBuild {
			keep[ev.Seq] = true
		}
	}
	w.Sched.ReconcilePending(snap.BuildSeq, func(seq uint64) bool { return keep[seq] })
	w.Sched.RestoreClock(snap.Now, snap.NextSeq, snap.Processed)

	for i := range snap.Events {
		ev := &snap.Events[i]
		if ev.Kind == EvBuild {
			continue
		}
		switch ev.Kind {
		case EvLinkTx, EvLinkArrive:
			if int(ev.Index) >= len(links) {
				return fmt.Errorf("checkpoint: event %d names link %d of %d", ev.Seq, ev.Index, len(links))
			}
			l := links[ev.Index]
			if ev.Kind == EvLinkTx {
				w.Sched.RestoreEvent(ev.At, ev.Seq, nil, nil, nil, l)
			} else {
				w.Sched.RestoreEvent(ev.At, ev.Seq, nil, l, w.Net.RestorePacket(ev.Packet), nil)
			}
		case EvFlowSend, EvFlowPhase, EvFlowEnd:
			if int(ev.Index) >= len(w.Workload.Flows) {
				return fmt.Errorf("checkpoint: event %d names flow %d of %d", ev.Seq, ev.Index, len(w.Workload.Flows))
			}
			f := w.Workload.Flows[ev.Index]
			switch ev.Kind {
			case EvFlowSend:
				h := traffic.SendHandler(f)
				traffic.SetSendEvent(f, w.Sched.RestoreEvent(ev.At, ev.Seq, nil, nil, nil, h))
			case EvFlowPhase:
				ph, _ := traffic.PhaseHandlers(f)
				if ph == nil {
					return fmt.Errorf("checkpoint: event %d schedules a phase on flow %d, which has none", ev.Seq, ev.Index)
				}
				traffic.SetPhaseEvent(f, w.Sched.RestoreEvent(ev.At, ev.Seq, nil, nil, nil, ph))
			default:
				_, eh := traffic.PhaseHandlers(f)
				if eh == nil {
					return fmt.Errorf("checkpoint: event %d schedules a phase end on flow %d, which has none", ev.Seq, ev.Index)
				}
				w.Sched.RestoreEvent(ev.At, ev.Seq, nil, nil, nil, eh)
			}
		case EvMonitorTick:
			w.Sched.RestoreEvent(ev.At, ev.Seq, nil, nil, nil, w.Monitor)
		case EvMonitorLate:
			w.Sched.RestoreEvent(ev.At, ev.Seq, nil, w.Monitor, w.Monitor.RestoreEpochReport(ev.Report), nil)
		case EvProbeSend, EvWindowEnd:
			if int(ev.Index) >= len(w.MAFIC) {
				return fmt.Errorf("checkpoint: event %d names defender %d of %d", ev.Seq, ev.Index, len(w.MAFIC))
			}
			if int(ev.Probe) >= len(probeRecs) {
				return fmt.Errorf("checkpoint: event %d names probe record %d of %d", ev.Seq, ev.Probe, len(probeRecs))
			}
			ps, we := w.MAFIC[ev.Index].ProbeHandlers()
			ah := ps
			if ev.Kind == EvWindowEnd {
				ah = we
			}
			w.Sched.RestoreEvent(ev.At, ev.Seq, nil, ah, probeRecs[ev.Probe], nil)
		default:
			return fmt.Errorf("checkpoint: unknown event kind %d", ev.Kind)
		}
	}
	w.Flags = snap.Flags
	return nil
}
