package trafficmatrix

import (
	"fmt"

	"mafic/internal/loglog"
	"mafic/internal/netsim"
	"mafic/internal/sim"
)

// CounterState is the dynamic state of one per-router counter: both sketch
// pairs and the exact packet tallies for the epoch in progress. The router
// binding and bucket geometry are rebuild-covered.
type CounterState struct {
	Source     loglog.PairState
	Dest       loglog.PairState
	SourcePkts uint64
	DestPkts   uint64
	Transit    uint64
}

// MonitorState is the monitor's dynamic state. Counters are listed in
// routerIDs order (ascending router ID), which a deterministic rebuild
// reproduces exactly. The pooled report buffers (estimate tables, matrix,
// union scratch) are not captured: every epoch computation overwrites them
// from scratch, so their content between epochs is dead state.
type MonitorState struct {
	EpochIndex int64
	EpochStart sim.Time
	Stop       bool
	Running    bool
	Counters   []CounterState
}

// CheckpointState captures the monitor's dynamic state. Every counter's
// sketch buckets are copied into one shared buffer, so the capture costs two
// allocations however many routers are monitored.
func (m *Monitor) CheckpointState() MonitorState {
	st := MonitorState{
		EpochIndex: int64(m.epochIndex),
		EpochStart: m.epochStart,
		Stop:       m.stop,
		Running:    m.running,
		Counters:   make([]CounterState, len(m.routerIDs)),
	}
	size := 0
	for _, id := range m.routerIDs {
		c := m.counters[id]
		size += c.source.StateBytes() + c.dest.StateBytes()
	}
	buf := make([]uint8, size)
	for i, id := range m.routerIDs {
		c := m.counters[id]
		rec := &st.Counters[i]
		rec.Source, buf = c.source.CheckpointState(buf)
		rec.Dest, buf = c.dest.CheckpointState(buf)
		rec.SourcePkts, rec.DestPkts, rec.Transit = c.sourcePkts, c.destPkts, c.transit
	}
	return st
}

// RestoreState overlays captured dynamic state onto a rebuilt monitor with
// the same monitored set.
func (m *Monitor) RestoreState(st MonitorState) error {
	if len(st.Counters) != len(m.routerIDs) {
		return fmt.Errorf("trafficmatrix: restore has %d counters, rebuilt monitor has %d",
			len(st.Counters), len(m.routerIDs))
	}
	m.epochIndex = int(st.EpochIndex)
	m.epochStart = st.EpochStart
	m.stop = st.Stop
	m.running = st.Running
	for i, id := range m.routerIDs {
		c := m.counters[id]
		rec := &st.Counters[i]
		if err := c.source.RestoreState(rec.Source); err != nil {
			return fmt.Errorf("trafficmatrix: router %d source pair: %w", id, err)
		}
		if err := c.dest.RestoreState(rec.Dest); err != nil {
			return fmt.Errorf("trafficmatrix: router %d dest pair: %w", id, err)
		}
		c.sourcePkts = rec.SourcePkts
		c.destPkts = rec.DestPkts
		c.transit = rec.Transit
	}
	return nil
}

// EpochReportState is the serializable form of a delayed epoch report in
// flight on the control channel. Delayed reports are owned deep copies, so
// the full contents travel in the snapshot.
type EpochReportState struct {
	Epoch      int64
	Start, End sim.Time
	Routers    []netsim.NodeID
	SourceEst  []float64
	DestEst    []float64
	Matrix     []Cell
}

// CaptureEpochReport describes the report a pending delayed-delivery event
// carries as its payload.
func (m *Monitor) CaptureEpochReport(arg any) (EpochReportState, error) {
	r, ok := arg.(*EpochReport)
	if !ok {
		return EpochReportState{}, fmt.Errorf("trafficmatrix: delayed-report payload is %T, not an epoch report", arg)
	}
	return EpochReportState{
		Epoch:     int64(r.Epoch),
		Start:     r.Start,
		End:       r.End,
		Routers:   append([]netsim.NodeID(nil), r.Routers...),
		SourceEst: append([]float64(nil), r.SourceEst...),
		DestEst:   append([]float64(nil), r.DestEst...),
		Matrix:    append([]Cell(nil), r.Matrix...),
	}, nil
}

// RestoreEpochReport materializes a delayed report from its captured state,
// for use as the payload of the re-inserted delivery event. Like the original
// delayed copy, the restored report owns its backing.
func (m *Monitor) RestoreEpochReport(st EpochReportState) any {
	return &EpochReport{
		Epoch:     int(st.Epoch),
		Start:     st.Start,
		End:       st.End,
		Routers:   st.Routers,
		SourceEst: st.SourceEst,
		DestEst:   st.DestEst,
		Matrix:    st.Matrix,
	}
}

// CheckpointTypes lists this package's structs that carry snapshotted state.
var CheckpointTypes = []any{
	Monitor{},
	Counter{},
	EpochReport{},
	Cell{},
}
