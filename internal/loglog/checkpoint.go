package loglog

import "fmt"

// SketchState is the dynamic state of one sketch. The parameters (bucket
// count, hash split) are rebuild-covered; only the bucket contents and the
// add counter travel in a snapshot.
type SketchState struct {
	Buckets []uint8
	Adds    uint64
}

// checkpointState captures the sketch's dynamic state. The bucket copy is
// carved off the front of buf, which must hold at least the sketch's bucket
// count; the unused rest of buf is returned.
func (s *Sketch) checkpointState(buf []uint8) (SketchState, []uint8) {
	n := len(s.buckets)
	st := SketchState{Buckets: buf[:n:n], Adds: s.adds}
	copy(st.Buckets, s.buckets)
	return st, buf[n:]
}

// RestoreState overlays captured dynamic state onto a rebuilt sketch of the
// same geometry.
func (s *Sketch) RestoreState(st SketchState) error {
	if len(st.Buckets) != len(s.buckets) {
		return fmt.Errorf("loglog: restore bucket count %d does not match rebuilt sketch %d",
			len(st.Buckets), len(s.buckets))
	}
	copy(s.buckets, st.Buckets)
	s.adds = st.Adds
	return nil
}

// PairState is the dynamic state of a double-buffered pair. Capturing the
// active and shadow halves by role (rather than by backing-slab position)
// makes the physical orientation — which slab slot is active after an odd or
// even number of swaps — irrelevant: the halves are only ever reached through
// Active and Shadow, so overlaying by role restores identical behaviour.
type PairState struct {
	Active SketchState
	Shadow SketchState
}

// StateBytes reports how many bucket bytes CheckpointState copies.
func (p *Pair) StateBytes() int { return len(p.active.buckets) + len(p.shadow.buckets) }

// CheckpointState captures both halves of the pair, carving their bucket
// copies off the front of buf (at least StateBytes long) and returning the
// unused rest.
func (p *Pair) CheckpointState(buf []uint8) (PairState, []uint8) {
	var st PairState
	st.Active, buf = p.active.checkpointState(buf)
	st.Shadow, buf = p.shadow.checkpointState(buf)
	return st, buf
}

// RestoreState overlays captured state onto a rebuilt pair of the same
// geometry.
func (p *Pair) RestoreState(st PairState) error {
	if err := p.active.RestoreState(st.Active); err != nil {
		return err
	}
	return p.shadow.RestoreState(st.Shadow)
}

// CheckpointTypes lists this package's structs that carry snapshotted state.
var CheckpointTypes = []any{
	Sketch{},
	Pair{},
}
