package flowtable

import (
	"fmt"
	"slices"
)

// TablesState is the dynamic state of one Tables: every tracked entry
// verbatim (generation counters included, so outstanding probe-record
// liveness checks keep working across a restore) plus the cumulative
// statistics. Capacity is rebuild-covered.
type TablesState struct {
	Entries     []Entry
	Evictions   uint64
	Transitions [statePermanentDropIdx + 1]uint64
}

// ForEachEntry visits every tracked entry in deterministic order — SFT, NFT,
// PDT, each ascending by label hash — so capture output does not depend on
// map iteration order.
func (t *Tables) ForEachEntry(fn func(e *Entry)) {
	n := t.tracked()
	if n == 0 {
		return
	}
	scratch := make([]uint64, 0, n)
	for _, m := range [3]map[uint64]*Entry{t.sft, t.nft, t.pdt} {
		hashes := scratch[:0]
		for h := range m {
			hashes = append(hashes, h)
		}
		slices.Sort(hashes)
		for _, h := range hashes {
			fn(m[h])
		}
		scratch = hashes
	}
}

// tracked reports the number of entries across the three tables.
func (t *Tables) tracked() int { return len(t.sft) + len(t.nft) + len(t.pdt) }

// CheckpointState captures the tables' dynamic state.
func (t *Tables) CheckpointState() TablesState {
	st := TablesState{
		Evictions:   t.evictions,
		Transitions: t.transitions,
	}
	if n := t.tracked(); n > 0 {
		st.Entries = make([]Entry, 0, n)
		t.ForEachEntry(func(e *Entry) { st.Entries = append(st.Entries, *e) })
	}
	return st
}

// RestoreState flushes the rebuilt tables and re-inserts the captured
// entries verbatim, Gen included: a probe record captured as live binds to
// its restored entry with matching generations, and the next flush or
// eviction still invalidates it through the usual bump.
func (t *Tables) RestoreState(st TablesState) error {
	t.Flush()
	for i := range st.Entries {
		rec := &st.Entries[i]
		e := t.get()
		*e = *rec
		switch rec.State {
		case StateSuspicious:
			t.sft[rec.LabelHash] = e
		case StateNice:
			t.nft[rec.LabelHash] = e
		case StatePermanentDrop:
			t.pdt[rec.LabelHash] = e
		default:
			t.put(e)
			return fmt.Errorf("flowtable: restore entry %x has invalid state %d", rec.LabelHash, rec.State)
		}
	}
	t.evictions = st.Evictions
	t.transitions = st.Transitions
	return nil
}

// CheckpointTypes lists this package's structs that carry snapshotted state.
var CheckpointTypes = []any{
	Tables{},
	Entry{},
}
