package sim

import (
	"container/heap"
	"fmt"
	"testing"
)

// refEvent is one entry of refScheduler's queue.
type refEvent struct {
	at        Time
	seq       uint64
	fn        Handler
	cancelled bool
}

// refQueue is a container/heap min-queue ordered by (time, sequence).
type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	return q[i].at < q[j].at || (q[i].at == q[j].at && q[i].seq < q[j].seq)
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// refScheduler is the ordering reference for the equivalence tests: the
// scheduler's contract (fire in ascending (time, sequence) order, clamp
// past times to now, cancellation is a no-op once fired) on a plain
// container/heap, with none of the calendar queue's bucketing or retuning.
type refScheduler struct {
	now Time
	seq uint64
	q   refQueue
}

func (r *refScheduler) scheduleAt(at Time, fn Handler) func() {
	if at < r.now {
		at = r.now
	}
	e := &refEvent{at: at, seq: r.seq, fn: fn}
	r.seq++
	heap.Push(&r.q, e)
	return func() { e.cancelled = true }
}

func (r *refScheduler) run() {
	for r.q.Len() > 0 {
		e := heap.Pop(&r.q).(*refEvent)
		if e.cancelled {
			continue
		}
		r.now = e.at
		e.fn(r.now)
	}
}

// eqRec is one dispatched event of an equivalence script: the virtual time
// it fired at and its creation-order identity.
type eqRec struct {
	at Time
	id int
}

// runEquivScript drives a pseudo-random event workload — initial burst,
// events scheduling further events, same-timestamp bursts, and random
// cancellations — through schedule and run and returns the dispatch
// sequence. Every random choice is drawn from a script-local RNG consumed in
// dispatch order, so two queues produce identical scripts exactly as long as
// they dispatch identically; the first divergence cascades into the
// recorded sequences and fails the comparison.
func runEquivScript(schedule func(Time, Handler) func(), run func(), seed int64, spread int) []eqRec {
	rng := NewRNG(seed)

	var fired []eqRec
	var cancels []func()
	nextID := 0
	budget := 20000

	var newEvent func(at Time)
	newEvent = func(at Time) {
		id := nextID
		nextID++
		cancels = append(cancels, schedule(at, func(now Time) {
			fired = append(fired, eqRec{at: now, id: id})
			// Chain: most events schedule successors, stressing inserts
			// into an actively draining queue.
			for k := rng.Intn(3); k > 0 && budget > 0; k-- {
				budget--
				newEvent(now + Time(rng.Intn(spread)))
			}
			// Same-timestamp burst: FIFO tie-breaking must hold.
			if rng.Intn(4) == 0 && budget > 0 {
				budget--
				newEvent(now)
			}
			// Random cancellation, including of already-fired events
			// (which must be a no-op).
			if rng.Intn(3) == 0 {
				cancels[rng.Intn(len(cancels))]()
			}
		}))
	}
	for i := 0; i < 500; i++ {
		newEvent(Time(rng.Intn(spread)))
	}
	run()
	return fired
}

// TestBackendEquivalence is the scheduler-level property test: identical
// random event sequences (inserts, cancellations, same-timestamp bursts,
// dynamic rescheduling) dispatched through the calendar-queue scheduler and
// through the container/heap reference must yield identical order. The
// dense spread keeps many events per bucket; the sparse spread forces
// empty-window scans, direct-search jumps and width retunes.
func TestBackendEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		for _, spread := range []int{50, 200_000} {
			t.Run(fmt.Sprintf("seed%d_spread%d", seed, spread), func(t *testing.T) {
				ref := &refScheduler{}
				oracle := runEquivScript(ref.scheduleAt, ref.run, seed, spread)

				s := NewScheduler()
				schedule := func(at Time, fn Handler) func() { return s.ScheduleAt(at, fn).Cancel }
				got := runEquivScript(schedule, func() {
					if err := s.Run(); err != nil {
						t.Fatalf("run: %v", err)
					}
				}, seed, spread)

				if len(got) != len(oracle) {
					t.Fatalf("scheduler fired %d events, reference fired %d", len(got), len(oracle))
				}
				for i := range oracle {
					if got[i] != oracle[i] {
						t.Fatalf("dispatch %d diverges: scheduler %+v, reference %+v", i, got[i], oracle[i])
					}
				}
			})
		}
	}
}

// TestScanRewindAfterRunUntil pins the calendar queue's re-anchoring path:
// peeking at a far-future event advances the window scan; an event scheduled
// afterwards at an earlier time must still fire first.
func TestScanRewindAfterRunUntil(t *testing.T) {
	// The calendar queue is the scheduler's queue.
	t.Run("calendar", func(t *testing.T) {
		s := NewScheduler()
		var fired []Time
		record := func(now Time) { fired = append(fired, now) }
		s.ScheduleAt(10*Second, record)
		if err := s.RunUntil(1 * Second); err != nil {
			t.Fatalf("run until: %v", err)
		}
		if len(fired) != 0 || s.Now() != 1*Second {
			t.Fatalf("after RunUntil: fired %v, now %v", fired, s.Now())
		}
		s.ScheduleAt(1500*Millisecond, record)
		if err := s.Run(); err != nil {
			t.Fatalf("run: %v", err)
		}
		want := []Time{1500 * Millisecond, 10 * Second}
		if len(fired) != 2 || fired[0] != want[0] || fired[1] != want[1] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	})
}

// TestResetRecyclesScheduler verifies Reset discards pending events,
// invalidates outstanding refs, restarts the clock, and leaves the scheduler
// fully usable.
func TestResetRecyclesScheduler(t *testing.T) {
	// The calendar queue is the scheduler's queue.
	t.Run("calendar", func(t *testing.T) {
		s := NewScheduler()
		stale := false
		ref := s.ScheduleAt(5, func(Time) { stale = true })
		s.ScheduleAt(1, func(Time) {})
		if err := s.RunUntil(2); err != nil {
			t.Fatalf("run until: %v", err)
		}

		s.Reset()
		if s.Now() != 0 || s.Len() != 0 || s.Processed() != 0 {
			t.Fatalf("after reset: now %v len %d processed %d", s.Now(), s.Len(), s.Processed())
		}
		if ref.Pending() {
			t.Fatal("ref to discarded event still pending")
		}
		ref.Cancel() // must be a detected-stale no-op

		fired := false
		s.ScheduleAt(3, func(Time) { fired = true })
		if err := s.Run(); err != nil {
			t.Fatalf("run after reset: %v", err)
		}
		if stale {
			t.Fatal("event discarded by Reset fired anyway")
		}
		if !fired || s.Now() != 3 {
			t.Fatalf("post-reset event: fired %v now %v", fired, s.Now())
		}
	})
}
