package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"mafic/internal/experiment"
	"mafic/internal/sim"
	"mafic/internal/topology"
	"mafic/internal/traffic"
)

// window is what the process spent over the measured interval.
type window struct {
	wall, cpu  float64 // host seconds; cpu is user+system of the whole process
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
	profile    []byte // gzipped CPU profile, traced runs only
}

// warmUp runs op n times concurrently, untimed, before the measured window,
// so the window does not pay for the first operation's one-off costs:
// filling the simulator's scratch pools and arenas, growing the heap and
// faulting its pages in. Without it those costs are a 1/n share of every
// metric, where n is how many operations the host fits in the window.
func warmUp(n int, op func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			errs[i] = op(i)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

// runPasses is the measured window of a workload: whole passes over the
// workload's fixed set of operations, so every run times the same work and
// the seed only orders it. It runs pass(0), pass(1), ... while one more pass,
// at the mean length of those so far, would end nearer the window's length
// than stopping does, and at least minPasses. The window therefore lasts
// within half a pass of its length.
func runPasses(window time.Duration, minPasses int, now func() time.Time, pass func(k int) error) error {
	start := now()
	for k := 0; ; k++ {
		if k >= minPasses && k > 0 {
			elapsed := now().Sub(start)
			if elapsed+elapsed/time.Duration(2*k) >= window {
				return nil
			}
		}
		if err := pass(k); err != nil {
			return err
		}
	}
}

// passesFor is the fewest passes of n operations that give the tail
// percentile enough samples.
func passesFor(n int) int {
	return (tailBeyond + n) / n
}

// measure runs fn as the measured window. A traced run profiles it.
func (b *bench) measure(fn func() error) (window, error) {
	var w window
	var prof bytes.Buffer
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if b.traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return w, fmt.Errorf("start profile: %w", err)
		}
	}
	c0 := processCPU()
	t0 := time.Now()
	err := fn()
	w.wall = time.Since(t0).Seconds()
	w.cpu = processCPU() - c0
	if b.traced {
		pprof.StopCPUProfile()
		w.profile = prof.Bytes()
	}
	runtime.ReadMemStats(&m1)
	w.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	w.mallocs = m1.Mallocs - m0.Mallocs
	w.gcCycles = m1.NumGC - m0.NumGC
	return w, err
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// resultCounts sums the simulator-internal counters of scenario results.
type resultCounts struct {
	runs                 int
	events               uint64
	queueDrops           uint64
	routeEntries         uint64
	routeBytes           uint64
	examined, probesSent uint64
	ingressPkts          uint64 // packets seen at the ingress routers
}

func (c *resultCounts) add(r experiment.Result, times int) {
	t := uint64(times)
	c.runs += times
	c.events += t * r.EventsProcessed
	c.queueDrops += t * r.Counts.QueueDrops
	c.routeEntries += t * uint64(r.RouteEntries)
	c.routeBytes += t * uint64(r.RouteBytes)
	c.examined += t * r.DefenseStats.Examined
	c.probesSent += t * r.DefenseStats.ProbesSent
	c.ingressPkts += t * (r.Counts.ATRLegitPre + r.Counts.ATRLegitPost + r.Counts.ATRAttackPre + r.Counts.ATRAttackPost)
}

// Each set-up scenario is built at least setupReps times, and the builds
// go on round after round until they have taken setupBudget, so setup_s is
// the median of many builds even where one takes a tenth of a second.
const (
	setupReps   = 5
	setupBudget = time.Second
)

// measureSetup times building each scenario up to its first event through
// RunControlled with an interrupt that has already fired, which builds the
// run and releases it without advancing the clock. A traced run also times
// the topology and workload builds on their own.
func (b *bench) measureSetup(rep *report, scenarios []experiment.Scenario) error {
	fired := make(chan struct{})
	close(fired)
	// Start from a collected heap, so the window's garbage is not
	// collected during the builds.
	runtime.GC()
	begin := time.Now()
	for i := 0; i < setupReps || time.Since(begin) < setupBudget; i++ {
		for _, s := range scenarios {
			start := time.Now()
			_, err := experiment.RunControlled(s, experiment.ControlOptions{Interrupt: fired})
			end := time.Now()
			if !errors.Is(err, experiment.ErrInterrupted) {
				return fmt.Errorf("set-up of %s: %v", s.Name, err)
			}
			rep.setup = append(rep.setup, end.Sub(start).Seconds())
			b.tr.add("setup", 0, start, end)
		}
	}
	if !b.traced {
		return nil
	}
	arena := topology.NewArena()
	for i := 0; i < setupReps; i++ {
		for _, s := range scenarios {
			rng := sim.NewRNG(s.Seed)
			t0 := time.Now()
			d, err := arena.Build(s.Topology, sim.NewScheduler(), rng.Fork())
			if err != nil {
				return fmt.Errorf("topology of %s: %w", s.Name, err)
			}
			t1 := time.Now()
			w, err := traffic.BuildWorkload(s.Workload, d, rng.Fork())
			if err != nil {
				return fmt.Errorf("workload of %s: %w", s.Name, err)
			}
			t2 := time.Now()
			w.Release()
			rep.topology = append(rep.topology, t1.Sub(t0).Seconds())
			rep.workload = append(rep.workload, t2.Sub(t1).Seconds())
			b.tr.add("setup.topology", 0, t0, t1)
			b.tr.add("setup.workload", 0, t1, t2)
		}
	}
	return nil
}

// span is one traced interval, in seconds since the benchmark started.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
}

// tracer keeps a traced run's spans in memory until the run ends. A nil
// tracer records nothing, so untraced runs pay no cost for spans.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span and returns its id (0 on a nil tracer).
func (t *tracer) add(name string, parent int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds(),
	})
	return id
}
