package main

import (
	"bytes"
	"math"
	"math/rand"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"

	"mafic/internal/experiment"
)

func TestAttributeChargesRuntimeToInnermostRepoCaller(t *testing.T) {
	fr := func(fn, file string) frame { return frame{fn: fn, file: file} }
	samples := []cpuSample{
		// Allocation inside snapshot encoding counts as checkpoint.
		{10, []frame{
			fr("runtime.memclrNoHeapPointers", "runtime/memclr_amd64.s"),
			fr("runtime.mallocgc", "runtime/malloc.go"),
			fr("mafic/internal/checkpoint.Encode", "internal/checkpoint/codec.go"),
			fr("mafic/internal/experiment.controlLoop", "internal/experiment/controlled.go"),
		}},
		// The innermost repo frame wins over outer ones.
		{20, []frame{
			fr("runtime.mapaccess2", "runtime/map.go"),
			fr("mafic/internal/netsim.(*Router).forward", "internal/netsim/router.go"),
			fr("mafic/internal/sim.(*Scheduler).RunUntil", "internal/sim/scheduler.go"),
		}},
		// A module's snapshot hook belongs to the checkpoint layer.
		{30, []frame{
			fr("mafic/internal/netsim.(*Network).CaptureState", "internal/netsim/checkpoint.go"),
			fr("mafic/internal/checkpoint.Capture", "internal/checkpoint/checkpoint.go"),
		}},
		// Generic instantiations keep their module.
		{40, []frame{
			fr("mafic/internal/pool.(*FreeList[go.shape.struct { mafic/internal/sim.x int }]).Get", "internal/pool/pool.go"),
		}},
		// No repo frame: garbage collection and the scheduler.
		{50, []frame{fr("runtime.gcBgMarkWorker", "runtime/mgc.go")}},
		{60, nil},
		// The benchmark's own code.
		{70, []frame{fr("encoding/json.Unmarshal", "encoding/json/decode.go"), fr("main.(*serveRun).checkJob", "perfbench/serve.go")}},
	}
	byLayer, total := attribute(samples)
	want := map[string]float64{
		"checkpoint": 40e-9,
		"netsim":     20e-9,
		"pool":       40e-9,
		gcLayer:      110e-9,
		benchLayer:   70e-9,
	}
	sum := 0.0
	for l, s := range byLayer {
		if math.Abs(s-want[l]) > 1e-15 {
			t.Errorf("layer %s: got %g s, want %g s", l, s, want[l])
		}
		sum += s
	}
	if len(byLayer) != len(want) {
		t.Errorf("layers %v, want %v", byLayer, want)
	}
	if math.Abs(total-280e-9) > 1e-15 || math.Abs(sum-total) > 1e-15 {
		t.Errorf("total %g, layers sum to %g, want both 2.8e-7", total, sum)
	}
	if got := cumulative(samples, "mafic/internal/checkpoint.Capture"); math.Abs(got-30e-9) > 1e-15 {
		t.Errorf("cumulative Capture = %g, want 3e-8", got)
	}
}

// TestAttributeRealProfile parses a CPU profile of real simulator runs.
func TestAttributeRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("profiler unavailable: %v", err)
	}
	s := experiment.Quick(experiment.DefaultScenario())
	for i := 0; i < 10; i++ {
		if _, err := experiment.Run(s); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Skip("no samples collected")
	}
	byLayer, total := attribute(samples)
	sum := 0.0
	for _, s := range byLayer {
		sum += s
	}
	if total <= 0 || math.Abs(sum-total) > 1e-9*total {
		t.Errorf("layers sum to %g s, profile total %g s", sum, total)
	}
	if byLayer["sim"]+byLayer["netsim"] == 0 {
		t.Errorf("no CPU charged to sim or netsim: %v", byLayer)
	}
}

// resultFrom builds a Result carrying the given modelled outputs.
func resultFrom(m modelled) experiment.Result {
	return experiment.Result{
		Activated:           m.Activated,
		ActivationSeconds:   m.ActivationSeconds,
		DetectedByPushback:  m.DetectedByPushback,
		ATRCount:            m.ATRCount,
		Accuracy:            m.Accuracy,
		FalsePositiveRate:   m.FalsePositiveRate,
		FalseNegativeRate:   m.FalseNegativeRate,
		LegitimateDropRate:  m.LegitimateDropRate,
		TrafficReduction:    m.TrafficReduction,
		FlowsProbed:         m.FlowsProbed,
		LegitFlowsCondemned: m.LegitFlowsCondemned,
		AttackFlowsForgiven: m.AttackFlowsForgiven,
		Counts:              m.Counts,
		DefenseStats:        m.DefenseStats,
	}
}

func TestReferenceCheck(t *testing.T) {
	refs, err := loadReferences("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, ms := range []int{stressDurationMs, serveDurationMs} {
		for k := int64(1); k <= referenceSeeds; k++ {
			if _, ok := refs[durationKey(ms)][strconv.FormatInt(k, 10)]; !ok {
				t.Fatalf("reference lacks %dms seed %d", ms, k)
			}
		}
	}
	r := resultFrom(refs[durationKey(stressDurationMs)]["1"])

	// Engine-internal counters may move without failing the check.
	r.EventsProcessed, r.RouteEntries, r.RouteBytes = 1, 2, 3
	if err := refs.check(stressDurationMs, 1, r); err != nil {
		t.Fatalf("unperturbed result rejected: %v", err)
	}

	perturbed := r
	perturbed.Counts.QueueDrops++
	if err := refs.check(stressDurationMs, 1, perturbed); err == nil {
		t.Error("a result with one counter perturbed passed the check")
	}
	perturbed = r
	perturbed.DefenseStats.ProbesSent--
	if err := refs.check(stressDurationMs, 1, perturbed); err == nil {
		t.Error("a result with a defender counter perturbed passed the check")
	}
	if err := refs.check(stressDurationMs, 2, r); err == nil {
		t.Error("seed 1's result passed as seed 2's")
	}
}

func TestGridPointCheckedAgainstSearchReference(t *testing.T) {
	want, err := loadRobust("..")
	if err != nil {
		t.Fatal(err)
	}
	full := experiment.DefaultSearchSpec()
	op := gridOp{def: full.Defences[1], point: full.Grid()[5]}
	s, err := runGridPoint(full, op, want)
	if err != nil {
		t.Fatalf("grid point rejected: %v", err)
	}
	if !strings.HasPrefix(s.Name, "hardened/") || s.Seed != full.Seed+5 {
		t.Errorf("materialised scenario %q seed %d", s.Name, s.Seed)
	}
	ref := want["hardened"][s.Name]
	ref.ATRCount++
	want["hardened"][s.Name] = ref
	if _, err := runGridPoint(full, op, want); err == nil {
		t.Error("a point whose reference differs by one ATR passed the check")
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	var xs []float64
	for i := 1; i <= 10; i++ {
		xs = append(xs, float64(i))
	}
	if _, _, ok := tail(xs); ok {
		t.Fatal("tail reported from 10 samples, which leave fewer than 10 beyond any of them")
	}
	xs = append(xs, 11)
	v, p, ok := tail(xs)
	if !ok || v != 1 || p != 9 {
		t.Fatalf("11 samples: tail %v at p%d ok=%v, want 1 at p9", v, p, ok)
	}
	xs = xs[:0]
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	v, p, ok = tail(xs)
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if !ok || v != 90 || p != 90 || beyond != tailBeyond {
		t.Fatalf("100 samples: tail %v at p%d with %d beyond, want 90 at p90 with 10", v, p, beyond)
	}
}

func TestPassSeedsRunEachReferenceSeedOnce(t *testing.T) {
	for _, seed := range []int64{-7, 0, 1, 123456789} {
		rng := rand.New(rand.NewSource(seed))
		for pass := 0; pass < 3; pass++ {
			seen := map[int64]bool{}
			for _, k := range passSeeds(rng) {
				if k < 1 || k > referenceSeeds || seen[k] {
					t.Fatalf("seed %d pass %d: scenario seed %d outside the reference set or repeated", seed, pass, k)
				}
				seen[k] = true
			}
			if len(seen) != referenceSeeds {
				t.Fatalf("seed %d pass %d: %d of %d reference seeds", seed, pass, len(seen), referenceSeeds)
			}
		}
	}
}

func TestRunPassesEndsNearestTheWindow(t *testing.T) {
	// Passes of 4 "seconds" on a fake clock and an 11-second window: a
	// third pass ends at 12, nearer 11 than stopping at 8; a fourth would
	// end at 16.
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	var ran int
	err := runPasses(11*time.Second, 1, clock, func(int) error {
		ran++
		now = now.Add(4 * time.Second)
		return nil
	})
	if err != nil || ran != 3 {
		t.Fatalf("ran %d passes (err %v), want 3", ran, err)
	}
	// The minimum holds even when one pass outlasts the window.
	ran = 0
	if err := runPasses(time.Second, 2, clock, func(int) error { ran++; now = now.Add(4 * time.Second); return nil }); err != nil || ran != 2 {
		t.Fatalf("ran %d passes (err %v), want the minimum 2", ran, err)
	}
}
