package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"mafic/internal/experiment"
)

// gridOp is one (defence, attack point) run of the robustness grid.
type gridOp struct {
	def   experiment.DefenceVariant
	point experiment.SearchPoint
}

// searchGrid runs the full maficsearch grid (experiment.DefaultSearchSpec:
// 72 attack points × the paper and hardened defences) one point at a time
// through experiment.Search, on one client goroutine per CPU. The window is
// whole passes over the grid, each in an order drawn from the workload
// seed. Each point keeps its grid seed, so its outcome must equal its entry
// in ROBUST_baseline.json.
func (b *bench) searchGrid() (*report, error) {
	want, err := loadRobust(b.root)
	if err != nil {
		return nil, err
	}
	full := experiment.DefaultSearchSpec()
	var ops []gridOp
	for _, d := range full.Defences {
		for _, p := range full.Grid() {
			ops = append(ops, gridOp{d, p})
		}
	}
	rng := rand.New(rand.NewSource(b.seed))

	rep := newReport()
	var (
		mu  sync.Mutex
		ran = make([]experiment.Scenario, len(ops)) // scenario of each op, once it ran
		// times counts completed runs per op, for the traced re-run.
		times = make([]int, len(ops))
	)
	if err := warmUp(b.workers, func(i int) error {
		_, err := runGridPoint(full, ops[i], want)
		return err
	}); err != nil {
		return nil, err
	}
	rep.win, err = b.measure(func() error {
		return runPasses(b.window, passesFor(len(ops)), time.Now, func(int) error {
			order := rng.Perm(len(ops))
			var next atomic.Int64
			parallel(b.workers, func() {
				for {
					k := int(next.Add(1) - 1)
					if k >= len(order) {
						return
					}
					i := order[k]
					start := time.Now()
					s, err := runGridPoint(full, ops[i], want)
					end := time.Now()
					rep.ops.done(end.Sub(start), s.Duration.Seconds(), err)
					if b.tr != nil {
						b.tr.add("search:"+s.Name, 0, start, end)
					}
					if err == nil {
						mu.Lock()
						ran[i] = s
						times[i]++
						mu.Unlock()
					}
				}
			})
			return nil
		})
	})
	if err != nil {
		return nil, err
	}

	// Every point ran in the first pass; set-up builds each of them.
	var setup []experiment.Scenario
	for i := range ops {
		if times[i] > 0 {
			setup = append(setup, ran[i])
		}
	}
	if err := b.measureSetup(rep, setup); err != nil {
		return nil, err
	}
	if b.traced {
		// Search reports outcomes, not the simulator's counters: re-run
		// each distinct point once, outside the profiled window, and weight
		// its counters by how often the window ran it.
		var again []experiment.Scenario
		var weight []int
		var outcome []experiment.PointOutcome
		for i, n := range times {
			if n > 0 {
				again = append(again, ran[i])
				weight = append(weight, n)
				outcome = append(outcome, want[ops[i].def.Name][ran[i].Name])
			}
		}
		results, err := experiment.RunMany(again, b.workers)
		if err != nil {
			return nil, fmt.Errorf("re-run for counts: %w", err)
		}
		for i, r := range results {
			if r.Accuracy != outcome[i].Accuracy || r.LegitimateDropRate != outcome[i].LegitimateDropRate {
				rep.problems = append(rep.problems, fmt.Sprintf("%s: re-run for counts disagrees with its search outcome", r.Name))
			}
			rep.counts.add(r, weight[i])
		}
	}
	return rep, nil
}

// runGridPoint searches the one-point, one-defence grid of op and checks
// the outcome against the reference. The spec seed is offset by the point's
// index so the point runs with the seed it has in the full grid. It returns
// the scenario the search materialised.
func runGridPoint(full experiment.SearchSpec, op gridOp, want map[string]map[string]experiment.PointOutcome) (experiment.Scenario, error) {
	spec := full
	spec.Seed = full.Seed + int64(op.point.Index)
	spec.Shapes = []experiment.AttackShape{op.point.Shape}
	spec.RateMixes = []experiment.RateMix{op.point.Mix}
	spec.VictimSpreads = []float64{op.point.Spread}
	spec.FaultShapes = []experiment.FaultShape{op.point.Fault}
	var ran experiment.Scenario
	apply := op.def.Apply
	spec.Defences = []experiment.DefenceVariant{{
		Name: op.def.Name,
		Apply: func(s experiment.Scenario) experiment.Scenario {
			if apply != nil {
				s = apply(s)
			}
			ran = s
			return s
		},
	}}
	rep, err := experiment.Search(spec, experiment.SearchOptions{Workers: 1})
	if err != nil {
		return ran, err
	}
	got := rep.Defences[0].Points[0]
	ref, ok := want[op.def.Name][got.Name]
	if !ok {
		return ran, fmt.Errorf("%s: not in %s", got.Name, robustPath)
	}
	if got != ref {
		return ran, fmt.Errorf("%s: outcome %+v, reference %+v", got.Name, got, ref)
	}
	return ran, nil
}
