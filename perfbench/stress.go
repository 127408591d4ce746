package main

import (
	"fmt"
	"math/rand"
	"time"

	"mafic/internal/experiment"
	"mafic/internal/sim"
)

// stressDurationMs is the simulated length of a stress-50k run: the catalog
// scenario unchanged.
const stressDurationMs = 3000

// stressScenario is the catalog's stress-50k with the given duration and
// seed.
func stressScenario(e experiment.Entry, durationMs int, seed int64) experiment.Scenario {
	s := e.Build()
	s.Seed = seed
	s.Duration = sim.Time(durationMs) * sim.Millisecond
	return s
}

// stress runs the full-size stress-50k scenario back to back through
// experiment.Run, on one goroutine, with no checkpoints. The window is whole
// passes over the recorded scenario seeds, each in an order drawn from the
// workload seed, and every result must match its reference.
func (b *bench) stress() (*report, error) {
	refs, err := loadReferences(b.root)
	if err != nil {
		return nil, err
	}
	e, ok := experiment.LookupScenario("stress-50k")
	if !ok {
		return nil, fmt.Errorf("stress-50k is not in the catalog")
	}
	rng := rand.New(rand.NewSource(b.seed))
	rep := newReport()
	if err := warmUp(1, func(int) error {
		s := stressScenario(e, stressDurationMs, 1)
		r, err := experiment.Run(s)
		if err != nil {
			return err
		}
		return refs.check(stressDurationMs, s.Seed, r)
	}); err != nil {
		return nil, err
	}
	rep.win, err = b.measure(func() error {
		return runPasses(b.window, passesFor(referenceSeeds), time.Now, func(int) error {
			for _, seed := range passSeeds(rng) {
				s := stressScenario(e, stressDurationMs, seed)
				start := time.Now()
				r, err := experiment.Run(s)
				end := time.Now()
				if err == nil {
					err = refs.check(stressDurationMs, s.Seed, r)
					rep.counts.add(r, 1)
				}
				rep.ops.done(end.Sub(start), s.Duration.Seconds(), err)
				if b.tr != nil {
					b.tr.add(fmt.Sprintf("run:stress-50k/seed%d", s.Seed), 0, start, end)
				}
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	var setup []experiment.Scenario
	for seed := int64(1); seed <= referenceSeeds; seed++ {
		setup = append(setup, stressScenario(e, stressDurationMs, seed))
	}
	return rep, b.measureSetup(rep, setup)
}
