package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"

	"mafic/internal/core"
	"mafic/internal/experiment"
	"mafic/internal/metrics"
)

// modelled is the part of a Result the MAFIC model defines: the paper's
// metrics (α, β, θp/θn, L_r), the raw counters, the defenders' statistics,
// flow outcomes and activation. Simulator-internal counters (events
// processed, resident route state) are left out on purpose: a change that
// only makes the engine faster may move them, so they are reported as layer
// counts and never checked.
type modelled struct {
	Activated          bool    `json:"activated"`
	ActivationSeconds  float64 `json:"activationSeconds"`
	DetectedByPushback bool    `json:"detectedByPushback"`
	ATRCount           int     `json:"atrCount"`

	Accuracy           float64 `json:"accuracy"`
	FalsePositiveRate  float64 `json:"falsePositiveRate"`
	FalseNegativeRate  float64 `json:"falseNegativeRate"`
	LegitimateDropRate float64 `json:"legitimateDropRate"`
	TrafficReduction   float64 `json:"trafficReduction"`

	FlowsProbed         int `json:"flowsProbed"`
	LegitFlowsCondemned int `json:"legitFlowsCondemned"`
	AttackFlowsForgiven int `json:"attackFlowsForgiven"`

	Counts       metrics.Counts `json:"counts"`
	DefenseStats core.Stats     `json:"defenseStats"`
}

func modelOf(r experiment.Result) modelled {
	return modelled{
		Activated:           r.Activated,
		ActivationSeconds:   r.ActivationSeconds,
		DetectedByPushback:  r.DetectedByPushback,
		ATRCount:            r.ATRCount,
		Accuracy:            r.Accuracy,
		FalsePositiveRate:   r.FalsePositiveRate,
		FalseNegativeRate:   r.FalseNegativeRate,
		LegitimateDropRate:  r.LegitimateDropRate,
		TrafficReduction:    r.TrafficReduction,
		FlowsProbed:         r.FlowsProbed,
		LegitFlowsCondemned: r.LegitFlowsCondemned,
		AttackFlowsForgiven: r.AttackFlowsForgiven,
		Counts:              r.Counts,
		DefenseStats:        r.DefenseStats,
	}
}

// referenceSeeds is how many scenario seeds the stress-50k reference covers:
// seeds 1 to referenceSeeds.
const referenceSeeds = 8

// passSeeds is one pass over the recorded scenario seeds, in an order drawn
// from rng. Every pass runs each recorded seed once, so every run times the
// same scenarios whatever its workload seed; the workload seed only orders
// them.
func passSeeds(rng *rand.Rand) []int64 {
	seeds := make([]int64, referenceSeeds)
	for i, k := range rng.Perm(referenceSeeds) {
		seeds[i] = int64(1 + k)
	}
	return seeds
}

// referencePath is the recorded modelled output of stress-50k, per
// simulated duration in milliseconds and scenario seed.
const referencePath = "perfbench/reference/stress-50k.json"

// references maps a duration key ("3000ms") and a scenario seed to the
// modelled outputs the current program must reproduce.
type references map[string]map[string]modelled

func durationKey(ms int) string { return strconv.Itoa(ms) + "ms" }

func loadReferences(root string) (references, error) {
	data, err := os.ReadFile(filepath.Join(root, referencePath))
	if err != nil {
		return nil, fmt.Errorf("read reference: %w", err)
	}
	var refs references
	if err := json.Unmarshal(data, &refs); err != nil {
		return nil, fmt.Errorf("parse %s: %w", referencePath, err)
	}
	return refs, nil
}

// check compares a result's modelled outputs with the reference for its
// duration and seed.
func (refs references) check(durationMs int, seed int64, r experiment.Result) error {
	want, ok := refs[durationKey(durationMs)][strconv.FormatInt(seed, 10)]
	if !ok {
		return fmt.Errorf("no reference for stress-50k at %dms, seed %d", durationMs, seed)
	}
	return sameModel(modelOf(r), want)
}

func sameModel(got, want modelled) error {
	if got == want {
		return nil
	}
	g, _ := json.Marshal(got)
	w, _ := json.Marshal(want)
	return fmt.Errorf("modelled output differs from the reference:\n got %s\nwant %s", g, w)
}

// recordReferences runs stress-50k once per reference seed at each duration
// and writes the modelled outputs to referencePath. Run it only after a
// change that is meant to alter the model's results.
func recordReferences(root string, durationsMs []int) error {
	e, ok := experiment.LookupScenario("stress-50k")
	if !ok {
		return fmt.Errorf("stress-50k is not in the catalog")
	}
	refs := references{}
	for _, ms := range durationsMs {
		byS := map[string]modelled{}
		for k := int64(1); k <= referenceSeeds; k++ {
			s := stressScenario(e, ms, k)
			r, err := experiment.Run(s)
			if err != nil {
				return fmt.Errorf("stress-50k seed %d: %w", k, err)
			}
			byS[strconv.FormatInt(k, 10)] = modelOf(r)
		}
		refs[durationKey(ms)] = byS
	}
	data, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, referencePath), append(data, '\n'), 0o644)
}

// robustPath is the tracked full-grid search result the search-grid
// workload checks every timed point against.
const robustPath = "ROBUST_baseline.json"

// loadRobust reads the tracked search report, keyed by defence then point
// name.
func loadRobust(root string) (map[string]map[string]experiment.PointOutcome, error) {
	data, err := os.ReadFile(filepath.Join(root, robustPath))
	if err != nil {
		return nil, fmt.Errorf("read search reference: %w", err)
	}
	var rep experiment.SearchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("parse %s: %w", robustPath, err)
	}
	out := map[string]map[string]experiment.PointOutcome{}
	for _, d := range rep.Defences {
		byName := map[string]experiment.PointOutcome{}
		for _, p := range d.Points {
			byName[p.Name] = p
		}
		out[d.Defence] = byName
	}
	return out, nil
}
