package matching

import (
	"context"

	"mpcgraph/internal/graph"
	"mpcgraph/internal/machine/meter"
	"mpcgraph/internal/model"
	"mpcgraph/internal/rng"
)

// MaximalOptions configures MaximalMatching.
type MaximalOptions struct {
	// Seed drives the edge sampling.
	Seed uint64
	// MemoryFactor sets the coordinator memory to MemoryFactor·n words
	// (default 16).
	MemoryFactor float64
	// Strict makes capacity violations fail the run.
	Strict bool
	// Model selects the metered backend; outputs are identical across
	// models.
	Model model.Model
	// Ctx, when non-nil, cancels the run between rounds.
	Ctx context.Context
	// Trace, when non-nil, observes every metered round.
	Trace model.TraceFunc
}

// MaximalResult is the output of MaximalMatching.
type MaximalResult struct {
	// M is the computed maximal matching.
	M graph.Matching
	// Rounds, MaxMachineWords, TotalWords and Violations are the audited
	// model costs.
	Rounds          int
	MaxMachineWords int64
	TotalWords      int64
	Violations      int
	// Stages is the audited per-stage breakdown (one "filtering" entry).
	Stages []model.StageCost
}

// MaximalMatching computes an exact maximal matching with the [LMSV11]
// filtering technique the paper invokes for small-matching instances
// (Section 4.4.5), metered on the selected backend: each filtering round
// ships its edge sample to the coordinator. At S = Θ(n) the round count
// is O(log n) — the baseline regime of Section 1.2 — which is why this
// problem rides the registry next to the paper's O(log log n)
// algorithms.
func MaximalMatching(g *graph.Graph, opts MaximalOptions) (*MaximalResult, error) {
	opts.MemoryFactor = meter.ResolveMemoryFactor(opts.MemoryFactor)
	n := g.NumVertices()
	mt, err := meter.New(opts.Model, meter.Config{
		N:            n,
		MemoryFactor: opts.MemoryFactor,
		Strict:       opts.Strict,
		Ctx:          opts.Ctx,
		Trace:        opts.Trace,
	})
	if err != nil {
		return nil, err
	}
	mt.SetActive(n)
	fr := FilteringMaximalMatching(g, int64(opts.MemoryFactor*float64(n)), rng.New(opts.Seed).SplitString("maximal"))
	for _, w := range fr.RoundWords {
		if err := mt.Gather(w); err != nil {
			return nil, err
		}
	}
	mt.SetActive(0)
	c := mt.Costs()
	res := &MaximalResult{
		M:               fr.M,
		Rounds:          c.Rounds,
		MaxMachineWords: c.MaxMachineWords,
		TotalWords:      c.TotalWords,
		Violations:      c.Violations,
	}
	if c.Rounds > 0 {
		res.Stages = append(res.Stages, model.StageCost{Name: "filtering", Rounds: c.Rounds, Words: c.TotalWords})
	}
	return res, nil
}
