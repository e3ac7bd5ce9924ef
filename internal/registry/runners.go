package registry

import (
	"context"

	"mpcgraph/internal/matching"
	"mpcgraph/internal/mis"
	"mpcgraph/internal/model"
)

// This file registers the paper's algorithms. Every runner follows the
// same shape: translate the uniform Options into the algorithm package's
// option struct (threading ctx and trace into the metered simulator),
// run, and lift the package result into the uniform Report. Outputs are
// deterministic in Options.Seed, and for the matching family they are
// bit-identical across models (the model only changes the meter).

func init() {
	Register(MIS, model.MPC, Runner{Run: runMISMPC})
	Register(MIS, model.CongestedClique, Runner{Run: runMISClique})
	Register(MaximalMatching, model.MPC, Runner{Run: maximalRunner(model.MPC)})
	Register(MaximalMatching, model.CongestedClique, Runner{Run: maximalRunner(model.CongestedClique)})
	Register(ApproxMatching, model.MPC, Runner{Run: approxRunner(model.MPC)})
	Register(ApproxMatching, model.CongestedClique, Runner{Run: approxRunner(model.CongestedClique)})
	Register(OnePlusEpsMatching, model.MPC, Runner{Run: onePlusEpsRunner(model.MPC)})
	Register(OnePlusEpsMatching, model.CongestedClique, Runner{Run: onePlusEpsRunner(model.CongestedClique)})
	Register(VertexCover, model.MPC, Runner{Run: coverRunner(model.MPC)})
	Register(VertexCover, model.CongestedClique, Runner{Run: coverRunner(model.CongestedClique)})
	// Corollary 1.4 is stated for the MPC model; no clique runner.
	Register(WeightedMatching, model.MPC, Runner{Weighted: true, Run: runWeightedMPC})
}

func misOptions(ctx context.Context, opts Options) mis.Options {
	return mis.Options{
		Seed:         opts.Seed,
		MemoryFactor: opts.MemoryFactor,
		Strict:       opts.Strict,
		Workers:      opts.Workers,
		Ctx:          ctx,
		Trace:        opts.Trace,
	}
}

func misReport(res *mis.Result) *Report {
	return &Report{
		InMIS:           res.InMIS,
		Rounds:          res.Rounds,
		Phases:          res.Phases,
		MaxMachineWords: res.MaxMachineWords,
		TotalWords:      res.TotalWords,
		Violations:      res.Violations,
		Stages:          res.Stages,
	}
}

func runMISMPC(ctx context.Context, in Input, opts Options) (*Report, error) {
	res, err := mis.RandGreedyMPC(in.G, misOptions(ctx, opts))
	if err != nil {
		return nil, err
	}
	return misReport(res), nil
}

func runMISClique(ctx context.Context, in Input, opts Options) (*Report, error) {
	res, err := mis.RandGreedyCongestedClique(in.G, misOptions(ctx, opts))
	if err != nil {
		return nil, err
	}
	return misReport(res), nil
}

func maximalRunner(m model.Model) func(context.Context, Input, Options) (*Report, error) {
	return func(ctx context.Context, in Input, opts Options) (*Report, error) {
		res, err := matching.MaximalMatching(in.G, matching.MaximalOptions{
			Seed:         opts.Seed,
			MemoryFactor: opts.MemoryFactor,
			Strict:       opts.Strict,
			Model:        m,
			Ctx:          ctx,
			Trace:        opts.Trace,
		})
		if err != nil {
			return nil, err
		}
		return &Report{
			M:               res.M,
			Rounds:          res.Rounds,
			MaxMachineWords: res.MaxMachineWords,
			TotalWords:      res.TotalWords,
			Violations:      res.Violations,
			Stages:          res.Stages,
		}, nil
	}
}

func pipelineOptions(ctx context.Context, m model.Model, opts Options) matching.PipelineOptions {
	return matching.PipelineOptions{
		Seed:         opts.Seed,
		Eps:          opts.Eps,
		MemoryFactor: opts.MemoryFactor,
		Strict:       opts.Strict,
		Workers:      opts.Workers,
		Model:        m,
		Ctx:          ctx,
		Trace:        opts.Trace,
	}
}

func pipelineReport(res *matching.PipelineResult) *Report {
	return &Report{
		M:               res.M,
		Rounds:          res.Rounds(),
		Phases:          res.Phases,
		MaxMachineWords: res.MaxMachineWords,
		TotalWords:      res.TotalWords,
		Violations:      res.Violations,
		Stages:          res.Stages,
	}
}

func approxRunner(m model.Model) func(context.Context, Input, Options) (*Report, error) {
	return func(ctx context.Context, in Input, opts Options) (*Report, error) {
		res, err := matching.ApproxMaxMatching(in.G, pipelineOptions(ctx, m, opts))
		if err != nil {
			return nil, err
		}
		return pipelineReport(res), nil
	}
}

func onePlusEpsRunner(m model.Model) func(context.Context, Input, Options) (*Report, error) {
	return func(ctx context.Context, in Input, opts Options) (*Report, error) {
		base, err := matching.ApproxMaxMatching(in.G, pipelineOptions(ctx, m, opts))
		if err != nil {
			return nil, err
		}
		eps := opts.Eps
		if eps == 0 {
			eps = 0.1
		}
		boost, err := matching.BoostToOnePlusEps(ctx, in.G, base.M, eps)
		if err != nil {
			return nil, err
		}
		rep := pipelineReport(base)
		rep.M = boost.M
		// Each augmentation pass is O(path length) = O(1/ε) distributed
		// rounds; charge one round per pass.
		rep.Rounds += boost.Passes
		rep.Stages = append(rep.Stages, model.StageCost{Name: "boost", Rounds: boost.Passes})
		return rep, nil
	}
}

func coverRunner(m model.Model) func(context.Context, Input, Options) (*Report, error) {
	return func(ctx context.Context, in Input, opts Options) (*Report, error) {
		res, err := matching.ApproxMinVertexCover(in.G, pipelineOptions(ctx, m, opts))
		if err != nil {
			return nil, err
		}
		return &Report{
			InCover:          res.Frac.Cover,
			FractionalWeight: res.Frac.Weight(),
			Rounds:           res.Rounds,
			Phases:           res.Phases,
			MaxMachineWords:  res.MaxMachineWords,
			TotalWords:       res.TotalWords,
			Violations:       res.Violations,
			Stages:           res.Stages,
		}, nil
	}
}

func runWeightedMPC(ctx context.Context, in Input, opts Options) (*Report, error) {
	res, err := matching.ApproxMaxWeightedMatchingMPC(in.WG, matching.WeightedMPCOptions{
		Seed:         opts.Seed,
		Eps:          opts.Eps,
		MemoryFactor: opts.MemoryFactor,
		Strict:       opts.Strict,
		Ctx:          ctx,
		Trace:        opts.Trace,
	})
	if err != nil {
		return nil, err
	}
	return &Report{
		M:               res.M,
		Value:           res.Value,
		Rounds:          res.Rounds,
		Phases:          res.Improvements,
		MaxMachineWords: res.MaxMachineWords,
		TotalWords:      res.TotalWords,
		Violations:      res.Violations,
		Stages:          res.Stages,
	}, nil
}
