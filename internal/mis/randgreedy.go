package mis

import (
	"fmt"

	"mpcgraph/internal/graph"
	"mpcgraph/internal/machine/meter"
	"mpcgraph/internal/model"
	"mpcgraph/internal/par"
	"mpcgraph/internal/rng"
)

// misMeter charges the model costs of the unified RandGreedy trajectory.
// The trajectory — which vertices are gathered, which join the MIS, how
// many dynamics iterations run — never reads anything back from the
// meter except capacity thresholds that are constants of the deployment,
// so the computed independent set is bit-identical across models; only
// the audited costs differ. One implementation charges the Section 3.1
// MPC deployment, the other the Section 3.2 CONGESTED-CLIQUE deployment,
// both on the internal/machine core.
type misMeter interface {
	// Setup charges the permutation distribution (the clique's rank
	// scatter + position broadcast; free in the MPC deployment, where the
	// permutation rides the existing hash-partitioned layout).
	Setup() error
	// TinyCapacity returns the leader capacity enabling the gather-all
	// fast path when the whole input fits one machine, or 0 when the
	// deployment has no such path (the clique, whose leader is a player
	// with the same O(n) budget every phase already uses).
	TinyCapacity() int64
	// PhaseGather charges shipping the subgraph induced by the vertices
	// inRange marks (the alive ones of the phase's rank range) to the
	// leader and reports the gathered vertex count and edge words for
	// PhaseInfo. r identifies the phase in errors.
	PhaseGather(r int, inRange []bool) (vertices int, edgeWords int64, err error)
	// PhaseCommit charges distributing the phase's MIS additions (MPC:
	// one broadcast; clique: verdict scatter + neighbor notification).
	PhaseCommit(r int, newMIS []int32) error
	// ResidualLimit returns the word threshold at which the sparsified
	// stage hands the residue to the final gather.
	ResidualLimit() int64
	// DynamicsRound charges one sparsified-dynamics iteration on the
	// alive-induced residue.
	DynamicsRound(alive []bool) error
	// FinalGather charges shipping the alive-induced residue to the
	// leader (plus the final verdict scatter in the clique).
	FinalGather(alive []bool) error
	// SetActive reports the current undecided-vertex count for tracing.
	SetActive(vertices int)
	// Costs returns the audited totals so far.
	Costs() meter.Costs
}

// newMISMeter builds the deployment for the selected model.
func newMISMeter(m model.Model, g *graph.Graph, opts Options) (misMeter, error) {
	if m == model.CongestedClique {
		return newCliqueMISMeter(g, opts)
	}
	return newMPCMISMeter(g, opts)
}

// randGreedy is the model-agnostic Section 3 trajectory: rank-prefix
// phases of the simulated sequential greedy, then the sparsified [Gha17]
// dynamics on the poly-log-degree residue, then one final gather. Every
// communication step is charged through mt. Through the prefix phases
// the computed set is bit-identical to SequentialRandGreedy restricted
// to those ranks under every model; the residue is decided by the
// dynamics, whose handover threshold (ResidualLimit, TinyCapacity) is a
// deployment parameter — leader memory S for MPC, the Lenzen budget n
// for the clique — exactly as in the pre-substrate per-model code.
func randGreedy(g *graph.Graph, opts Options, m model.Model) (*Result, error) {
	opts = opts.withDefaults()
	n := g.NumVertices()
	res := &Result{InMIS: make([]bool, n)}
	if n == 0 {
		return res, nil
	}
	mt, err := newMISMeter(m, g, opts)
	if err != nil {
		return nil, err
	}
	mt.SetActive(n)

	src := rng.New(opts.Seed)
	perm := src.SplitString("mis-perm").Perm(n)

	beforeSetup := mt.Costs()
	if err := mt.Setup(); err != nil {
		return nil, err
	}
	if after := mt.Costs(); after.Rounds > beforeSetup.Rounds {
		res.Stages = append(res.Stages, stageCost("setup", beforeSetup.Rounds, after.Rounds, beforeSetup.TotalWords, after.TotalWords))
	}

	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}

	// Tiny instance: one gather finishes the job, as any MPC deployment
	// would do when the input fits one machine.
	if capacity := mt.TinyCapacity(); capacity > 0 && int64(2*g.NumEdges()+n) <= capacity {
		if err := mt.FinalGather(alive); err != nil {
			return nil, err
		}
		d := newDynamics(g, alive, res.InMIS, opts.Seed, opts.Workers)
		d.finishGreedy(perm)
		finalizeMetrics(res, mt.Costs())
		res.Stages = append(res.Stages, model.StageCost{Name: "gather-all", Rounds: res.Rounds, Words: res.TotalWords})
		return res, nil
	}

	ranks := prefixRanks(n, g.MaxDegree(), opts.PolylogDegree(n), opts.Alpha)
	inRange := make([]bool, n)
	prev := 0
	for _, r := range ranks {
		before := mt.Costs()
		info, err := runPrefixPhase(g, perm, alive, res.InMIS, inRange, prev, r, mt, opts.Workers)
		if err != nil {
			return nil, err
		}
		res.Phases++
		res.PhaseInfos = append(res.PhaseInfos, info)
		after := mt.Costs()
		res.Stages = append(res.Stages, stageCost(fmt.Sprintf("prefix@%d", r), before.Rounds, after.Rounds, before.TotalWords, after.TotalWords))
		mt.SetActive(graph.CountMarked(alive))
		prev = r
	}

	// Sparsified stage on the poly-log-degree residue: Ghaffari dynamics,
	// one metered round per iteration, until the residue fits comfortably
	// on the leader.
	d := newDynamics(g, alive, res.InMIS, opts.Seed, opts.Workers)
	maxIter := defaultDynamicsCap(g.MaxDegree(), opts.MaxDynamicsIterations)
	residualLimit := mt.ResidualLimit()
	beforeDyn := mt.Costs()
	for iter := 0; d.undecided() > 0 && d.residualEdgeWords() > residualLimit/2 && iter < maxIter; iter++ {
		mt.SetActive(d.undecided())
		if err := mt.DynamicsRound(d.alive); err != nil {
			return nil, err
		}
		d.step(iter)
		res.SparsifiedIterations++
	}
	if res.SparsifiedIterations > 0 {
		afterDyn := mt.Costs()
		res.Stages = append(res.Stages, stageCost("sparsified", beforeDyn.Rounds, afterDyn.Rounds, beforeDyn.TotalWords, afterDyn.TotalWords))
	}
	// Final gather of the shattered residue, then finish on the leader.
	if d.undecided() > 0 {
		mt.SetActive(d.undecided())
		beforeGather := mt.Costs()
		if err := mt.FinalGather(d.alive); err != nil {
			return nil, err
		}
		d.finishGreedy(perm)
		afterGather := mt.Costs()
		res.Stages = append(res.Stages, stageCost("final-gather", beforeGather.Rounds, afterGather.Rounds, beforeGather.TotalWords, afterGather.TotalWords))
	}
	mt.SetActive(0)
	finalizeMetrics(res, mt.Costs())
	return res, nil
}

// runPrefixPhase gathers the induced subgraph on alive vertices with rank
// in [prev, r), extends the greedy MIS on the leader, and distributes the
// additions — the body of one Section 3 phase, model differences confined
// to the meter. inRange is an all-false n-vertex mask the phase marks the
// gathered vertices in, and leaves all false again.
func runPrefixPhase(
	g *graph.Graph,
	perm []int32,
	alive, inMIS, inRange []bool,
	prev, r int,
	mt misMeter,
	workers int,
) (PhaseInfo, error) {
	info := PhaseInfo{Rank: r}
	phase := perm[prev:r]
	for _, v := range phase {
		inRange[v] = alive[v]
	}
	verts, edgeWords, err := mt.PhaseGather(r, inRange)
	for _, v := range phase {
		inRange[v] = false
	}
	if err != nil {
		return info, err
	}
	info.GatheredVertices = verts
	info.GatheredEdgeWords = edgeWords

	// Leader extends the greedy MIS over the gathered range in rank
	// order. Earlier ranks are fully settled (in MIS or dominated), so
	// only in-range neighbors can block.
	var newMIS []int32
	for _, v := range phase {
		if !alive[v] {
			continue
		}
		blocked := false
		for _, u := range g.Neighbors(v) {
			if inMIS[u] {
				blocked = true
				break
			}
		}
		if blocked {
			continue
		}
		inMIS[v] = true
		newMIS = append(newMIS, v)
	}
	info.NewMISVertices = len(newMIS)

	// Distribute the additions; every machine then kills dominated
	// vertices locally.
	if err := mt.PhaseCommit(r, newMIS); err != nil {
		return info, err
	}
	for _, v := range newMIS {
		alive[v] = false
		for _, u := range g.Neighbors(v) {
			alive[u] = false
		}
	}
	// Instrumentation: residual maximum degree (Lemma 3.1 quantity).
	info.ResidualMaxDegree = residualMaxDegree(g, alive, workers)
	return info, nil
}

// residualMaxDegree returns the maximum alive-induced degree.
func residualMaxDegree(g *graph.Graph, alive []bool, workers int) int {
	return par.Reduce(workers, g.NumVertices(), func(lo, hi, _ int) int {
		max := 0
		for v := int32(lo); v < int32(hi); v++ {
			if !alive[v] {
				continue
			}
			deg := 0
			for _, u := range g.Neighbors(v) {
				if alive[u] {
					deg++
				}
			}
			if deg > max {
				max = deg
			}
		}
		return max
	}, func(a, b int) int {
		if a > b {
			return a
		}
		return b
	})
}

// finalizeMetrics copies the audited totals into the result.
func finalizeMetrics(res *Result, c meter.Costs) {
	res.Rounds = c.Rounds
	res.MaxMachineWords = c.MaxMachineWords
	res.TotalWords = c.TotalWords
	res.Violations = c.Violations
}
