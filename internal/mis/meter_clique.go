package mis

import (
	"fmt"

	"mpcgraph/internal/congest"
	"mpcgraph/internal/graph"
	"mpcgraph/internal/machine/meter"
	"mpcgraph/internal/par"
)

// cliqueMISMeter charges the Section 3.2 CONGESTED-CLIQUE deployment:
// the lowest-id player draws the permutation and scatters positions,
// per phase the in-range players Lenzen-route their in-range edges to
// the leader (chunked at the scheme's n-word receive limit), verdicts
// scatter and new MIS members notify their neighbors, the sparsified
// dynamics cost one round per iteration (desire level and mark fit one
// word per neighbor), and the shattered residue Lenzen-routes to the
// leader followed by a final verdict scatter.
type cliqueMISMeter struct {
	q       *congest.Clique
	g       *graph.Graph
	workers int
}

func newCliqueMISMeter(g *graph.Graph, opts Options) (*cliqueMISMeter, error) {
	q, err := congest.New(congest.Config{
		Players:         g.NumVertices(),
		PairBudgetWords: 1,
		Strict:          opts.Strict,
		Ctx:             opts.Ctx,
		Trace:           opts.Trace,
	})
	if err != nil {
		return nil, err
	}
	return &cliqueMISMeter{q: q, g: g, workers: opts.Workers}, nil
}

// Setup charges the permutation distribution: the leader scatters
// positions (one round), then every player broadcasts its position so
// everyone knows the order (one round) — the setup of §3.2.
func (cm *cliqueMISMeter) Setup() error {
	n := cm.q.Players()
	if err := cm.q.ChargeRound(1, int64(n-1), 1, int64(n-1)); err != nil {
		return fmt.Errorf("scatter permutation: %w", err)
	}
	if err := cm.q.ChargeRound(1, int64(n-1), int64(n-1), int64(n)*int64(n-1)); err != nil {
		return fmt.Errorf("broadcast positions: %w", err)
	}
	return nil
}

// TinyCapacity is 0: the clique leader is a player with the same O(n)
// Lenzen budget every phase already uses, so there is no gather-all
// shortcut distinct from the ordinary final gather.
func (cm *cliqueMISMeter) TinyCapacity() int64 { return 0 }

// ResidualLimit is one Lenzen invocation's receive budget.
func (cm *cliqueMISMeter) ResidualLimit() int64 { return int64(cm.q.Players()) }

// lenzenGatherChunks routes total words to the leader in chunks of at
// most n words, maxOut being the largest per-player contribution.
func (cm *cliqueMISMeter) lenzenGatherChunks(total, maxOut int64) error {
	n := int64(cm.q.Players())
	for remaining := total; ; {
		chunk := remaining
		if chunk > n {
			chunk = n
		}
		if err := cm.q.ChargeLenzen(min(maxOut, chunk), chunk, chunk); err != nil {
			return err
		}
		remaining -= chunk
		if remaining <= 0 {
			return nil
		}
	}
}

// gather routes the keep-induced subgraph to the leader: every kept
// vertex ships its own id plus its kept incident edges (2 words each,
// counted once for the smaller endpoint), in Lenzen chunks of at most n
// words. The scan is read-only, so it fans out with integer accumulators
// merged in shard order. It returns the kept vertices and the edge
// words.
func (cm *cliqueMISMeter) gather(keep []bool) (vertices int, edgeWords int64, err error) {
	g := cm.g
	type volAcc struct {
		total, maxOut int64
		vertices      int
	}
	acc := par.Reduce(cm.workers, g.NumVertices(), func(lo, hi, _ int) volAcc {
		var a volAcc
		for u := int32(lo); u < int32(hi); u++ {
			if !keep[u] {
				continue
			}
			a.vertices++
			var out int64 = 1 // its own id
			for _, v := range g.Neighbors(u) {
				if u < v && keep[v] {
					out += 2
				}
			}
			a.total += out
			if out > a.maxOut {
				a.maxOut = out
			}
		}
		return a
	}, func(a, b volAcc) volAcc {
		a.total += b.total
		a.vertices += b.vertices
		if b.maxOut > a.maxOut {
			a.maxOut = b.maxOut
		}
		return a
	})
	return acc.vertices, acc.total - int64(acc.vertices), cm.lenzenGatherChunks(acc.total, acc.maxOut)
}

// PhaseGather routes the in-range induced subgraph to the leader.
func (cm *cliqueMISMeter) PhaseGather(r int, inRange []bool) (int, int64, error) {
	vertices, edgeWords, err := cm.gather(inRange)
	if err != nil {
		err = fmt.Errorf("phase Lenzen gather at rank %d: %w", r, err)
	}
	return vertices, edgeWords, err
}

// PhaseCommit: the leader scatters verdicts (one word per player), then
// new MIS members notify their neighbors (one word per incident pair).
func (cm *cliqueMISMeter) PhaseCommit(r int, newMIS []int32) error {
	n := cm.q.Players()
	if err := cm.q.ChargeRound(1, int64(n-1), 1, int64(n-1)); err != nil {
		return fmt.Errorf("phase scatter at rank %d: %w", r, err)
	}
	var notifyMax, notifyTotal int64
	for _, v := range newMIS {
		deg := int64(cm.g.Degree(v))
		notifyTotal += deg
		if deg > notifyMax {
			notifyMax = deg
		}
	}
	if err := cm.q.ChargeRound(1, notifyMax, notifyMax, notifyTotal); err != nil {
		return fmt.Errorf("phase notify at rank %d: %w", r, err)
	}
	return nil
}

// DynamicsRound charges one dynamics iteration: one word per live edge
// direction (desire level and mark packed).
func (cm *cliqueMISMeter) DynamicsRound(alive []bool) error {
	maxDeg, edges := aliveDegreeProfile(cm.g, alive, cm.workers)
	if err := cm.q.ChargeRound(1, int64(maxDeg), int64(maxDeg), 2*edges); err != nil {
		return fmt.Errorf("dynamics round: %w", err)
	}
	return nil
}

// FinalGather routes the alive-induced residue to the leader in n-word
// chunks, then the leader scatters the final verdicts.
func (cm *cliqueMISMeter) FinalGather(alive []bool) error {
	if _, _, err := cm.gather(alive); err != nil {
		return fmt.Errorf("residual Lenzen gather: %w", err)
	}
	n := cm.q.Players()
	if err := cm.q.ChargeRound(1, int64(n-1), 1, int64(n-1)); err != nil {
		return fmt.Errorf("final scatter: %w", err)
	}
	return nil
}

func (cm *cliqueMISMeter) SetActive(vertices int) { cm.q.SetActive(vertices) }

func (cm *cliqueMISMeter) Costs() meter.Costs {
	met := cm.q.Metrics()
	return meter.FoldCosts(met.Rounds, met.MaxPlayerIn, met.MaxPlayerOut, met.TotalWords, met.Violations)
}

// aliveDegreeProfile returns the maximum alive-induced degree and the
// number of alive-induced edges.
func aliveDegreeProfile(g *graph.Graph, alive []bool, workers int) (maxDeg int, edges int64) {
	type profAcc struct {
		maxDeg int
		edges  int64
	}
	acc := par.Reduce(workers, g.NumVertices(), func(lo, hi, _ int) profAcc {
		var a profAcc
		for u := int32(lo); u < int32(hi); u++ {
			if !alive[u] {
				continue
			}
			deg := 0
			for _, v := range g.Neighbors(u) {
				if alive[v] {
					deg++
					if u < v {
						a.edges++
					}
				}
			}
			if deg > a.maxDeg {
				a.maxDeg = deg
			}
		}
		return a
	}, func(a, b profAcc) profAcc {
		if b.maxDeg > a.maxDeg {
			a.maxDeg = b.maxDeg
		}
		a.edges += b.edges
		return a
	})
	return acc.maxDeg, acc.edges
}
