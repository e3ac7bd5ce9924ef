package mis

import (
	"fmt"

	"mpcgraph/internal/graph"
	"mpcgraph/internal/machine/meter"
	"mpcgraph/internal/mpc"
	"mpcgraph/internal/par"
	"mpcgraph/internal/rng"
)

// mpcMISMeter charges the Section 3.1 MPC deployment: edges live on
// hash-home machines, each phase gathers the newly exposed induced
// subgraph to the leader and broadcasts the additions, the sparsified
// dynamics exchange one word per live edge direction between the
// endpoint home machines, and the shattered residue ships to the leader
// once. The per-phase inbox audit is the memory claim of Theorem 1.1.
type mpcMISMeter struct {
	cluster  *mpc.Cluster
	g        *graph.Graph
	seed     uint64
	workers  int
	machines int
	capacity int64
}

func newMPCMISMeter(g *graph.Graph, opts Options) (*mpcMISMeter, error) {
	n := g.NumVertices()
	capacity := int64(opts.MemoryFactor * float64(n))
	machines := opts.Machines
	if machines == 0 {
		machines = int(2*int64(g.NumEdges())/max(capacity, 1)) + 2
	}
	cluster, err := mpc.NewCluster(mpc.Config{
		Machines:      machines,
		CapacityWords: capacity,
		Strict:        opts.Strict,
		Ctx:           opts.Ctx,
		Trace:         opts.Trace,
	})
	if err != nil {
		return nil, err
	}
	return &mpcMISMeter{
		cluster:  cluster,
		g:        g,
		seed:     opts.Seed,
		workers:  opts.Workers,
		machines: machines,
		capacity: capacity,
	}, nil
}

// homeOf is the initial data layout of the model: edge {u,v} is stored
// on the machine its hash selects.
func (mm *mpcMISMeter) homeOf(u, v int32) int {
	return int(rng.Hash(mm.seed, 0xed6e, uint64(uint32(u)), uint64(uint32(v))) % uint64(mm.machines))
}

// vertexHome is the owner machine of a vertex record.
func vertexHome(u int32, machines int) int {
	return int(rng.Hash(0xbeef, uint64(uint32(u))) % uint64(machines))
}

// Setup charges nothing: the MPC deployment draws the permutation on
// the leader and ranks ride the phase broadcasts.
func (mm *mpcMISMeter) Setup() error { return nil }

// TinyCapacity enables the gather-all fast path at the leader memory S.
func (mm *mpcMISMeter) TinyCapacity() int64 { return mm.capacity }

// ResidualLimit hands over to the final gather when the residue fits
// comfortably within the leader memory S.
func (mm *mpcMISMeter) ResidualLimit() int64 { return mm.capacity }

// gather charges shipping the keep-induced subgraph to the leader in one
// round: 1 word per kept vertex from its owner, 2 words per stored edge
// with both endpoints kept from the edge's hash home, all of it into
// machine 0. The scan is read-only (homeOf is a stateless hash), so it
// fans out with per-worker tallies merged in shard order — integer sums,
// bit-identical at every worker count. It returns the kept vertices and
// the edge words.
func (mm *mpcMISMeter) gather(keep []bool) (vertices int, edgeWords int64, err error) {
	g, machines := mm.g, mm.machines
	type gatherAcc struct {
		words    []int64
		vertices int
	}
	acc := par.Reduce(mm.workers, g.NumVertices(), func(lo, hi, _ int) gatherAcc {
		a := gatherAcc{words: make([]int64, machines)}
		for u := int32(lo); u < int32(hi); u++ {
			if !keep[u] {
				continue
			}
			a.vertices++
			a.words[vertexHome(u, machines)]++
			for _, v := range g.Neighbors(u) {
				if u < v && keep[v] {
					a.words[mm.homeOf(u, v)] += 2
				}
			}
		}
		return a
	}, func(a, b gatherAcc) gatherAcc {
		for i, w := range b.words {
			a.words[i] += w
		}
		a.vertices += b.vertices
		return a
	})
	out, in := mm.cluster.Loads()
	copy(out, acc.words)
	for _, w := range out {
		in[0] += w
	}
	return acc.vertices, in[0] - int64(acc.vertices), mm.cluster.ChargeLoads(out, in)
}

// PhaseGather ships the in-range induced subgraph to the leader.
func (mm *mpcMISMeter) PhaseGather(r int, inRange []bool) (int, int64, error) {
	vertices, edgeWords, err := mm.gather(inRange)
	if err != nil {
		err = fmt.Errorf("phase gather at rank %d: %w", r, err)
	}
	return vertices, edgeWords, err
}

// PhaseCommit broadcasts the additions to every machine.
func (mm *mpcMISMeter) PhaseCommit(r int, newMIS []int32) error {
	if err := mm.cluster.ChargeBroadcast(int64(len(newMIS))); err != nil {
		return fmt.Errorf("phase broadcast at rank %d: %w", r, err)
	}
	return nil
}

// DynamicsRound meters one iteration of the local dynamics: every live
// edge carries one word each way (desire level and mark bit packed)
// between the machines of its endpoints, charged from the per-machine
// loads. Vertices live on machine v mod machines.
func (mm *mpcMISMeter) DynamicsRound(alive []bool) error {
	g, machines := mm.g, mm.machines
	// loads[i] is what machine i sends, loads[machines+j] what j receives.
	loads := par.Reduce(mm.workers, g.NumVertices(), func(lo, hi, _ int) []int64 {
		l := make([]int64, 2*machines)
		for u := int32(lo); u < int32(hi); u++ {
			if !alive[u] {
				continue
			}
			mu := int(u) % machines
			for _, v := range g.Neighbors(u) {
				if !alive[v] {
					continue
				}
				if mv := int(v) % machines; mu != mv {
					l[mu]++
					l[machines+mv]++
				}
			}
		}
		return l
	}, func(a, b []int64) []int64 {
		for i, w := range b {
			a[i] += w
		}
		return a
	})
	if loads == nil {
		loads = make([]int64, 2*machines)
	}
	return mm.cluster.ChargeLoads(loads[:machines], loads[machines:])
}

// FinalGather charges the residue shipment to the leader.
func (mm *mpcMISMeter) FinalGather(alive []bool) error {
	if _, _, err := mm.gather(alive); err != nil {
		return fmt.Errorf("residual gather: %w", err)
	}
	return nil
}

func (mm *mpcMISMeter) SetActive(vertices int) { mm.cluster.SetActive(vertices) }

func (mm *mpcMISMeter) Costs() meter.Costs {
	met := mm.cluster.Metrics()
	return meter.FoldCosts(met.Rounds, met.MaxInWords, met.MaxOutWords, met.TotalWords, met.Violations)
}
