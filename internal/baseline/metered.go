package baseline

import (
	"fmt"

	"mpcgraph/internal/graph"
	"mpcgraph/internal/mpc"
	"mpcgraph/internal/rng"
)

// MeteredResult augments a baseline run with audited MPC model costs, so
// experiment E13 compares the paper's algorithms and the classical
// baselines under the same accounting.
type MeteredResult struct {
	// InMIS is set by LubyMISOnCluster; M by IsraeliItaiOnCluster.
	InMIS []bool
	M     graph.Matching
	// Iterations is the algorithm's own loop count.
	Iterations int
	// Rounds, MaxMachineWords and TotalWords come from the cluster.
	Rounds          int
	MaxMachineWords int64
	TotalWords      int64
	// Violations counts capacity violations (non-strict clusters).
	Violations int
}

// chargeEdgeRound charges one round in which every live edge carries one
// word each way between the home machines of its endpoints (vertices live
// on machine v mod m); words between endpoints on one machine stay local.
// This is the per-iteration traffic of both Luby and Israeli–Itai:
// marks/proposals ride one word per incident live edge.
func chargeEdgeRound(cluster *mpc.Cluster, g *graph.Graph, live []bool) error {
	m := cluster.Machines()
	out, in := cluster.Loads()
	for u := int32(0); u < int32(g.NumVertices()); u++ {
		if !live[u] {
			continue
		}
		mu := int(u) % m
		for _, v := range g.Neighbors(u) {
			if !live[v] {
				continue
			}
			if mv := int(v) % m; mu != mv {
				out[mu]++
				in[mv]++
			}
		}
	}
	return cluster.ChargeLoads(out, in)
}

// LubyMISOnCluster runs Luby's algorithm with every iteration charged as
// two MPC rounds (mark exchange, then removal notification) on the given
// cluster. The MIS itself is identical to LubyMIS with the same source.
func LubyMISOnCluster(g *graph.Graph, src *rng.Source, cluster *mpc.Cluster) (*MeteredResult, error) {
	n := g.NumVertices()
	res := &MeteredResult{InMIS: make([]bool, n)}
	alive := make([]bool, n)
	deg := make([]int, n)
	remaining := 0
	for v := int32(0); v < int32(n); v++ {
		if g.Degree(v) == 0 {
			res.InMIS[v] = true
			continue
		}
		alive[v] = true
		deg[v] = g.Degree(v)
		remaining++
	}
	marked := make([]bool, n)
	for remaining > 0 {
		res.Iterations++
		// Round 1: every live vertex publishes its mark and degree to
		// the machines of its live neighbors.
		if err := chargeEdgeRound(cluster, g, alive); err != nil {
			return nil, fmt.Errorf("luby mark round %d: %w", res.Iterations, err)
		}
		for v := int32(0); v < int32(n); v++ {
			if !alive[v] {
				marked[v] = false
				continue
			}
			if deg[v] == 0 {
				marked[v] = true
				continue
			}
			marked[v] = src.Bool(1 / (2 * float64(deg[v])))
		}
		for v := int32(0); v < int32(n); v++ {
			if !alive[v] || !marked[v] {
				continue
			}
			for _, u := range g.Neighbors(v) {
				if !alive[u] || !marked[u] {
					continue
				}
				if deg[v] < deg[u] || (deg[v] == deg[u] && v < u) {
					marked[v] = false
					break
				}
			}
		}
		// Round 2: winners notify their neighborhoods.
		if err := chargeEdgeRound(cluster, g, alive); err != nil {
			return nil, fmt.Errorf("luby removal round %d: %w", res.Iterations, err)
		}
		for v := int32(0); v < int32(n); v++ {
			if !alive[v] || !marked[v] {
				continue
			}
			res.InMIS[v] = true
			alive[v] = false
			remaining--
			for _, u := range g.Neighbors(v) {
				if alive[u] {
					alive[u] = false
					remaining--
				}
			}
		}
		for v := int32(0); v < int32(n); v++ {
			if !alive[v] {
				continue
			}
			d := 0
			for _, u := range g.Neighbors(v) {
				if alive[u] {
					d++
				}
			}
			deg[v] = d
		}
	}
	fillMetered(res, cluster)
	return res, nil
}

// IsraeliItaiOnCluster runs the propose/accept maximal matching with
// every iteration charged as two MPC rounds (proposals out, acceptances
// back).
func IsraeliItaiOnCluster(g *graph.Graph, src *rng.Source, cluster *mpc.Cluster) (*MeteredResult, error) {
	n := g.NumVertices()
	res := &MeteredResult{M: graph.NewMatching(n)}
	free := make([]bool, n)
	remaining := 0
	for v := int32(0); v < int32(n); v++ {
		free[v] = true
		if g.Degree(v) > 0 {
			remaining++
		}
	}
	proposal := make([]int32, n)
	accepted := make([]int32, n)
	for remaining > 0 {
		res.Iterations++
		if err := chargeEdgeRound(cluster, g, free); err != nil {
			return nil, fmt.Errorf("israeli-itai propose round %d: %w", res.Iterations, err)
		}
		for v := int32(0); v < int32(n); v++ {
			proposal[v] = -1
			if !free[v] {
				continue
			}
			seen := 0
			for _, u := range g.Neighbors(v) {
				if !free[u] {
					continue
				}
				seen++
				if src.Intn(seen) == 0 {
					proposal[v] = u
				}
			}
		}
		if err := chargeEdgeRound(cluster, g, free); err != nil {
			return nil, fmt.Errorf("israeli-itai accept round %d: %w", res.Iterations, err)
		}
		for v := range accepted {
			accepted[v] = -1
		}
		count := make(map[int32]int)
		for v := int32(0); v < int32(n); v++ {
			u := proposal[v]
			if u == -1 {
				continue
			}
			count[u]++
			if src.Intn(count[u]) == 0 {
				accepted[u] = v
			}
		}
		for u := int32(0); u < int32(n); u++ {
			v := accepted[u]
			if v == -1 || !free[u] || !free[v] {
				continue
			}
			res.M.Match(u, v)
			free[u], free[v] = false, false
		}
		remaining = 0
		for v := int32(0); v < int32(n); v++ {
			if !free[v] {
				continue
			}
			for _, u := range g.Neighbors(v) {
				if free[u] {
					remaining++
					break
				}
			}
		}
	}
	fillMetered(res, cluster)
	return res, nil
}

func fillMetered(res *MeteredResult, cluster *mpc.Cluster) {
	met := cluster.Metrics()
	res.Rounds = met.Rounds
	res.MaxMachineWords = met.MaxInWords
	if met.MaxOutWords > res.MaxMachineWords {
		res.MaxMachineWords = met.MaxOutWords
	}
	res.TotalWords = met.TotalWords
	res.Violations = met.Violations
}
