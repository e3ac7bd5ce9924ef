package mis

import (
	"fmt"

	"mpcgraph/internal/congest"
	"mpcgraph/internal/graph"
	"mpcgraph/internal/par"
	"mpcgraph/internal/rng"
)

// RealMessageCliqueMIS executes the Section 3.2 CONGESTED-CLIQUE
// algorithm with *real message payloads*: every player starts knowing
// only its own incident edges (the model's input assumption), and all
// other knowledge — permutation ranks, gathered subgraphs, MIS verdicts,
// desire levels and marks of the sparsified stage, termination decisions
// — flows through the congest simulator as materialized messages subject
// to the per-pair bandwidth budget.
//
// It exists as the executable semantics against which the scalable
// charge-accounted RandGreedyCongestedClique is validated: with the same
// seed, both must output the same maximal independent set and the same
// prefix phase structure (asserted in tests). Being O(n²) in memory for
// the all-to-all rank broadcast, it is intended for conformance scale
// (n up to a few thousand), not for the benchmark sweeps.
func RealMessageCliqueMIS(g *graph.Graph, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	n := g.NumVertices()
	res := &Result{InMIS: make([]bool, n)}
	if n == 0 {
		return res, nil
	}
	clique, err := congest.New(congest.Config{
		Players:         n,
		PairBudgetWords: 1,
		Strict:          opts.Strict,
		Ctx:             opts.Ctx,
		Trace:           opts.Trace,
	})
	if err != nil {
		return nil, err
	}
	clique.SetActive(n)
	st := &realPlayers{
		g:       g,
		q:       clique,
		n:       n,
		seed:    opts.Seed,
		workers: opts.Workers,
		rank:    make([]int32, n),
		alive:   make([]bool, n),
		inMIS:   res.InMIS,
		leader:  0,
	}
	for v := range st.alive {
		st.alive[v] = true
	}

	if err := st.distributeRanks(); err != nil {
		return nil, err
	}

	ranks := prefixRanks(n, g.MaxDegree(), opts.PolylogDegree(n), opts.Alpha)
	prev := 0
	for _, r := range ranks {
		info, err := st.prefixPhase(prev, r)
		if err != nil {
			return nil, err
		}
		res.Phases++
		res.PhaseInfos = append(res.PhaseInfos, info)
		prev = r
	}

	iters, err := st.sparsifiedStage(opts)
	if err != nil {
		return nil, err
	}
	res.SparsifiedIterations = iters

	m := clique.Metrics()
	res.Rounds = m.Rounds
	res.MaxMachineWords = m.MaxPlayerIn
	if m.MaxPlayerOut > res.MaxMachineWords {
		res.MaxMachineWords = m.MaxPlayerOut
	}
	res.TotalWords = m.TotalWords
	res.Violations = m.Violations
	return res, nil
}

// realPlayers holds the union of all players' local states. Methods only
// let information move between players through clique messages; the
// shared arrays are indexed per player and a player's logic only reads
// its own row plus whatever messages delivered.
type realPlayers struct {
	g       *graph.Graph
	q       *congest.Clique
	n       int
	seed    uint64
	workers int
	leader  int

	// perm is leader-local knowledge (the leader draws it).
	perm []int32
	// rank[v] is learned by v from the leader, then by everyone from the
	// all-broadcast.
	rank []int32

	alive []bool
	inMIS []bool
}

// distributeRanks: the leader draws the permutation, tells each player
// its position (one round), and all players broadcast their positions so
// everyone knows the order (one round) — exactly the setup in §3.2.
func (st *realPlayers) distributeRanks() error {
	st.perm = rng.New(st.seed).SplitString("mis-perm").Perm(st.n)
	leaderRank := make([]int32, st.n)
	for i, v := range st.perm {
		leaderRank[v] = int32(i)
	}
	// Round 1: leader -> each player, one word.
	out := make([][]congest.Message, st.n)
	for v := 0; v < st.n; v++ {
		if v == st.leader {
			continue
		}
		out[st.leader] = append(out[st.leader], congest.Message{To: v, Words: 1, Payload: leaderRank[v]})
	}
	in, err := st.q.Round(out)
	if err != nil {
		return fmt.Errorf("rank scatter: %w", err)
	}
	myRank := make([]int32, st.n)
	myRank[st.leader] = leaderRank[st.leader]
	for v := 0; v < st.n; v++ {
		for _, msg := range in[v] {
			r, ok := msg.Payload.(int32)
			if !ok {
				return fmt.Errorf("rank scatter: bad payload %T", msg.Payload)
			}
			myRank[v] = r
		}
	}
	// Round 2: everyone broadcasts its position.
	payloads := make([]any, st.n)
	for v := 0; v < st.n; v++ {
		payloads[v] = myRank[v]
	}
	recv, err := st.q.AllBroadcast(1, payloads)
	if err != nil {
		return fmt.Errorf("rank broadcast: %w", err)
	}
	// Every player reconstructs the full rank table; they all agree, so
	// keep one copy (player 0's view plus its own value).
	for v := 0; v < st.n; v++ {
		st.rank[v] = myRank[v]
	}
	for u := 0; u < st.n; u++ {
		if u == 0 {
			continue
		}
		r, ok := recv[0][u].(int32)
		if !ok {
			return fmt.Errorf("rank broadcast: bad payload %T", recv[0][u])
		}
		if r != st.rank[u] {
			return fmt.Errorf("rank broadcast: inconsistent rank for %d", u)
		}
	}
	return nil
}

// edgePayload is one gathered edge.
type edgePayload struct{ U, V int32 }

// prefixPhase ships the in-range alive induced subgraph to the leader as
// real edge payloads (chunked Lenzen routings), lets the leader extend
// the greedy MIS using only the received edges, scatters verdicts, and
// has new MIS members notify their neighbors.
func (st *realPlayers) prefixPhase(prev, r int) (PhaseInfo, error) {
	info := PhaseInfo{Rank: r}
	inRange := func(v int32) bool {
		return st.alive[v] && int(st.rank[v]) >= prev && int(st.rank[v]) < r
	}
	// Each in-range player collects its in-range incident edges (owned by
	// the smaller endpoint to avoid duplication).
	pending := make([][]edgePayload, st.n)
	var total int64
	for u := int32(0); u < int32(st.n); u++ {
		if !inRange(u) {
			continue
		}
		info.GatheredVertices++
		for _, v := range st.g.Neighbors(u) {
			if u < v && inRange(v) {
				pending[u] = append(pending[u], edgePayload{U: u, V: v})
				total += 2
			}
		}
	}
	info.GatheredEdgeWords = total

	// Chunked Lenzen routing: per routing, every player ships at most
	// budget words and the leader receives at most n.
	var received []edgePayload
	for {
		out := make([][]congest.Message, st.n)
		var sentAny bool
		var budgetLeft = int64(st.n) // leader-side budget per routing
		for u := 0; u < st.n && budgetLeft > 0; u++ {
			for len(pending[u]) > 0 && budgetLeft >= 2 {
				e := pending[u][0]
				pending[u] = pending[u][1:]
				out[u] = append(out[u], congest.Message{To: st.leader, Words: 2, Payload: e})
				budgetLeft -= 2
				sentAny = true
			}
		}
		if !sentAny {
			break
		}
		in, err := st.q.LenzenRoute(out)
		if err != nil {
			return info, fmt.Errorf("phase gather at rank %d: %w", r, err)
		}
		for _, msg := range in[st.leader] {
			e, ok := msg.Payload.(edgePayload)
			if !ok {
				return info, fmt.Errorf("phase gather: bad payload %T", msg.Payload)
			}
			received = append(received, e)
		}
	}

	// Leader-local: adjacency among in-range vertices from received
	// edges only, then greedy in rank order.
	adj := make(map[int32][]int32, len(received))
	for _, e := range received {
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	verdict := make([]bool, st.n)
	localIn := make(map[int32]bool, 16)
	for i := prev; i < r && i < st.n; i++ {
		v := st.perm[i]
		if !st.alive[v] {
			continue
		}
		blocked := false
		for _, u := range adj[v] {
			if localIn[u] {
				blocked = true
				break
			}
		}
		if !blocked {
			localIn[v] = true
			verdict[v] = true
		}
	}
	info.NewMISVertices = len(localIn)

	// Verdict scatter: leader -> every player, one word.
	out := make([][]congest.Message, st.n)
	for v := 0; v < st.n; v++ {
		if v == st.leader {
			continue
		}
		out[st.leader] = append(out[st.leader], congest.Message{To: v, Words: 1, Payload: verdict[v]})
	}
	in, err := st.q.Round(out)
	if err != nil {
		return info, fmt.Errorf("phase scatter at rank %d: %w", r, err)
	}
	joined := make([]bool, st.n)
	joined[st.leader] = verdict[st.leader]
	for v := 0; v < st.n; v++ {
		for _, msg := range in[v] {
			b, ok := msg.Payload.(bool)
			if !ok {
				return info, fmt.Errorf("phase scatter: bad payload %T", msg.Payload)
			}
			joined[v] = b
		}
	}
	// Notify round: joiners tell their neighbors; everyone updates.
	out = make([][]congest.Message, st.n)
	for v := int32(0); v < int32(st.n); v++ {
		if !joined[v] {
			continue
		}
		for _, u := range st.g.Neighbors(v) {
			out[v] = append(out[v], congest.Message{To: int(u), Words: 1, Payload: true})
		}
	}
	in, err = st.q.Round(out)
	if err != nil {
		return info, fmt.Errorf("phase notify at rank %d: %w", r, err)
	}
	for v := 0; v < st.n; v++ {
		if joined[v] {
			st.inMIS[v] = true
			st.alive[v] = false
		}
		if len(in[v]) > 0 && st.alive[v] {
			st.alive[v] = false // dominated by a joining neighbor
		}
	}
	for v := int32(0); v < int32(st.n); v++ {
		if !st.alive[v] {
			continue
		}
		deg := 0
		for _, u := range st.g.Neighbors(v) {
			if st.alive[u] {
				deg++
			}
		}
		if deg > info.ResidualMaxDegree {
			info.ResidualMaxDegree = deg
		}
	}
	return info, nil
}

// dynamicsPayload carries one player's iteration state to a neighbor:
// the desire level (a power of two, so one word suffices in the
// O(log n)-bit model) and the mark bit.
type dynamicsPayload struct {
	P      float64
	Marked bool
}

// sparsifiedStage runs Ghaffari's dynamics with real neighbor messages:
// per iteration, (1) every alive player sends (p, mark) to alive
// neighbors, (2) lonely marked players join and notify neighbors, and
// (3) every alive player reports its alive-degree to the leader, which
// broadcasts whether the residue is small enough to gather. The final
// residue travels to the leader as edge payloads and verdicts return.
func (st *realPlayers) sparsifiedStage(opts Options) (int, error) {
	n := st.n
	p := make([]float64, n)
	undecided := 0
	for v := 0; v < n; v++ {
		if st.alive[v] {
			p[v] = 0.5
			undecided++
		}
	}
	coin := func(v int32, t int) float64 {
		return float64(rng.Hash(st.seed, 0xd1a0, uint64(uint32(v)), uint64(t))>>11) / (1 << 53)
	}
	maxIter := defaultDynamicsCap(st.g.MaxDegree(), opts.MaxDynamicsIterations)
	iters := 0
	for t := 0; undecided > 0 && iters < maxIter; t++ {
		// Leader decides whether to keep iterating: players report their
		// alive degree (one word to the leader fits Lenzen's limits).
		stop, err := st.leaderStopDecision()
		if err != nil {
			return iters, err
		}
		if stop {
			break
		}

		// (1) exchange (p, mark) along alive edges.
		marked := make([]bool, n)
		par.For(st.workers, n, func(lo, hi, _ int) {
			for v := int32(lo); v < int32(hi); v++ {
				if st.alive[v] {
					marked[v] = coin(v, t) < p[v]
				}
			}
		})
		out := make([][]congest.Message, n)
		par.For(st.workers, n, func(lo, hi, _ int) {
			for v := int32(lo); v < int32(hi); v++ {
				if !st.alive[v] {
					continue
				}
				pl := dynamicsPayload{P: p[v], Marked: marked[v]}
				for _, u := range st.g.Neighbors(v) {
					if st.alive[u] {
						out[v] = append(out[v], congest.Message{To: int(u), Words: 1, Payload: pl})
					}
				}
			}
		})
		in, err := st.q.Round(out)
		if err != nil {
			return iters, fmt.Errorf("dynamics exchange %d: %w", t, err)
		}
		effDeg := make([]float64, n)
		nbrMarked := make([]bool, n)
		shardErr := make([]error, par.ShardCount(st.workers, n))
		par.For(st.workers, n, func(lo, hi, w int) {
			for v := lo; v < hi; v++ {
				for _, msg := range in[v] {
					pl, ok := msg.Payload.(dynamicsPayload)
					if !ok {
						shardErr[w] = fmt.Errorf("dynamics exchange: bad payload %T", msg.Payload)
						return
					}
					effDeg[v] += pl.P
					if pl.Marked {
						nbrMarked[v] = true
					}
				}
			}
		})
		for _, err := range shardErr {
			if err != nil {
				return iters, err
			}
		}
		// (2) lonely marked players join; joiners notify neighbors.
		join := make([]bool, n)
		for v := 0; v < n; v++ {
			if st.alive[v] && marked[v] && !nbrMarked[v] {
				join[v] = true
			}
		}
		out = make([][]congest.Message, n)
		par.For(st.workers, n, func(lo, hi, _ int) {
			for v := int32(lo); v < int32(hi); v++ {
				if !join[v] {
					continue
				}
				for _, u := range st.g.Neighbors(v) {
					out[v] = append(out[v], congest.Message{To: int(u), Words: 1, Payload: true})
				}
			}
		})
		in, err = st.q.Round(out)
		if err != nil {
			return iters, fmt.Errorf("dynamics notify %d: %w", t, err)
		}
		for v := 0; v < n; v++ {
			if join[v] {
				st.inMIS[v] = true
				st.alive[v] = false
				undecided--
				continue
			}
			if st.alive[v] && len(in[v]) > 0 {
				st.alive[v] = false
				undecided--
			}
		}
		// (3) desire-level update for survivors.
		for v := 0; v < n; v++ {
			if !st.alive[v] {
				continue
			}
			if effDeg[v] >= 2 {
				p[v] /= 2
			} else if p[v] < 0.5 {
				p[v] *= 2
				if p[v] > 0.5 {
					p[v] = 0.5
				}
			}
		}
		iters++
	}
	if undecided > 0 {
		if err := st.finalGather(); err != nil {
			return iters, err
		}
	}
	return iters, nil
}

// leaderStopDecision: every alive player reports its alive-degree; the
// leader computes the residual gather cost and broadcasts "stop" when it
// fits half a Lenzen invocation — the same predicate as the charged
// simulation. Costs one report round and one broadcast round.
func (st *realPlayers) leaderStopDecision() (bool, error) {
	n := st.n
	out := make([][]congest.Message, n)
	for v := int32(0); v < int32(n); v++ {
		if !st.alive[v] || int(v) == st.leader {
			continue
		}
		deg := int32(0)
		for _, u := range st.g.Neighbors(v) {
			if st.alive[u] {
				deg++
			}
		}
		out[v] = append(out[v], congest.Message{To: st.leader, Words: 1, Payload: deg})
	}
	in, err := st.q.LenzenRoute(out)
	if err != nil {
		return false, fmt.Errorf("degree report: %w", err)
	}
	var words int64
	aliveCount := int64(0)
	var degSum int64
	for _, msg := range in[st.leader] {
		d, ok := msg.Payload.(int32)
		if !ok {
			return false, fmt.Errorf("degree report: bad payload %T", msg.Payload)
		}
		aliveCount++
		degSum += int64(d)
	}
	if st.alive[st.leader] {
		aliveCount++
		deg := int64(0)
		for _, u := range st.g.Neighbors(int32(st.leader)) {
			if st.alive[u] {
				deg++
			}
		}
		degSum += deg
	}
	words = aliveCount + degSum // each edge counted twice = 2·edges words
	stop := words <= int64(n)/2
	// Broadcast the decision.
	out = make([][]congest.Message, n)
	for v := 0; v < n; v++ {
		if v == st.leader {
			continue
		}
		out[st.leader] = append(out[st.leader], congest.Message{To: v, Words: 1, Payload: stop})
	}
	if _, err := st.q.Round(out); err != nil {
		return false, fmt.Errorf("stop broadcast: %w", err)
	}
	return stop, nil
}

// finalGather ships the alive residue to the leader, finishes greedily by
// rank, and scatters verdicts.
func (st *realPlayers) finalGather() error {
	n := st.n
	pending := make([][]edgePayload, n)
	for u := int32(0); u < int32(n); u++ {
		if !st.alive[u] {
			continue
		}
		for _, v := range st.g.Neighbors(u) {
			if u < v && st.alive[v] {
				pending[u] = append(pending[u], edgePayload{U: u, V: v})
			}
		}
	}
	var received []edgePayload
	for {
		out := make([][]congest.Message, n)
		sentAny := false
		budget := int64(n)
		for u := 0; u < n && budget >= 2; u++ {
			for len(pending[u]) > 0 && budget >= 2 {
				e := pending[u][0]
				pending[u] = pending[u][1:]
				out[u] = append(out[u], congest.Message{To: st.leader, Words: 2, Payload: e})
				budget -= 2
				sentAny = true
			}
		}
		if !sentAny {
			break
		}
		in, err := st.q.LenzenRoute(out)
		if err != nil {
			return fmt.Errorf("final gather: %w", err)
		}
		for _, msg := range in[st.leader] {
			e, ok := msg.Payload.(edgePayload)
			if !ok {
				return fmt.Errorf("final gather: bad payload %T", msg.Payload)
			}
			received = append(received, e)
		}
	}
	adj := make(map[int32][]int32, len(received))
	for _, e := range received {
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	verdict := make([]bool, n)
	localIn := make(map[int32]bool)
	for _, v := range st.perm {
		if !st.alive[v] {
			continue
		}
		blocked := false
		for _, u := range adj[v] {
			if localIn[u] {
				blocked = true
				break
			}
		}
		if !blocked {
			localIn[v] = true
			verdict[v] = true
		}
	}
	// The leader must also block vertices dominated within the residue:
	// greedy above handles it because blocked vertices are skipped only
	// when a chosen neighbor exists; the rest stay out of the MIS but
	// must be marked decided. Scatter verdicts.
	out := make([][]congest.Message, n)
	for v := 0; v < n; v++ {
		if v == st.leader {
			continue
		}
		out[st.leader] = append(out[st.leader], congest.Message{To: v, Words: 1, Payload: verdict[v]})
	}
	in, err := st.q.Round(out)
	if err != nil {
		return fmt.Errorf("final scatter: %w", err)
	}
	for v := 0; v < n; v++ {
		decided := verdict[v]
		for _, msg := range in[v] {
			b, ok := msg.Payload.(bool)
			if !ok {
				return fmt.Errorf("final scatter: bad payload %T", msg.Payload)
			}
			decided = b
		}
		if decided {
			st.inMIS[v] = true
		}
		st.alive[v] = false
	}
	return nil
}
