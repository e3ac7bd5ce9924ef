package matching

import (
	"context"
	"fmt"
	"math"
	"slices"

	"mpcgraph/internal/graph"
	"mpcgraph/internal/machine/meter"
	"mpcgraph/internal/model"
	"mpcgraph/internal/par"
	"mpcgraph/internal/rng"
)

// SimOptions configures the MPC simulation of Central-Rand (the
// MPC-Simulation box in Section 4.3 of the paper).
type SimOptions struct {
	// Seed drives the thresholds and the vertex partitioning.
	Seed uint64
	// Eps is the paper's ε; values are clamped into [0.001, 0.25]. The
	// analysis assumes ε < 1/50; measured guarantees remain within the
	// claimed envelopes for the larger values the experiments sweep.
	Eps float64
	// MemoryFactor sets per-machine memory S = MemoryFactor·n words;
	// default 16.
	MemoryFactor float64
	// DCut is the degree bound at which the simulation switches to
	// direct iteration — the paper's log^20 n, which exceeds n at any
	// feasible scale; default max(16, log2(n)^2).
	DCut func(n int) float64
	// PhaseIterBeta controls iterations per phase:
	// I = max(1, β·log m / log(1/(1-ε))), so d drops to d^(1-β/2) per
	// phase; the default β = 0.2 realizes the d → d^0.9 schedule of the
	// paper's Section 4.2 sketch.
	PhaseIterBeta float64
	// PaperConstants uses the literal I = log m/(10 log 5) from the
	// pseudocode (floored at 1), which at feasible scale degenerates to
	// one iteration per phase; exposed for the ablation test.
	PaperConstants bool
	// FixedThreshold disables random thresholds (every T_{v,t} = 1-2ε),
	// the ablation of Section 4.2's "issue with the direct simulation".
	FixedThreshold bool
	// Strict makes memory violations fail the run.
	Strict bool
	// Probe, when non-nil, records the |y - ỹ| deviation and bad-vertex
	// statistics of Section 4.4.3 (experiment E12).
	Probe *DeviationProbe
	// Workers bounds the goroutines used for the per-machine round
	// bodies (0 = all cores, 1 = the exact sequential path). Results are
	// bit-identical for every setting: every floating-point sum is
	// computed entirely inside one vertex's loop body.
	Workers int
	// Model selects the metered backend: model.MPC (default) or
	// model.CongestedClique. The algorithm trajectory — and therefore the
	// output — is bit-identical across models; only the audited costs
	// differ.
	Model model.Model
	// Ctx, when non-nil, cancels the simulation between rounds.
	Ctx context.Context
	// Trace, when non-nil, observes every metered round.
	Trace model.TraceFunc
}

func (o SimOptions) withDefaults() SimOptions {
	if o.Eps == 0 {
		o.Eps = 0.1
	}
	if o.Eps < 0.001 {
		o.Eps = 0.001
	}
	if o.Eps > 0.25 {
		o.Eps = 0.25
	}
	o.MemoryFactor = meter.ResolveMemoryFactor(o.MemoryFactor)
	if o.DCut == nil {
		o.DCut = DefaultDCut
	}
	if o.PhaseIterBeta == 0 {
		o.PhaseIterBeta = 0.2
	}
	return o
}

// DefaultDCut is the default switch-to-direct threshold max(16, log2²n),
// the simulation-scale stand-in for the paper's log^20 n.
func DefaultDCut(n int) float64 {
	if n < 2 {
		return 16
	}
	l := math.Log2(float64(n))
	return math.Max(16, l*l)
}

// PhaseStat records per-phase instrumentation.
type PhaseStat struct {
	// D is the degree bound d at the phase start.
	D float64
	// Machines is m = ⌊√d⌋ for the phase.
	Machines int
	// Iterations is I, the iterations simulated locally in this phase.
	Iterations int
	// MaxInducedWords is the largest per-machine induced subgraph (in
	// words: |V_i| + 2|E(G'[V_i])|) — the Lemma 4.7 quantity (E7).
	MaxInducedWords int64
	// MaxActiveDegree is the largest active degree in G' at the phase
	// start; Lemma 4.6 asserts it never exceeds D.
	MaxActiveDegree int
	// Frozen counts vertices frozen during the phase (including the
	// end-of-phase Line (j) freezes).
	Frozen int
	// RemovedHeavy counts vertices removed at Line (i) for y > 1.
	RemovedHeavy int
}

// SimResult is the output of Simulate.
type SimResult struct {
	// Frac carries the fractional matching, vertex weights and cover.
	Frac *FracResult
	// Phases is the number of while-loop phases executed.
	Phases int
	// TotalIterations counts Central-Rand iterations simulated in phases.
	TotalIterations int
	// DirectIterations counts the Line (4) direct iterations.
	DirectIterations int
	// Rounds is the number of MPC rounds charged.
	Rounds int
	// MaxMachineWords is the largest per-round per-machine load.
	MaxMachineWords int64
	// TotalWords is the total communication volume.
	TotalWords int64
	// Violations counts capacity violations (non-strict mode).
	Violations int
	// PhaseStats carries per-phase instrumentation.
	PhaseStats []PhaseStat
	// Stages is the audited per-stage cost breakdown (one entry per
	// while-loop phase plus the direct stage). Rounds and Words sum to
	// the run totals.
	Stages []model.StageCost
}

// DeviationProbe accumulates the Section 4.4.3 coupling statistics: per
// phase, the maximum |y_v - ỹ_v| over compared vertices and iterations,
// and the number of "bad" vertices (frozen in exactly one of the two
// coupled processes). The hypothetical Central-Rand is restarted from the
// simulation state at each phase begin, exactly as the analysis assumes.
type DeviationProbe struct {
	// PhaseMaxDev[i] is the max |y - ỹ| observed in phase i.
	PhaseMaxDev []float64
	// PhaseBad[i] counts bad vertices in phase i.
	PhaseBad []int
	// PhaseMaxDiff[i] is the max over vertices of diff(v, t) at the end
	// of phase i — the Definition 4.12 weight-difference
	// Σ_{e∋v} |x_{e} - x^MPC_{e}| between the coupled processes.
	PhaseMaxDiff []float64
	// Compared is the total number of (vertex, iteration) comparisons.
	Compared int
}

// Simulate runs the paper's MPC-Simulation on g and returns the
// fractional matching, vertex cover, and audited model costs, metered on
// the backend selected by opts.Model.
func Simulate(g *graph.Graph, opts SimOptions) (*SimResult, error) {
	opts = opts.withDefaults()
	mt, err := meter.New(opts.Model, meter.Config{
		N:            g.NumVertices(),
		MemoryFactor: opts.MemoryFactor,
		Strict:       opts.Strict,
		Ctx:          opts.Ctx,
		Trace:        opts.Trace,
	})
	if err != nil {
		return nil, err
	}
	return simulateOn(new(simState), g, opts, mt)
}

// simulateOn runs the simulation on st, which it resets to g, against an
// existing meter, so callers (the integral pipeline) can accumulate the
// costs of several invocations on one backend and one state. The
// result's Frac aliases st's arrays until st is next reset. Rounds,
// TotalWords and Violations in the result are deltas relative to the
// meter state at entry; MaxMachineWords is the meter's cumulative
// per-round maximum.
func simulateOn(st *simState, g *graph.Graph, opts SimOptions, mt meter.Meter) (*SimResult, error) {
	opts = opts.withDefaults()
	n := g.NumVertices()
	eps := opts.Eps

	lo, hi := 1-4*eps, 1-2*eps
	if opts.FixedThreshold {
		lo = hi
	}
	oracle := rng.NewThresholdOracle(rng.Hash(opts.Seed, 0x7472), lo, hi)
	partSrc := rng.New(opts.Seed).SplitString("partition")

	st.reset(g, eps, opts.Workers)
	res := &SimResult{}
	base := mt.Costs()

	machines := meter.SimMachines(n)
	dCut := opts.DCut(n)
	d := float64(n)
	for d > dCut && res.Phases < 64 {
		m := int(math.Sqrt(d))
		if m < 2 {
			break
		}
		if m > machines {
			m = machines
		}
		iters := phaseIterations(m, eps, opts)
		before := mt.Costs()
		stat, err := st.runPhase(mt, oracle, partSrc, m, iters, opts.Probe)
		if err != nil {
			return nil, fmt.Errorf("phase %d: %w", res.Phases, err)
		}
		stat.D = d
		after := mt.Costs()
		res.Stages = append(res.Stages, model.StageCost{
			Name:   fmt.Sprintf("phase-%d", res.Phases),
			Rounds: after.Rounds - before.Rounds,
			Words:  after.TotalWords - before.TotalWords,
		})
		res.Phases++
		res.TotalIterations += iters
		res.PhaseStats = append(res.PhaseStats, stat)
		d *= math.Pow(1-eps, float64(iters))
	}

	// Line (4): direct simulation of Central-Rand until every edge is
	// frozen, one MPC round per iteration.
	beforeDirect := mt.Costs()
	direct, err := st.runDirect(mt, oracle)
	if err != nil {
		return nil, err
	}
	res.DirectIterations = direct
	res.TotalIterations += direct
	if afterDirect := mt.Costs(); afterDirect.Rounds > beforeDirect.Rounds {
		res.Stages = append(res.Stages, model.StageCost{
			Name:   "direct",
			Rounds: afterDirect.Rounds - beforeDirect.Rounds,
			Words:  afterDirect.TotalWords - beforeDirect.TotalWords,
		})
	}

	res.Frac = st.finalize()
	c := mt.Costs()
	res.Rounds = c.Rounds - base.Rounds
	res.MaxMachineWords = c.MaxMachineWords
	res.TotalWords = c.TotalWords - base.TotalWords
	res.Violations = c.Violations - base.Violations
	return res, nil
}

// phaseIterations returns I for a phase with m machines.
func phaseIterations(m int, eps float64, opts SimOptions) int {
	var iters int
	if opts.PaperConstants {
		iters = int(math.Log(float64(m)) / (10 * math.Log(5)))
	} else {
		iters = int(opts.PhaseIterBeta * math.Log(float64(m)) / (-math.Log1p(-eps)))
	}
	if iters < 1 {
		iters = 1
	}
	return iters
}

// simState is the global algorithm state shared by phases.
//
// Besides V' and the freeze iterations it carries, for every unfrozen
// v ∈ V', the two quantities a phase starts from: deg[v], the number of
// unfrozen neighbours of v in V', and yold[v], the weight of v's edges
// to frozen vertices of V' summed in neighbour order. Both change only
// when a neighbour freezes or leaves V', so each freeze and each
// removal updates them at its own neighbours: deg is decremented
// (integer counts commute) and yold is marked dirty, to be summed again
// in neighbour order before it is next read. A clean yold has the same
// terms in the same order as a fresh sum, so it has the same bits.
// Neither is meaningful for a frozen or removed vertex.
//
// The zero value is ready for reset, which starts a run on a graph; a
// reset keeps the arrays, the weight memo and the schedule scratch.
type simState struct {
	g       *graph.Graph
	eps     float64
	w0      float64
	t       int // global iteration counter
	workers int

	inV        []bool  // v ∈ V'
	freezeIter []int32 // iteration at which v froze; -1 while active
	cover      []bool  // frozen ∪ removed

	deg   []int32   // unfrozen neighbours in V'
	yold  []float64 // weight of the edges to frozen vertices of V'
	dirty []bool    // yold must be summed again

	pow []float64 // pow[t] = (1-eps)^(-t), grown on demand

	// Per-phase scratch, allocated once and overwritten each phase so the
	// phase loop stays allocation-free in steady state. Entries of
	// vertices outside the phase's active set are stale.
	part     []int32
	localDeg []int32
	deg0     []int32        // deg at the phase start
	induced  []int64        // per-machine induced-subgraph words
	cand     []int32        // vertices whose y the phase end forms
	candY    []float64      // their y, index-aligned with cand
	sched    freezeSchedule // reused by every phase and the direct stage
}

// reset starts a run on g at the given ε: every vertex in V',
// unfrozen, with its full degree and no frozen weight.
func (st *simState) reset(g *graph.Graph, eps float64, workers int) {
	n := g.NumVertices()
	if len(st.pow) == 0 || eps != st.eps {
		st.pow = append(st.pow[:0], 1)
	}
	st.g, st.eps, st.t, st.workers = g, eps, 0, workers
	st.w0 = (1 - 2*eps) / math.Max(float64(n), 1)
	st.inV = resize(st.inV, n)
	st.freezeIter = resize(st.freezeIter, n)
	st.cover = resize(st.cover, n)
	st.deg = resize(st.deg, n)
	st.yold = resize(st.yold, n)
	st.dirty = resize(st.dirty, n)
	st.part = resize(st.part, n)
	st.localDeg = resize(st.localDeg, n)
	st.deg0 = resize(st.deg0, n)
	clear(st.cover)
	clear(st.yold)
	clear(st.dirty)
	for v := range st.inV {
		st.inV[v] = true
		st.freezeIter[v] = -1
		st.deg[v] = int32(g.Degree(int32(v)))
	}
}

// resize returns s with length n, reusing its array when it is large
// enough. The entries are stale.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// wAt returns the weight of an edge frozen at iteration t (or active at
// current iteration t): w0/(1-eps)^t.
func (st *simState) wAt(t int) float64 {
	for len(st.pow) <= t {
		st.pow = append(st.pow, st.pow[len(st.pow)-1]/(1-st.eps))
	}
	return st.w0 * st.pow[t]
}

// frozen reports whether v froze already.
func (st *simState) frozen(v int32) bool { return st.freezeIter[v] >= 0 }

// frozenWeight returns the weight of v's edges to frozen vertices of
// V', summed in neighbour order: y_old of Line (b) for an unfrozen v.
func (st *simState) frozenWeight(v int32) float64 {
	s := 0.0
	for _, u := range st.g.Neighbors(v) {
		if st.inV[u] && st.frozen(u) {
			s += st.wAt(int(st.freezeIter[u]))
		}
	}
	return s
}

// weight returns v's weight over G[V'] at the current iteration, summed
// in neighbour order: y^MPC of Lines (g)-(h).
func (st *simState) weight(v int32) float64 {
	s := 0.0
	for _, u := range st.g.Neighbors(v) {
		if st.inV[u] {
			s += st.wAt(edgeLevel(st.freezeIter[v], st.freezeIter[u], st.t))
		}
	}
	return s
}

// detach records at v's neighbours in V' that v froze or left V': their
// yold must be summed again, and their deg drops if v was unfrozen.
func (st *simState) detach(v int32, wasUnfrozen bool) {
	for _, u := range st.g.Neighbors(v) {
		if st.inV[u] {
			st.dirty[u] = true
			if wasUnfrozen {
				st.deg[u]--
			}
		}
	}
}

const (
	// heavyTol is the slack of Line (i): a vertex leaves V' when its
	// weight exceeds 1+heavyTol.
	heavyTol = 1e-12
	// boundSlack covers the rounding of a weight bound: the phase end's,
	// and RoundFractional's on the draws that can choose an edge. It is
	// more than twice the relative rounding error of any float sum of
	// fewer than 2³¹ non-negative terms, so a bound times 1+boundSlack is
	// never below the weight it bounds, whichever of the two sums rounds
	// up.
	boundSlack = 1e-6
)

// runPhase executes one while-loop phase: partition, local simulation of
// I iterations, end-of-phase weight reconciliation, heavy removal and
// late freezing (Lines (a)-(j) of the pseudocode).
func (st *simState) runPhase(
	mt meter.Meter,
	oracle rng.ThresholdOracle,
	partSrc *rng.Source,
	m, iters int,
	probe *DeviationProbe,
) (PhaseStat, error) {
	g := st.g
	n := int32(g.NumVertices())
	stat := PhaseStat{Machines: m, Iterations: iters}

	// Line (d): partition the active vertices onto m machines. The draw
	// consumes a sequential RNG stream, so it stays on one goroutine.
	part, localDeg, deg0 := st.part, st.localDeg, st.deg0
	activeCount := 0
	for v := int32(0); v < n; v++ {
		part[v] = -1
		if st.inV[v] && !st.frozen(v) {
			part[v] = int32(partSrc.Intn(m))
			activeCount++
		}
	}
	mt.SetActive(activeCount)
	// wAt grows its memo lazily; pre-grow it to the deepest iteration the
	// phase can reference so the parallel pass only reads it.
	st.wAt(st.t + iters)
	// Line (b): y_old is summed again only where a freeze or removal
	// changed it. The same pass counts each active vertex's neighbours on
	// its own machine; a vertex off the active set has part -1.
	par.For(st.workers, int(n), func(lo, hi, _ int) {
		for v := int32(lo); v < int32(hi); v++ {
			p := part[v]
			if p < 0 {
				continue
			}
			if st.dirty[v] {
				st.yold[v] = st.frozenWeight(v)
				st.dirty[v] = false
			}
			local := int32(0)
			for _, u := range g.Neighbors(v) {
				if part[u] == p {
					local++
				}
			}
			localDeg[v] = local
			deg0[v] = st.deg[v]
		}
	})
	// Machine i's induced subgraph takes |V_i| + 2|E(G'[V_i])| words: one
	// per vertex plus its local degree, which counts each local edge once
	// from either end.
	induced := slices.Grow(st.induced[:0], m)[:m]
	st.induced = induced
	clear(induced)
	for v := int32(0); v < n; v++ {
		if p := part[v]; p >= 0 {
			induced[p] += 1 + int64(localDeg[v])
			stat.MaxActiveDegree = max(stat.MaxActiveDegree, int(deg0[v]))
		}
	}
	for _, w := range induced {
		stat.MaxInducedWords = max(stat.MaxInducedWords, w)
	}

	// Charge the shuffle round: edges travel from their hash-home to the
	// owner machine of their partition class; the inbox of machine i is
	// exactly its induced subgraph (the Lemma 4.7 audit).
	if err := mt.Shuffle(m, induced); err != nil {
		return stat, err
	}

	// Probe state: hypothetical Central-Rand restarted from the current
	// global state, per Section 4.4's coupling. hypoFreeze records the
	// iteration at which the hypothetical process froze each vertex
	// (-1 while active), so the Definition 4.12 weight difference is
	// computable at phase end; hypoDeg is its active degree.
	var hypoFreeze, hypoDeg []int32
	if probe != nil {
		hypoFreeze = make([]int32, n)
		hypoDeg = make([]int32, n)
		for v := range hypoFreeze {
			hypoFreeze[v] = -1
			if part[v] >= 0 {
				hypoDeg[v] = deg0[v]
			}
		}
		probe.PhaseMaxDev = append(probe.PhaseMaxDev, 0)
		probe.PhaseBad = append(probe.PhaseBad, 0)
		probe.PhaseMaxDiff = append(probe.PhaseMaxDiff, 0)
	}

	// Line (e): simulate I iterations on every machine in parallel. All
	// active edges carry weight w_t, so the local estimate reduces to
	// ỹ_{v,t} = m·w_t·localDeg(v) + y_old(v).
	yold := st.yold
	// The freeze schedule weighs only the vertices that can freeze in an
	// iteration; the probe scans every vertex instead.
	if probe == nil {
		coef := st.sched.begin(iters, oracle.Lo(), localDeg, yold)
		for i := range coef {
			coef[i] = float64(m) * st.wAt(st.t+i)
		}
		for v := int32(0); v < n; v++ {
			if part[v] >= 0 {
				st.sched.add(v)
			}
		}
	}
	toFreeze := make([]int32, 0, 64)
	hypoToFreeze := make([]int32, 0, 64)
	for k := 0; k < iters; k++ {
		wt := st.wAt(st.t)
		toFreeze = toFreeze[:0]
		hypoToFreeze = hypoToFreeze[:0]
		if probe == nil {
			toFreeze = st.sched.freezing(k, st.t, oracle, toFreeze)
		} else {
			// The probe couples the simulated and hypothetical processes
			// with shared running statistics; it runs at conformance
			// scale, so the combined scan stays sequential.
			for v := int32(0); v < n; v++ {
				if !st.inV[v] || st.frozen(v) {
					continue
				}
				yTilde := float64(m)*wt*float64(localDeg[v]) + yold[v]
				th := oracle.At(v, st.t)
				if yTilde >= th {
					toFreeze = append(toFreeze, v)
				}
				if hypoFreeze[v] < 0 {
					yExact := wt*float64(hypoDeg[v]) + yold[v]
					probe.Compared++
					dev := math.Abs(yExact - yTilde)
					if dev > probe.PhaseMaxDev[len(probe.PhaseMaxDev)-1] {
						probe.PhaseMaxDev[len(probe.PhaseMaxDev)-1] = dev
					}
					if yExact >= th {
						hypoToFreeze = append(hypoToFreeze, v)
					}
					if (yExact >= th) != (yTilde >= th) {
						probe.PhaseBad[len(probe.PhaseBad)-1]++
					}
				}
			}
		}
		for _, v := range toFreeze {
			st.freezeIter[v] = int32(st.t)
			st.cover[v] = true
		}
		for _, v := range toFreeze {
			st.detach(v, true)
			for _, u := range g.Neighbors(v) {
				if st.inV[u] && part[u] == part[v] && localDeg[u] > 0 {
					localDeg[u]--
				}
			}
		}
		stat.Frozen += len(toFreeze)
		if probe != nil {
			for _, v := range hypoToFreeze {
				hypoFreeze[v] = int32(st.t)
			}
			for _, v := range hypoToFreeze {
				for _, u := range g.Neighbors(v) {
					if st.inV[u] && hypoFreeze[u] < 0 && hypoDeg[u] > 0 {
						hypoDeg[u]--
					}
				}
			}
		}
		st.t++
	}

	// Definition 4.12: diff(v) = Σ_{e∋v} |x_e - x^MPC_e| over the edges
	// that were active at phase start, comparing the freeze schedules of
	// the two coupled processes.
	if probe != nil {
		diff := make([]float64, n)
		for v := int32(0); v < n; v++ {
			if part[v] < 0 {
				continue
			}
			for _, u := range g.Neighbors(v) {
				if u <= v || part[u] < 0 {
					continue
				}
				simTe := edgeLevel(st.freezeIter[v], st.freezeIter[u], st.t)
				hypTe := edgeLevel(hypoFreeze[v], hypoFreeze[u], st.t)
				d := math.Abs(st.wAt(simTe) - st.wAt(hypTe))
				diff[v] += d
				diff[u] += d
			}
		}
		idx := len(probe.PhaseMaxDiff) - 1
		for v := int32(0); v < n; v++ {
			if diff[v] > probe.PhaseMaxDiff[idx] {
				probe.PhaseMaxDiff[idx] = diff[v]
			}
		}
	}

	// Charge the result exchange: frozen (v, iteration) pairs are
	// gathered and redistributed (1 gather + broadcast).
	if err := mt.ResultSync(m, int64(2*stat.Frozen)); err != nil {
		return stat, err
	}

	// Lines (g)-(h): reconcile edge weights from freeze iterations and
	// form y^MPC over G[V'] where it can cross a threshold. Only vertices
	// active at the phase start can. A vertex frozen earlier passed
	// Line (i) with its edge weights fixed, and V' only shrinks since:
	// dropping a non-negative term from a fixed-order float sum cannot
	// raise it. Every other vertex has y ≤ y_old + deg0·w_t, since each
	// edge active at the phase start weighs at most w_t; y is formed where
	// that bound, with rounding slack, exceeds the vertex's threshold:
	// 1-2ε for Line (j), or 1+heavyTol for Line (i) if it froze in this
	// phase.
	wt := st.wAt(st.t)
	cand, candY := st.cand[:0], st.candY[:0]
	for v := int32(0); v < n; v++ {
		if part[v] < 0 {
			continue
		}
		limit := 1 - 2*st.eps
		if st.frozen(v) {
			limit = 1 + heavyTol
		}
		if (yold[v]+float64(deg0[v])*wt)*(1+boundSlack) > limit {
			cand = append(cand, v)
			candY = append(candY, st.weight(v))
		}
	}
	st.cand, st.candY = cand, candY
	// Line (i): remove heavy vertices (y > 1) from V'; they join the
	// reported cover.
	for k, v := range cand {
		if candY[k] > 1+heavyTol {
			st.inV[v] = false
			st.cover[v] = true
			stat.RemovedHeavy++
			st.detach(v, !st.frozen(v))
		}
	}
	// Line (j): freeze vertices with y > 1-2ε.
	for k, v := range cand {
		if st.inV[v] && !st.frozen(v) && candY[k] > 1-2*st.eps {
			st.freezeIter[v] = int32(st.t)
			st.cover[v] = true
			stat.Frozen++
			st.detach(v, true)
		}
	}
	return stat, nil
}

// runDirect executes Central-Rand directly from the current state until
// no active edge remains, one MPC round per iteration. Returns the number
// of iterations.
func (st *simState) runDirect(mt meter.Meter, oracle rng.ThresholdOracle) (int, error) {
	g := st.g
	n := int32(g.NumVertices())
	// The stage starts from the carried state and then keeps it
	// incrementally as its own: for an unfrozen v in V', deg[v] is the
	// active degree and yold[v], once summed again where dirty, the
	// frozen weight.
	yFrozen, activeDeg := st.yold, st.deg
	st.wAt(st.t) // pre-grow the weight memo
	activeEdges, activeVerts := 0, 0
	for v := int32(0); v < n; v++ {
		if !st.inV[v] || st.frozen(v) {
			continue
		}
		if st.dirty[v] {
			yFrozen[v] = st.frozenWeight(v)
			st.dirty[v] = false
		}
		activeVerts++
		activeEdges += int(activeDeg[v])
	}
	activeEdges /= 2
	// The freeze schedule weighs only the vertices that can freeze in an
	// iteration; activeVerts still counts every unfrozen vertex of V'.
	t0 := st.t
	maxIter := maxCentralIterations(int(n), st.eps) + t0
	coef := st.sched.begin(maxIter-t0, oracle.Lo(), activeDeg, yFrozen)
	for i := range coef {
		coef[i] = st.wAt(t0 + i)
	}
	for v := int32(0); v < n; v++ {
		if st.inV[v] && !st.frozen(v) {
			st.sched.add(v)
		}
	}
	iters := 0
	toFreeze := make([]int32, 0, 64)
	// frozeNow marks the vertices freezing in the current iteration. A
	// freezeIter equal to t does not: Line (j) of the last phase freezes
	// at the t this stage starts in.
	frozeNow := make([]bool, n)
	for activeEdges > 0 && st.t < maxIter {
		mt.SetActive(activeVerts)
		if err := mt.DirectRound(int64(activeEdges)); err != nil {
			return iters, fmt.Errorf("direct iteration %d: %w", iters, err)
		}
		wt := st.wAt(st.t)
		toFreeze = st.sched.freezing(st.t-t0, st.t, oracle, toFreeze[:0])
		for _, v := range toFreeze {
			st.freezeIter[v] = int32(st.t)
			st.cover[v] = true
			frozeNow[v] = true
		}
		activeVerts -= len(toFreeze)
		// Deactivate edges whose first endpoint froze this iteration.
		for _, v := range toFreeze {
			for _, u := range g.Neighbors(v) {
				if !st.inV[u] {
					continue
				}
				// The edge {v,u} was active before this iteration iff u
				// is unfrozen or froze this very iteration. When both
				// endpoints froze now, the smaller id retires the edge.
				if st.frozen(u) && !frozeNow[u] {
					continue // u froze earlier; the edge was never active
				}
				if frozeNow[u] && u < v {
					continue // peer freeze, edge handled by u's loop
				}
				yFrozen[v] += wt
				yFrozen[u] += wt
				activeDeg[v]--
				activeDeg[u]--
				activeEdges--
			}
		}
		for _, v := range toFreeze {
			frozeNow[v] = false
		}
		st.t++
		iters++
	}
	// Defensive: if the cap fired, freeze both endpoints of every edge of
	// G[V'] that is still active, so the cover property holds (cannot
	// happen for sane ε; tested). The scan reads the graph, not the
	// counters, so a bookkeeping slip cannot leave an edge uncovered.
	toFreeze = toFreeze[:0]
	for v := int32(0); v < n; v++ {
		if st.inV[v] && !st.frozen(v) && st.hasActiveEdge(v) {
			toFreeze = append(toFreeze, v)
		}
	}
	for _, v := range toFreeze {
		st.freezeIter[v] = int32(st.t)
		st.cover[v] = true
	}
	return iters, nil
}

// hasActiveEdge reports whether v has a neighbour in V' that is not
// frozen.
func (st *simState) hasActiveEdge(v int32) bool {
	for _, u := range st.g.Neighbors(v) {
		if st.inV[u] && !st.frozen(u) {
			return true
		}
	}
	return false
}

// finalize assembles the fractional matching output from the state:
// edges inside the final V' carry their reconciled weights; edges
// touching removed vertices carry zero (they are covered by the removed
// endpoints). Each Y entry is gathered inside one vertex's body, so the
// fill fans out deterministically.
func (st *simState) finalize() *FracResult {
	g := st.g
	n := g.NumVertices()
	ladder := make([]float64, st.t+1)
	for k := range ladder {
		ladder[k] = st.wAt(k)
	}
	res := &FracResult{
		Y:          make([]float64, n),
		Cover:      st.cover,
		Iterations: st.t,
		g:          g,
		level:      st.freezeIter,
		inV:        st.inV,
		ladder:     ladder,
	}
	par.For(st.workers, n, func(lo, hi, _ int) {
		for v := int32(lo); v < int32(hi); v++ {
			if !st.inV[v] {
				continue
			}
			// A neighbour outside V' adds +0, which changes no bits.
			s := 0.0
			for _, u := range g.Neighbors(v) {
				s += res.EdgeWeight(v, u)
			}
			res.Y[v] = s
		}
	})
	return res
}
