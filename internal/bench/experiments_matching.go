package bench

import (
	"context"
	"fmt"
	"math"

	"mpcgraph/internal/baseline"
	"mpcgraph/internal/graph"
	"mpcgraph/internal/matching"
	"mpcgraph/internal/mis"
	"mpcgraph/internal/mpc"
	"mpcgraph/internal/rng"
)

func init() {
	register(Experiment{ID: "E4", Title: "Central: iterations and quality (Lemma 4.1)", Run: runE4})
	register(Experiment{ID: "E5", Title: "MPC-Simulation phase count (Lemmas 4.5/4.8)", Run: runE5})
	register(Experiment{ID: "E6", Title: "Integral (2+eps) matching & cover quality (Theorem 1.2)", Run: runE6})
	register(Experiment{ID: "E7", Title: "Per-machine induced subgraph size (Lemma 4.7)", Run: runE7})
	register(Experiment{ID: "E8", Title: "Randomized rounding yield (Lemma 5.1)", Run: runE8})
	register(Experiment{ID: "E9", Title: "(1+eps) matching via boosting (Corollary 1.3)", Run: runE9})
	register(Experiment{ID: "E10", Title: "(2+eps) weighted matching (Corollary 1.4)", Run: runE10})
	register(Experiment{ID: "E12", Title: "Random-threshold coupling deviation (Section 4.4.3)", Run: runE12})
	register(Experiment{ID: "E13", Title: "Round complexity vs O(log n) baselines at S=Θ(n)", Run: runE13})
}

func runE4(cfg Config) *Table {
	t := &Table{
		ID:      "E4",
		Title:   "Central algorithm",
		Claim:   "Lemma 4.1: Central ends in O(log n/eps) iterations; the frozen set is a (2+5eps)-approx vertex cover and X a (2+5eps)-approx fractional matching.",
		Columns: []string{"n", "eps", "iterations", "log_{1/(1-eps)} n", "coverRatio", "bound 2+5eps", "fracRatio", "feasible"},
		Notes:   "bipartite instances; optima from Hopcroft–Karp / Kőnig. coverRatio = |C|/|C*|, fracRatio = |M*|/W.",
	}
	sizes := []int{1 << 9, 1 << 11}
	if cfg.Quick {
		sizes = []int{1 << 8}
	}
	for _, half := range sizes {
		for _, eps := range []float64{0.1, 0.05} {
			seed := rng.Hash(cfg.Seed, 4, uint64(half), math.Float64bits(eps))
			bg := graph.RandomBipartite(half, half, 8/float64(half), rng.New(seed))
			res := matching.Central(bg.Graph, eps)
			opt := baseline.HopcroftKarp(bg).Size()
			coverRatio, fracRatio := math.NaN(), math.NaN()
			if opt > 0 {
				coverRatio = float64(res.CoverSize()) / float64(opt)
				fracRatio = float64(opt) / res.Weight()
			}
			feasible := "yes"
			for _, y := range res.Y {
				if y > 1+1e-9 {
					feasible = "NO"
				}
			}
			t.Rows = append(t.Rows, []string{
				fi(2 * half), f2(eps), fi(res.Iterations),
				f1(math.Log(float64(2*half)) / (-math.Log1p(-eps))),
				f3(coverRatio), f2(2 + 5*eps), f3(fracRatio), feasible,
			})
		}
	}
	return t
}

func runE5(cfg Config) *Table {
	t := &Table{
		ID:      "E5",
		Title:   "MPC-Simulation phases",
		Claim:   "Lemma 4.8: O(log log n) phases; Lemma 4.5: O(log log n) rounds total with O(n) memory.",
		Columns: []string{"n", "loglog n", "phases", "directIters", "rounds", "rounds/loglog n", "violations"},
	}
	sizes := []int{1 << 10, 1 << 12, 1 << 14, 1 << 16}
	if cfg.Quick {
		sizes = []int{1 << 10, 1 << 12}
	}
	for _, n := range sizes {
		var phases, direct, rounds []float64
		viol := 0
		for trial := 0; trial < cfg.Trials; trial++ {
			seed := rng.Hash(cfg.Seed, 5, uint64(n), uint64(trial))
			g := graph.GNP(n, 16/float64(n), rng.New(seed))
			res, err := matching.Simulate(g, matching.SimOptions{Seed: seed, Eps: 0.1, Workers: cfg.Workers})
			if err != nil {
				continue
			}
			phases = append(phases, float64(res.Phases))
			direct = append(direct, float64(res.DirectIterations))
			rounds = append(rounds, float64(res.Rounds))
			viol += res.Violations
		}
		ll := loglog(n)
		t.Rows = append(t.Rows, []string{
			fi(n), f2(ll), f1(mean(phases)), f1(mean(direct)),
			f1(mean(rounds)), f1(mean(rounds) / ll), fi(viol),
		})
	}
	return t
}

func runE6(cfg Config) *Table {
	t := &Table{
		ID:      "E6",
		Title:   "Integral matching and vertex cover quality",
		Claim:   "Theorem 1.2: (2+eps)-approximate integral maximum matching and minimum vertex cover.",
		Columns: []string{"family", "eps", "|M*|", "|M|", "M-ratio", "|C*|", "|C|", "C-ratio", "bound"},
		Notes:   "matching optima from Edmonds/Hopcroft–Karp; exact |C*| is only computable on bipartite inputs (Kőnig), so C-ratio shows '-' elsewhere.",
	}
	type fam struct {
		name string
		g    *graph.Graph
		bg   *graph.Bipartite
	}
	mk := func(seed uint64) []fam {
		src := rng.New(seed)
		bg := graph.RandomBipartite(150, 150, 0.03, src)
		return []fam{
			{name: "gnp", g: graph.GNP(300, 0.03, src)},
			{name: "bipartite", g: bg.Graph, bg: bg},
			{name: "ring", g: graph.Ring(301)},
			{name: "powerlaw", g: graph.PreferentialAttachment(300, 3, src)},
		}
	}
	for _, eps := range []float64{0.5, 0.1} {
		for _, f := range mk(rng.Hash(cfg.Seed, 6, math.Float64bits(eps))) {
			res, err := matching.ApproxMaxMatching(f.g, matching.PipelineOptions{
				Seed: rng.Hash(cfg.Seed, 60, math.Float64bits(eps)), Eps: eps, Workers: cfg.Workers,
			})
			if err != nil {
				continue
			}
			mOpt := baseline.MaxMatchingGeneral(f.g).Size()
			mRatio := math.NaN()
			if res.M.Size() > 0 {
				mRatio = float64(mOpt) / float64(res.M.Size())
			}
			cover, err := matching.ApproxMinVertexCover(f.g, matching.PipelineOptions{
				Seed: rng.Hash(cfg.Seed, 61, math.Float64bits(eps)), Eps: eps, Workers: cfg.Workers,
			})
			if err != nil {
				continue
			}
			cSize := cover.Frac.CoverSize()
			cOptStr, cRatioStr := "-", "-"
			if f.bg != nil {
				cOpt := baseline.HopcroftKarp(f.bg).Size()
				cOptStr = fi(cOpt)
				if cOpt > 0 {
					cRatioStr = f3(float64(cSize) / float64(cOpt))
				}
			}
			t.Rows = append(t.Rows, []string{
				f.name, f2(eps), fi(mOpt), fi(res.M.Size()), f3(mRatio),
				cOptStr, fi(cSize), cRatioStr, f2(2 + eps),
			})
		}
	}
	return t
}

func runE7(cfg Config) *Table {
	t := &Table{
		ID:      "E7",
		Title:   "Per-machine induced subgraph size",
		Claim:   "Lemma 4.7: every G'[V_i] processed on one machine has O(n) edges w.h.p.",
		Columns: []string{"n", "phases", "max|G'[Vi]| words", "max/n", "violations"},
	}
	sizes := []int{1 << 12, 1 << 14, 1 << 16}
	if cfg.Quick {
		sizes = []int{1 << 11}
	}
	for _, n := range sizes {
		seed := rng.Hash(cfg.Seed, 7, uint64(n))
		g := graph.GNP(n, 24/float64(n), rng.New(seed))
		res, err := matching.Simulate(g, matching.SimOptions{Seed: seed, Eps: 0.1, Strict: true, Workers: cfg.Workers})
		if err != nil {
			t.Rows = append(t.Rows, []string{fi(n), "-", "-", "-", "AUDIT-FAIL"})
			continue
		}
		var worst int64
		for _, ps := range res.PhaseStats {
			if ps.MaxInducedWords > worst {
				worst = ps.MaxInducedWords
			}
		}
		t.Rows = append(t.Rows, []string{
			fi(n), fi(res.Phases), fi(int(worst)),
			f3(float64(worst) / float64(n)), fi(res.Violations),
		})
	}
	return t
}

func runE8(cfg Config) *Table {
	t := &Table{
		ID:      "E8",
		Title:   "Randomized rounding yield",
		Claim:   "Lemma 5.1: rounding returns a matching of size >= |C̃|/50 with probability >= 1-2exp(-|C̃|/5000).",
		Columns: []string{"n", "|C̃|", "trials", "mean|M|", "min|M|", "|C̃|/50", "mean 50|M|/|C̃|", "failures"},
		Notes:   "failures counts trials below the |C̃|/50 floor; the paper's constant 50 is loose — the realized yield ratio shows the slack.",
	}
	n := 1 << 13
	if cfg.Quick {
		n = 1 << 11
	}
	seed := rng.Hash(cfg.Seed, 8)
	g := graph.GNP(n, 16/float64(n), rng.New(seed))
	res, err := matching.Simulate(g, matching.SimOptions{Seed: seed, Eps: 0.1, Workers: cfg.Workers})
	if err != nil {
		t.Notes = "simulation failed: " + err.Error()
		return t
	}
	candidate := matching.CandidateSet(res.Frac, 5*0.1)
	cSize := graph.CountMarked(candidate)
	trials := 10 * cfg.Trials
	var sizes []float64
	failures := 0
	minSize := math.Inf(1)
	for i := 0; i < trials; i++ {
		m := matching.RoundFractional(res.Frac, candidate, rng.New(rng.Hash(seed, uint64(i))))
		s := float64(m.Size())
		sizes = append(sizes, s)
		if s < minSize {
			minSize = s
		}
		if s < float64(cSize)/50 {
			failures++
		}
	}
	t.Rows = append(t.Rows, []string{
		fi(n), fi(cSize), fi(trials), f1(mean(sizes)), f1(minSize),
		f1(float64(cSize) / 50), f2(50 * mean(sizes) / math.Max(float64(cSize), 1)), fi(failures),
	})
	return t
}

func runE9(cfg Config) *Table {
	t := &Table{
		ID:      "E9",
		Title:   "(1+eps) matching via short-augmenting-path boosting",
		Claim:   "Corollary 1.3: (1+eps)-approximate matching in O(log log n)·(1/eps)^O(1/eps) rounds.",
		Columns: []string{"graph", "eps", "|M*|", "base|M|", "baseRatio", "boosted|M|", "boostRatio", "1+eps", "passes"},
		Notes:   "boosting is exact on bipartite inputs; on general graphs blossoms can hide augmenting paths (substitution documented in the OnePlusEpsMatching doc comment).",
	}
	half := 256
	if cfg.Quick {
		half = 96
	}
	for _, eps := range []float64{0.5, 0.2, 0.1} {
		seed := rng.Hash(cfg.Seed, 9, math.Float64bits(eps))
		bg := graph.RandomBipartite(half, half, 8/float64(half), rng.New(seed))
		rows := runBoostCase(t, "bipartite", bg.Graph, eps, seed, cfg.Workers, func() int {
			return baseline.HopcroftKarp(bg).Size()
		})
		t.Rows = append(t.Rows, rows)
		gg := graph.GNP(half, 8/float64(half), rng.New(seed+1))
		rows = runBoostCase(t, "general", gg, eps, seed+1, cfg.Workers, func() int {
			return baseline.MaxMatchingGeneral(gg).Size()
		})
		t.Rows = append(t.Rows, rows)
	}
	return t
}

func runBoostCase(t *Table, name string, g *graph.Graph, eps float64, seed uint64, workers int, opt func() int) []string {
	base, err := matching.ApproxMaxMatching(g, matching.PipelineOptions{Seed: seed, Eps: eps, Workers: workers})
	if err != nil {
		return []string{name, f2(eps), "-", "-", "-", "-", "-", "-", "-"}
	}
	boost, err := matching.BoostToOnePlusEps(context.Background(), g, base.M, eps)
	if err != nil {
		return []string{name, f2(eps), "-", "-", "-", "-", "-", "-", "-"}
	}
	mOpt := opt()
	ratio := func(sz int) string {
		if sz == 0 {
			return "-"
		}
		return f3(float64(mOpt) / float64(sz))
	}
	return []string{
		name, f2(eps), fi(mOpt), fi(base.M.Size()), ratio(base.M.Size()),
		fi(boost.M.Size()), ratio(boost.M.Size()), f2(1 + eps), fi(boost.Passes),
	}
}

func runE10(cfg Config) *Table {
	t := &Table{
		ID:      "E10",
		Title:   "(2+eps) weighted matching",
		Claim:   "Corollary 1.4: (2+eps)-approximate maximum weighted matching in O(log log n · 1/eps) rounds.",
		Columns: []string{"n", "weights", "eps", "w(M*)", "w(ours)", "ratio", "bound", "w(greedy)"},
		Notes:   "exact w(M*) by brute force on the small instances (ratio = w(M*)/w(ours)); on the large instances no exact optimum is feasible, so ratio shows w(greedy)/w(ours) against the classical 2-approximate heavy-first greedy.",
	}
	// Small instance vs brute force.
	for _, eps := range []float64{0.2, 0.05} {
		seed := rng.Hash(cfg.Seed, 10, math.Float64bits(eps))
		src := rng.New(seed)
		g := graph.GNP(14, 0.4, src)
		wg := graph.RandomWeights(g, 1, 100, src)
		ours := matching.ApproxMaxWeightedMatching(wg, eps, seed)
		opt := baseline.BruteForceMaxWeightMatching(wg)
		greedy := matching.GreedyWeightedMatching(wg)
		ratio := math.NaN()
		if ours.Value > 0 {
			ratio = opt / ours.Value
		}
		t.Rows = append(t.Rows, []string{
			"14", "U[1,100)", f2(eps), f1(opt), f1(ours.Value), f3(ratio), f2(2 + eps), f1(greedy.Value),
		})
	}
	// Larger instance vs greedy reference, with the metered MPC variant
	// supplying audited rounds (the corollary's O(log log n · 1/eps)
	// claim realized through maximal-matching invocations).
	n := 400
	if cfg.Quick {
		n = 150
	}
	for _, spread := range []float64{10, 1000} {
		seed := rng.Hash(cfg.Seed, 101, math.Float64bits(spread))
		src := rng.New(seed)
		g := graph.GNP(n, 8/float64(n), src)
		wg := graph.RandomWeights(g, 1, spread, src)
		ours, err := matching.ApproxMaxWeightedMatchingMPC(wg, matching.WeightedMPCOptions{
			Eps: 0.1, Seed: seed, MemoryFactor: 16,
		})
		if err != nil {
			continue
		}
		greedy := matching.GreedyWeightedMatching(wg)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d (rounds=%d, invocations=%d)", n, ours.Rounds, ours.Improvements),
			fmt.Sprintf("U[1,%g)", spread), f2(0.1), "-", f1(ours.Value),
			f3(greedy.Value / math.Max(ours.Value, 1e-9)), f2(2.1), f1(greedy.Value),
		})
	}
	return t
}

func runE12(cfg Config) *Table {
	t := &Table{
		ID:      "E12",
		Title:   "Coupling deviation and bad vertices",
		Claim:   "Lemmas 4.11–4.15: with random thresholds, |y-ỹ| stays ~m^{-0.1} and bad vertices are rare; Section 4.2 warns fixed thresholds lose this guarantee.",
		Columns: []string{"n", "deg", "phases", "max|y-ỹ|", "maxDiff", "m^-0.1(first phase)", "bad%(random T)", "bad%(fixed T)"},
		Notes:   "dense instances (deg ≈ n/4) so that freezing decisions fall inside the partitioned phases, where the estimate ỹ actually differs from y; on sparse inputs all freezing happens in the exact direct stage and both columns are trivially zero. The fixed-threshold arm shows comparable AVERAGE-case badness — the pathology of Section 4.2 is worst-case correlated cascading, which random G(n,p) does not trigger; the random thresholds make the bound unconditional (Lemma 4.11).",
	}
	sizes := []int{1 << 10, 1 << 12}
	if cfg.Quick {
		sizes = []int{1 << 9}
	}
	for _, n := range sizes {
		seed := rng.Hash(cfg.Seed, 12, uint64(n))
		g := graph.GNP(n, 0.25, rng.New(seed))
		probe := &matching.DeviationProbe{}
		res, err := matching.Simulate(g, matching.SimOptions{Seed: seed, Eps: 0.1, Probe: probe, Workers: cfg.Workers})
		if err != nil {
			continue
		}
		probeFixed := &matching.DeviationProbe{}
		_, err = matching.Simulate(g, matching.SimOptions{Seed: seed, Eps: 0.1, Probe: probeFixed, FixedThreshold: true, Workers: cfg.Workers})
		if err != nil {
			continue
		}
		badPct := func(p *matching.DeviationProbe) float64 {
			bad := 0
			for _, b := range p.PhaseBad {
				bad += b
			}
			if p.Compared == 0 {
				return 0
			}
			return 100 * float64(bad) / float64(p.Compared)
		}
		firstM := math.Sqrt(float64(n))
		t.Rows = append(t.Rows, []string{
			fi(n), f1(g.AvgDegree()), fi(res.Phases), f4(maxf(probe.PhaseMaxDev)),
			f4(maxf(probe.PhaseMaxDiff)),
			f4(math.Pow(firstM, -0.1)), f3(badPct(probe)), f3(badPct(probeFixed)),
		})
	}
	return t
}

func runE13(cfg Config) *Table {
	t := &Table{
		ID:      "E13",
		Title:   "Round complexity vs O(log n) baselines at S = Θ(n)",
		Claim:   "Section 1.2: at S=Θ(n), [LMSV11] filtering and [II86] need Θ(log n) rounds; the paper's algorithms need O(log log n).",
		Columns: []string{"n", "MIS rounds(ours)", "Luby rounds", "match rounds(ours)", "filtering rounds", "IsraeliItai rounds"},
		Notes:   "all columns are audited MPC rounds under the same simulator (Luby and Israeli–Itai run metered, two rounds per iteration). The paper's advantage is the SCALING: ours stays flat in n while the baselines grow with log n; absolute matching rounds carry the Θ(1/ε) constant of the direct stage (ε=0.1 here). Workload: expected degree √n, so filtering at S=2n pays ~log2(√n) halvings.",
	}
	sizes := []int{1 << 10, 1 << 12, 1 << 14}
	if cfg.Quick {
		sizes = []int{1 << 10}
	}
	for _, n := range sizes {
		var oursMIS, luby, oursMatch, filt, ii []float64
		for trial := 0; trial < cfg.Trials; trial++ {
			seed := rng.Hash(cfg.Seed, 13, uint64(n), uint64(trial))
			g := sqrtDegGNP(n, rng.New(seed))
			if r, err := mis.RandGreedyMPC(g, mis.Options{Seed: seed, Workers: cfg.Workers}); err == nil {
				oursMIS = append(oursMIS, float64(r.Rounds))
			}
			if c, err := mpc.NewCluster(mpc.Config{Machines: int(math.Sqrt(float64(n))) + 1, CapacityWords: int64(16 * n)}); err == nil {
				if r, err := baseline.LubyMISOnCluster(g, rng.New(seed+1), c); err == nil {
					luby = append(luby, float64(r.Rounds))
				}
			}
			if res, err := matching.Simulate(g, matching.SimOptions{Seed: seed, Eps: 0.1, Workers: cfg.Workers}); err == nil {
				oursMatch = append(oursMatch, float64(res.Rounds))
			}
			filt = append(filt, float64(matching.FilteringMaximalMatching(g, int64(2*n), rng.New(seed+2)).Rounds))
			if c, err := mpc.NewCluster(mpc.Config{Machines: int(math.Sqrt(float64(n))) + 1, CapacityWords: int64(16 * n)}); err == nil {
				if r, err := baseline.IsraeliItaiOnCluster(g, rng.New(seed+3), c); err == nil {
					ii = append(ii, float64(r.Rounds))
				}
			}
		}
		t.Rows = append(t.Rows, []string{
			fi(n), f1(mean(oursMIS)), f1(mean(luby)), f1(mean(oursMatch)), f1(mean(filt)), f1(mean(ii)),
		})
	}
	return t
}
