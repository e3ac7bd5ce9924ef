package bench

import (
	"context"
	"fmt"

	"mpcgraph/internal/graph"
	reg "mpcgraph/internal/registry"
	"mpcgraph/internal/rng"
)

// RegistryExperimentID is the id of the registry sweep: the one
// experiment that is generated from the algorithm registry instead of a
// hard-coded list, so a newly registered (Problem, Model) pair appears
// in the tables, the JSON output and the CLI without touching this
// package.
const RegistryExperimentID = "E18"

func init() {
	register(Experiment{
		ID:    RegistryExperimentID,
		Title: "Unified Solve registry sweep (all problems x models)",
		Run:   runRegistrySweep,
	})
}

// registryInstance builds the deterministic benchmark instance for one
// registered pair. Every pair runs the same G(n, 8/n) skeleton (with
// uniform weights for weighted problems) so rows are comparable.
func registryInstance(cfg Config, pair reg.Pair) (int, reg.Input) {
	n := 1 << 12
	if cfg.Quick {
		n = 1 << 10
	}
	seed := rng.Hash(cfg.Seed, 18, uint64(pair.Problem), uint64(pair.Model))
	src := rng.New(seed)
	g := graph.GNP(n, 8/float64(n), src)
	in := reg.Input{G: g}
	if pair.Problem == reg.WeightedMatching {
		in.WG = graph.RandomWeights(g, 1, 100, src)
	}
	return n, in
}

// registryRowOutput renders the problem-specific payload: set size,
// matching size or matched weight.
func registryRowOutput(rep *reg.Report) string {
	switch rep.Problem {
	case reg.MIS:
		return fi(graph.CountMarked(rep.InMIS))
	case reg.VertexCover:
		return fi(graph.CountMarked(rep.InCover))
	case reg.WeightedMatching:
		return f1(rep.Value)
	default: // the matching family
		return fi(rep.M.Size())
	}
}

func runRegistrySweep(cfg Config) *Table {
	t := &Table{
		ID:      RegistryExperimentID,
		Title:   "Unified Solve registry sweep",
		Claim:   "The paper's uniform claim: every (Problem, Model) pair the registry defines runs under one metered Solve pipeline with fully audited costs.",
		Columns: []string{"algorithm", "n", "edges", "output", "phases", "rounds", "maxWords", "totalWords", "violations", "valid"},
		Notes:   "rows are generated by enumerating internal/registry — registering a new algorithm adds its row automatically. output is the set/matching size (weight for weighted-matching).",
	}
	for _, pair := range reg.Pairs() {
		n, in := registryInstance(cfg, pair)
		// Dispatched through cfg.solve() — the one experiment that runs
		// against a daemon under `mpcgraph bench -remote`. Its columns use
		// only Report fields that round-trip the wire bit-identically
		// (costs, violations, solution payloads; never Wall).
		rep, err := cfg.solve()(context.Background(), in, pair.Problem, pair.Model, reg.Options{
			Seed:    rng.Hash(cfg.Seed, 180, uint64(pair.Problem), uint64(pair.Model)),
			Eps:     0.1,
			Workers: cfg.Workers,
		})
		if err != nil {
			t.Rows = append(t.Rows, []string{pair.String(), fi(n), "-", "-", "-", "-", "-", "-", "-", "ERROR: " + err.Error()})
			continue
		}
		t.Rows = append(t.Rows, []string{
			pair.String(), fi(n), fi(in.G.NumEdges()), registryRowOutput(rep), fi(rep.Phases),
			fi(rep.Rounds), fmt.Sprintf("%d", rep.MaxMachineWords), fmt.Sprintf("%d", rep.TotalWords),
			fi(rep.Violations), fmt.Sprintf("%v", reg.Validate(in.G, rep) == nil),
		})
	}
	return t
}

// VerifyRegistryCoverage is the CI gate behind `mpcgraph bench -check`
// and the bench tests: it fails if any registered (Problem, Model) pair is
// missing from the registry sweep or produced an error/invalid row — a
// registered algorithm without a working benchmark entry is a wiring
// bug.
func VerifyRegistryCoverage(cfg Config) error {
	tab, err := Run(RegistryExperimentID, cfg)
	if err != nil {
		return err
	}
	seen := map[string][]string{}
	for _, row := range tab.Rows {
		seen[row[0]] = row
	}
	for _, pair := range reg.Pairs() {
		row, ok := seen[pair.String()]
		if !ok {
			return fmt.Errorf("bench: registered pair %s has no benchmark row", pair)
		}
		if valid := row[len(row)-1]; valid != "true" {
			return fmt.Errorf("bench: registered pair %s benchmark row is not valid: %q", pair, valid)
		}
	}
	return nil
}
