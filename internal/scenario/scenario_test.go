package scenario

import (
	"strings"
	"testing"
)

// TestCatalogMaterializesEverywhere: every catalog entry generates at a
// small size, matches its Weighted declaration, and is deterministic in
// the seed.
func TestCatalogMaterializesEverywhere(t *testing.T) {
	if len(Names()) < 10 {
		t.Fatalf("catalog unexpectedly small: %v", Names())
	}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			s, ok := Lookup(name)
			if !ok {
				t.Fatal("listed scenario not found")
			}
			if s.DefaultN <= 0 {
				t.Errorf("DefaultN = %d", s.DefaultN)
			}
			if s.Doc == "" {
				t.Error("missing Doc")
			}
			in, err := Generate(name, 200, 5, nil)
			if err != nil {
				t.Fatal(err)
			}
			if in.G == nil {
				t.Fatal("nil graph")
			}
			if (in.WG != nil) != s.Weighted {
				t.Errorf("weighted mismatch: WG=%v, declared %v", in.WG != nil, s.Weighted)
			}
			if in.G.NumVertices() == 0 {
				t.Error("empty instance at n=200")
			}
			// Deterministic in the seed, sensitive to it for randomized
			// recipes (structured recipes like grid/ring legitimately
			// ignore the seed).
			again, err := Generate(name, 200, 5, nil)
			if err != nil {
				t.Fatal(err)
			}
			if in.G.NumEdges() != again.G.NumEdges() {
				t.Errorf("same seed produced different edge counts: %d vs %d", in.G.NumEdges(), again.G.NumEdges())
			}
			same := true
			in.G.ForEachEdge(func(u, v int32) {
				if !again.G.HasEdge(u, v) {
					same = false
				}
			})
			if !same {
				t.Error("same seed produced a different edge set")
			}
			if in.WG != nil {
				in.G.ForEachEdge(func(u, v int32) {
					if in.WG.EdgeWeight(u, v) != again.WG.EdgeWeight(u, v) {
						t.Fatalf("same seed produced different weight on {%d,%d}", u, v)
					}
					if in.WG.EdgeWeight(u, v) <= 0 {
						t.Fatalf("non-positive weight on {%d,%d}", u, v)
					}
				})
			}
		})
	}
}

// TestGenerateDefaults: n <= 0 selects the recipe default size.
func TestGenerateDefaults(t *testing.T) {
	s, _ := Lookup("complete")
	in, err := Generate("complete", 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if in.G.NumVertices() != s.DefaultN {
		t.Errorf("n = %d, want default %d", in.G.NumVertices(), s.DefaultN)
	}
}

// TestGenerateParamOverride: documented keys apply; the override must
// change the instance.
func TestGenerateParamOverride(t *testing.T) {
	dense, err := Generate("gnm", 100, 1, map[string]float64{"density": 8})
	if err != nil {
		t.Fatal(err)
	}
	if dense.G.NumEdges() != 800 {
		t.Errorf("density override ignored: m = %d", dense.G.NumEdges())
	}
	cliques, err := Generate("ring-of-cliques", 120, 1, map[string]float64{"clique": 6})
	if err != nil {
		t.Fatal(err)
	}
	if cliques.G.MaxDegree() != 6 {
		t.Errorf("clique override ignored: maxdeg = %d", cliques.G.MaxDegree())
	}
	// p = 0 is the legitimate empty graph (what mpcgraph.RandomGraph
	// returns for p = 0), not "use the avg-deg default".
	empty, err := Generate("gnp", 100, 1, map[string]float64{"p": 0})
	if err != nil {
		t.Fatal(err)
	}
	if empty.G.NumEdges() != 0 {
		t.Errorf("gnp p=0 produced %d edges", empty.G.NumEdges())
	}
	full, err := Generate("gnp", 40, 1, map[string]float64{"p": 1})
	if err != nil {
		t.Fatal(err)
	}
	if full.G.NumEdges() != 40*39/2 {
		t.Errorf("gnp p=1 produced %d edges, want complete graph", full.G.NumEdges())
	}
}

// TestScenarioSizeClamps: oversized shape parameters must clamp to the
// requested n instead of inflating (or hanging) the instance.
func TestScenarioSizeClamps(t *testing.T) {
	big, err := Generate("ring-of-cliques", 10, 1, map[string]float64{"clique": 1e8})
	if err != nil {
		t.Fatal(err)
	}
	if big.G.NumVertices() > 10 {
		t.Errorf("ring-of-cliques clique=1e8 produced n=%d for requested 10", big.G.NumVertices())
	}
	tall, err := Generate("grid", 100, 1, map[string]float64{"aspect": 1e10})
	if err != nil {
		t.Fatal(err)
	}
	if tall.G.NumVertices() > 100 {
		t.Errorf("grid aspect=1e10 produced n=%d for requested 100", tall.G.NumVertices())
	}
}

// TestGenerateErrors: unknown scenarios, unknown keys and invalid values
// report errors naming the offender.
func TestGenerateErrors(t *testing.T) {
	if _, err := Generate("no-such-scenario", 100, 1, nil); err == nil || !strings.Contains(err.Error(), "no-such-scenario") {
		t.Errorf("unknown scenario: %v", err)
	}
	if _, err := Generate("gnp", 100, 1, map[string]float64{"zzz": 1}); err == nil || !strings.Contains(err.Error(), "zzz") {
		t.Errorf("unknown key: %v", err)
	}
	if _, err := Generate("ring", 100, 1, map[string]float64{"zzz": 1}); err == nil || !strings.Contains(err.Error(), "no parameters") {
		t.Errorf("param on parameterless scenario: %v", err)
	}
	cases := []struct {
		name   string
		params map[string]float64
	}{
		{"gnp", map[string]float64{"p": 1.5}},
		{"rmat", map[string]float64{"a": 0.9, "b": 0.9}},
		{"regular", map[string]float64{"d": 2.5}},
		{"regular", map[string]float64{"d": 500}},
		{"high-girth", map[string]float64{"girth": 2}},
		{"bipartite", map[string]float64{"left-frac": 1.5}},
		{"weighted-gnp", map[string]float64{"w-lo": -1}},
	}
	for _, tc := range cases {
		if _, err := Generate(tc.name, 100, 1, tc.params); err == nil {
			t.Errorf("%s with %v accepted", tc.name, tc.params)
		}
	}
}

// TestRegularOddProduct: the parity constraint errors instead of
// panicking.
func TestRegularOddProduct(t *testing.T) {
	if _, err := Generate("regular", 101, 1, map[string]float64{"d": 3}); err == nil {
		t.Error("odd n·d accepted")
	}
}
