package mpcgraph

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"mpcgraph/internal/registry"
)

// The golden parity suite pins the audited Report of every registered
// (Problem, Model) pair, for fixed (scenario, seed, Workers), to the
// exact costs produced before the internal/machine substrate refactor.
// Any change to round counting, load auditing, volume accounting, stage
// attribution or the algorithm trajectory itself shows up as a diff
// against testdata/golden_reports.json.
//
// Regenerate (only when a cost change is intended and documented) with:
//
//	go test -run TestReportGoldens -update-goldens .
var updateGoldens = flag.Bool("update-goldens", false, "rewrite testdata/golden_reports.json from the current implementation")

const goldenPath = "testdata/golden_reports.json"

// goldenStage mirrors model.StageCost for the JSON pin.
type goldenStage struct {
	Name   string `json:"name"`
	Rounds int    `json:"rounds"`
	Words  int64  `json:"words"`
}

// goldenReport is the pinned shape: every audited cost plus a
// fingerprint of the solution payload, so both the meter and the
// algorithm trajectory are pinned bit-for-bit.
type goldenReport struct {
	Case            string        `json:"case"`
	Rounds          int           `json:"rounds"`
	Phases          int           `json:"phases"`
	MaxMachineWords int64         `json:"maxMachineWords"`
	TotalWords      int64         `json:"totalWords"`
	Violations      int           `json:"violations"`
	Stages          []goldenStage `json:"stages"`
	SolutionHash    uint64        `json:"solutionHash"`
}

// goldenCase is one pinned run. The grid covers every registered pair
// on two scenarios, so both models of every problem are exercised on a
// sparse random graph and a skewed-degree graph.
type goldenCase struct {
	scenario string
	n        int
	seed     uint64
	problem  Problem
	model    Model
}

func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	var cases []goldenCase
	for _, scen := range []struct {
		name string
		n    int
	}{
		{"gnp", 600},
		{"preferential", 500},
	} {
		for _, alg := range Algorithms() {
			sc := scen.name
			if alg.Problem == ProblemWeightedMatching {
				// Weighted matching needs a weighted scenario.
				sc = "weighted-gnp"
			}
			cases = append(cases, goldenCase{
				scenario: sc,
				n:        scen.n,
				seed:     7,
				problem:  alg.Problem,
				model:    alg.Model,
			})
		}
	}
	return cases
}

func (c goldenCase) String() string {
	return fmt.Sprintf("%s-n%d-seed%d/%s/%s", c.scenario, c.n, c.seed, c.problem, c.model)
}

func runGoldenCase(t *testing.T, c goldenCase, workers int) *Report {
	t.Helper()
	in, err := GenerateScenario(c.scenario, c.n, c.seed, nil)
	if err != nil {
		t.Fatalf("%s: generate: %v", c, err)
	}
	rep, err := Solve(context.Background(), in, c.problem, Options{
		Seed:    c.seed,
		Model:   c.model,
		Workers: workers,
	})
	if err != nil {
		t.Fatalf("%s: solve: %v", c, err)
	}
	return rep
}

func toGolden(c goldenCase, rep *Report) goldenReport {
	g := goldenReport{
		Case:            c.String(),
		Rounds:          rep.Rounds,
		Phases:          rep.Phases,
		MaxMachineWords: rep.MaxMachineWords,
		TotalWords:      rep.TotalWords,
		Violations:      rep.Violations,
		SolutionHash:    registry.SolutionHash(rep),
	}
	for _, st := range rep.Stages {
		g.Stages = append(g.Stages, goldenStage{Name: st.Name, Rounds: st.Rounds, Words: st.Words})
	}
	return g
}

// TestReportGoldens asserts every registered pair still produces the
// pinned pre-refactor Report, at Workers=1 (the exact sequential path)
// and Workers=0 (full fan-out) — the determinism contract makes both
// identical, and the pin makes them identical across time too.
func TestReportGoldens(t *testing.T) {
	cases := goldenCases(t)

	if *updateGoldens {
		var out []goldenReport
		for _, c := range cases {
			out = append(out, toGolden(c, runGoldenCase(t, c, 1)))
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Case < out[j].Case })
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d goldens to %s", len(out), goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read goldens (run with -update-goldens to create): %v", err)
	}
	var pinned []goldenReport
	if err := json.Unmarshal(data, &pinned); err != nil {
		t.Fatal(err)
	}
	want := make(map[string]goldenReport, len(pinned))
	for _, g := range pinned {
		want[g.Case] = g
	}
	if len(want) != len(cases) {
		t.Errorf("golden file has %d cases, grid has %d (regenerate with -update-goldens)", len(want), len(cases))
	}
	for _, c := range cases {
		c := c
		t.Run(c.String(), func(t *testing.T) {
			g, ok := want[c.String()]
			if !ok {
				t.Fatalf("no golden for %s (regenerate with -update-goldens)", c)
			}
			for _, workers := range []int{1, 0} {
				got := toGolden(c, runGoldenCase(t, c, workers))
				got.Case = g.Case
				if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", g) {
					t.Errorf("workers=%d: report diverged from pre-refactor golden\n got: %+v\nwant: %+v", workers, got, g)
				}
			}
		})
	}
}
