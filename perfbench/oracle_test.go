package main

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"mpcgraph"
	"mpcgraph/internal/service"
)

func solveSmall(t *testing.T, in mpcgraph.Instance, p mpcgraph.Problem) *mpcgraph.Report {
	t.Helper()
	rep, err := mpcgraph.Solve(context.Background(), in, p, mpcgraph.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// The negative control: the file-solve oracle accepts a report equal to
// its reference in everything but wall time, and catches any tampering
// with an audited cost, a stage or the solution size.
func TestCLIOracleCatchesTamperedReference(t *testing.T) {
	g := mpcgraph.RandomGraph(400, 10.0/400, 2)
	rep := solveSmall(t, g, mpcgraph.ProblemVertexCover)
	want := referenceCLIReport(g, rep)
	got := referenceCLIReport(g, rep)
	got.WallMs = 123.4
	if err := checkCLIReport(got, want); err != nil {
		t.Fatalf("identical reports differing only in wall time: %v", err)
	}
	for name, tamper := range map[string]func(*cliReport){
		"rounds":       func(r *cliReport) { r.Rounds++ },
		"total words":  func(r *cliReport) { r.TotalWords-- },
		"max load":     func(r *cliReport) { r.MaxMachineWords++ },
		"stage":        func(r *cliReport) { r.Stages[0].Words++ },
		"cover size":   func(r *cliReport) { *r.CoverSize++ },
		"dual bound":   func(r *cliReport) { *r.FractionalWeight += 1e-12 },
		"edge count":   func(r *cliReport) { r.M-- },
		"marked valid": func(r *cliReport) { r.Valid = false },
	} {
		bad := referenceCLIReport(g, rep)
		tamper(&bad)
		if err := checkCLIReport(got, bad); err == nil {
			t.Errorf("tampered reference (%s) was not caught", name)
		}
	}
}

func TestHitOracleCatchesTamperedReference(t *testing.T) {
	ref := &service.ReportView{Problem: "mis", Model: "mpc", N: 10, M: 20, SolutionHash: "00ff", Rounds: 3,
		TotalWords: 99, WallMs: 1, Stages: []service.StageView{{Name: "gather-all", Rounds: 3, Words: 99}}}
	hit := *ref
	hit.WallMs = 0.01
	if err := checkHit(&hit, ref); err != nil {
		t.Fatalf("a bit-identical hit was rejected: %v", err)
	}
	for name, tamper := range map[string]func(*service.ReportView){
		"solution hash": func(r *service.ReportView) { r.SolutionHash = "00fe" },
		"rounds":        func(r *service.ReportView) { r.Rounds = 4 },
		"stages":        func(r *service.ReportView) { r.Stages = nil },
	} {
		bad := *ref
		tamper(&bad)
		if err := checkHit(&hit, &bad); err == nil {
			t.Errorf("tampered cold-fill reference (%s) was not caught", name)
		}
	}
	if err := checkHit(nil, ref); err == nil {
		t.Error("a hit without a report was accepted")
	}
}

// renderSolution mirrors the daemon's GET /solution text.
func renderSolution(rep *mpcgraph.Report) string {
	var b strings.Builder
	set := rep.InMIS
	if rep.InCover != nil {
		set = rep.InCover
	}
	if set != nil {
		for v, in := range set {
			if in {
				fmt.Fprintln(&b, v)
			}
		}
		return b.String()
	}
	for _, e := range rep.M.Edges() {
		fmt.Fprintf(&b, "%d %d\n", e[0], e[1])
	}
	return b.String()
}

func TestSolutionOracle(t *testing.T) {
	g := mpcgraph.RandomGraph(300, 8.0/300, 4)
	wg := mpcgraph.RandomWeightedGraph(300, 8.0/300, 0.5, 4.5, 4)
	for _, tc := range []struct {
		p  mpcgraph.Problem
		in mpcgraph.Instance
	}{
		{mpcgraph.ProblemMIS, g},
		{mpcgraph.ProblemVertexCover, g},
		{mpcgraph.ProblemMaximalMatching, g},
		{mpcgraph.ProblemApproxMatching, g},
		{mpcgraph.ProblemWeightedMatching, wg},
	} {
		rep := solveSmall(t, tc.in, tc.p)
		view := reportViewOf(rep, tc.in)
		text := renderSolution(rep)
		if err := checkSolution(tc.p, tc.in, []byte(text), view); err != nil {
			t.Errorf("%s: valid solution rejected: %v", tc.p, err)
		}
		lines := strings.SplitAfter(text, "\n")
		dropped := strings.Join(lines[1:], "")
		if err := checkSolution(tc.p, tc.in, []byte(dropped), view); err == nil {
			t.Errorf("%s: solution with its first line dropped was accepted", tc.p)
		}
		if err := checkSolution(tc.p, tc.in, []byte(text+"x\n"), view); err == nil {
			t.Errorf("%s: malformed solution line accepted", tc.p)
		}
	}
}

// reportViewOf builds the size fields the daemon's report view carries.
func reportViewOf(rep *mpcgraph.Report, in mpcgraph.Instance) *service.ReportView {
	ref := referenceCLIReport(in, rep)
	return &service.ReportView{N: ref.N, M: ref.M, MISSize: ref.MISSize, CoverSize: ref.CoverSize,
		MatchingSize: ref.MatchingSize, Value: ref.Value}
}
