package registry

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"mpcgraph/internal/graph"
	"mpcgraph/internal/model"
)

// solvedReports solves every registered pair once on testInput.
func solvedReports(t *testing.T) map[Pair]*Report {
	t.Helper()
	out := map[Pair]*Report{}
	for _, pair := range Pairs() {
		rep, err := Solve(context.Background(), testInput(t, pair.Problem == WeightedMatching), pair.Problem, pair.Model, Options{Seed: 4})
		if err != nil {
			t.Fatalf("%s: %v", pair, err)
		}
		out[pair] = rep
	}
	return out
}

func TestValidateAcceptsSolvedPayloads(t *testing.T) {
	g := testInput(t, false).G
	for pair, rep := range solvedReports(t) {
		if err := Validate(g, rep); err != nil {
			t.Errorf("%s: %v", pair, err)
		}
	}
}

// TestValidateRejectsTamperedPayloads breaks one solved payload of each
// kind the check must catch, and expects an error naming the pair.
func TestValidateRejectsTamperedPayloads(t *testing.T) {
	g := testInput(t, false).G
	reps := solvedReports(t)
	firstMarked := func(set []bool, want bool) int32 {
		for v, in := range set {
			if in == want {
				return int32(v)
			}
		}
		t.Fatal("no such vertex")
		return -1
	}
	firstPair := func(m graph.Matching) (int32, int32) {
		edges := m.Edges()
		if len(edges) == 0 {
			t.Fatal("empty matching")
		}
		return edges[0][0], edges[0][1]
	}
	cases := []struct {
		name   string
		pair   Pair
		tamper func(*Report)
	}{
		{"non-maximal MIS", Pair{MIS, model.MPC}, func(r *Report) {
			r.InMIS[firstMarked(r.InMIS, true)] = false
		}},
		{"dependent MIS", Pair{MIS, model.CongestedClique}, func(r *Report) {
			r.InMIS[firstMarked(r.InMIS, false)] = true
		}},
		{"uncovered edge", Pair{VertexCover, model.MPC}, func(r *Report) {
			u := int32(0)
			for g.Degree(u) == 0 {
				u++
			}
			r.InCover[u], r.InCover[g.Neighbors(u)[0]] = false, false
		}},
		{"mate-array inconsistency", Pair{ApproxMatching, model.MPC}, func(r *Report) {
			_, v := firstPair(r.M)
			r.M[v] = -1
		}},
		{"non-edge pair", Pair{WeightedMatching, model.MPC}, func(r *Report) {
			u, v := firstPair(r.M)
			r.M.Unmatch(u)
			for w := int32(0); w < int32(len(r.M)); w++ {
				if w != v && w != u && r.M[w] == -1 && !g.HasEdge(v, w) {
					r.M[v], r.M[w] = w, v
					return
				}
			}
			t.Fatal("no free vertex outside v's neighborhood")
		}},
		{"free edge in a maximal matching", Pair{MaximalMatching, model.CongestedClique}, func(r *Report) {
			u, _ := firstPair(r.M)
			r.M.Unmatch(u)
		}},
	}
	for _, tc := range cases {
		rep := reps[tc.pair]
		clone := *rep
		clone.InMIS = append([]bool(nil), rep.InMIS...)
		clone.InCover = append([]bool(nil), rep.InCover...)
		clone.M = rep.M.Clone()
		tc.tamper(&clone)
		err := Validate(g, &clone)
		if err == nil || !strings.Contains(err.Error(), tc.pair.String()) {
			t.Errorf("%s: Validate = %v, want an error naming %s", tc.name, err, tc.pair)
		}
	}
	if err := Validate(g, &Report{Problem: Problem(numProblems)}); err == nil {
		t.Error("a report of an unknown problem validated")
	}
}

func TestNewReportViewFields(t *testing.T) {
	for pair, rep := range solvedReports(t) {
		v := NewReportView(rep, 300, 1234)
		if v.Problem != pair.Problem.String() || v.Model != pair.Model.String() || v.N != 300 || v.M != 1234 {
			t.Errorf("%s: identity %s/%s n=%d m=%d", pair, v.Problem, v.Model, v.N, v.M)
		}
		if v.Valid || v.SolutionHash != "" {
			t.Errorf("%s: the view sets valid or solutionHash itself", pair)
		}
		if v.Rounds != rep.Rounds || v.TotalWords != rep.TotalWords || len(v.Stages) != len(rep.Stages) {
			t.Errorf("%s: costs %+v do not mirror the report", pair, v)
		}
		set := map[string]bool{
			"misSize":        v.MISSize != nil,
			"matchingSize":   v.MatchingSize != nil,
			"coverSize":      v.CoverSize != nil,
			"dualLowerBound": v.FractionalWeight != nil,
			"value":          v.Value != nil,
		}
		want := map[Problem][]string{
			MIS:                {"misSize"},
			MaximalMatching:    {"matchingSize"},
			ApproxMatching:     {"matchingSize"},
			OnePlusEpsMatching: {"matchingSize"},
			VertexCover:        {"coverSize", "dualLowerBound"},
			WeightedMatching:   {"matchingSize", "value"},
		}[pair.Problem]
		for _, f := range want {
			if !set[f] {
				t.Errorf("%s: %s not set", pair, f)
			}
			delete(set, f)
		}
		for f, on := range set {
			if on {
				t.Errorf("%s: %s set", pair, f)
			}
		}
		switch pair.Problem {
		case MIS:
			if *v.MISSize != graph.CountMarked(rep.InMIS) {
				t.Errorf("%s: misSize %d", pair, *v.MISSize)
			}
		case VertexCover:
			if *v.CoverSize != graph.CountMarked(rep.InCover) || *v.FractionalWeight != rep.FractionalWeight {
				t.Errorf("%s: coverSize %d dualLowerBound %v", pair, *v.CoverSize, *v.FractionalWeight)
			}
		case WeightedMatching:
			if *v.MatchingSize != rep.M.Size() || *v.Value != rep.Value {
				t.Errorf("%s: matchingSize %d value %v", pair, *v.MatchingSize, *v.Value)
			}
		default:
			if *v.MatchingSize != rep.M.Size() {
				t.Errorf("%s: matchingSize %d", pair, *v.MatchingSize)
			}
		}
	}
}

// TestSolutionRoundTrip: ParseSolution(RenderSolution(rep)) restores
// the payload and its SolutionHash for every registered pair.
func TestSolutionRoundTrip(t *testing.T) {
	n := testInput(t, false).G.NumVertices()
	for pair, rep := range solvedReports(t) {
		var text strings.Builder
		if err := RenderSolution(&text, rep); err != nil {
			t.Fatal(err)
		}
		back := &Report{Problem: pair.Problem, Model: pair.Model}
		if err := ParseSolution(back, text.String(), n); err != nil {
			t.Fatalf("%s: %v", pair, err)
		}
		if !reflect.DeepEqual(back.InMIS, rep.InMIS) || !reflect.DeepEqual(back.InCover, rep.InCover) || !reflect.DeepEqual(back.M, rep.M) {
			t.Errorf("%s: the parsed payload differs from the rendered one", pair)
		}
		if SolutionHash(back) != SolutionHash(rep) {
			t.Errorf("%s: solution hash %016x, rendered from %016x", pair, SolutionHash(back), SolutionHash(rep))
		}
	}
}

// TestParseSolutionRejectsMalformed: a malformed payload is an error,
// never a panic or a silently accepted solution.
func TestParseSolutionRejectsMalformed(t *testing.T) {
	for _, tc := range []struct {
		name    string
		problem Problem
		text    string
	}{
		{"id past n", MIS, "1\n5\n"},
		{"negative id", VertexCover, "-1\n"},
		{"non-integer", MIS, "1\nx\n"},
		{"repeated set id", VertexCover, "1\n3\n1\n"},
		{"pair id past n", MaximalMatching, "0 5\n"},
		{"non-integer pair", ApproxMatching, "0 1.5\n"},
		{"odd token count", MaximalMatching, "0 1\n2\n"},
		{"vertex in two pairs", WeightedMatching, "1 2\n2 3\n"},
		{"self-pair", OnePlusEpsMatching, "2 2\n"},
	} {
		rep := &Report{Problem: tc.problem}
		if err := ParseSolution(rep, tc.text, 5); err == nil {
			t.Errorf("%s: %q accepted as %v %v %v", tc.name, tc.text, rep.InMIS, rep.InCover, rep.M)
		}
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestRenderSolutionReportsWriteErrors(t *testing.T) {
	for pair, rep := range solvedReports(t) {
		if err := RenderSolution(failingWriter{}, rep); err == nil {
			t.Errorf("%s: write error dropped", pair)
		}
	}
}
