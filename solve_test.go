package mpcgraph

import (
	"context"
	"errors"
	"testing"
)

// TestSolveCancellation asserts the cancellable-runs acceptance
// criterion: cancelling mid-run surfaces context.Canceled promptly (the
// simulators check the context at every metered round).
func TestSolveCancellation(t *testing.T) {
	g := RandomGraph(4000, 0.01, 7)
	for _, p := range []Problem{ProblemMIS, ProblemApproxMatching} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			rounds := 0
			_, err := Solve(ctx, g, p, Options{Seed: 8, Trace: func(ev TraceEvent) {
				rounds++
				if rounds == 2 {
					cancel() // mid-run: the next round check must abort
				}
			}})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
		})
	}

	t.Run("pre-cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := Solve(ctx, g, ProblemVertexCover, Options{Seed: 9}); !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	})
}

// TestSolveTrace asserts the observability contract: rounds are
// non-decreasing, the last event matches the report's round total, and
// the event volumes sum to the report's total words.
func TestSolveTrace(t *testing.T) {
	g := RandomGraph(600, 0.02, 10)
	var events []TraceEvent
	rep, err := Solve(context.Background(), g, ProblemMIS, Options{Seed: 11, Trace: func(ev TraceEvent) {
		events = append(events, ev)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no trace events")
	}
	var words int64
	sawActive := false
	for i, ev := range events {
		if i > 0 && ev.Round < events[i-1].Round {
			t.Fatal("trace rounds decreased")
		}
		if ev.ActiveVertices > 0 {
			sawActive = true
		}
		words += ev.LiveWords
	}
	if last := events[len(events)-1].Round; last != rep.Rounds {
		t.Errorf("last traced round %d != report rounds %d", last, rep.Rounds)
	}
	if words != rep.TotalWords {
		t.Errorf("traced words %d != report total %d", words, rep.TotalWords)
	}
	if !sawActive {
		t.Error("no trace event carried an active-vertex gauge")
	}
}

func TestSolveDispatchErrors(t *testing.T) {
	g := RandomGraph(50, 0.1, 12)
	if _, err := Solve(context.Background(), g, ProblemWeightedMatching, Options{Seed: 1}); !errors.Is(err, ErrNeedWeightedGraph) {
		t.Errorf("want ErrNeedWeightedGraph, got %v", err)
	}
	wg := RandomWeightedGraph(50, 0.1, 1, 2, 13)
	opts := Options{Seed: 1, Model: ModelCongestedClique}
	if _, err := Solve(context.Background(), wg, ProblemWeightedMatching, opts); !errors.Is(err, ErrUnsupported) {
		t.Errorf("want ErrUnsupported, got %v", err)
	}
	// A weighted instance is a valid input for unweighted problems.
	rep, err := Solve(context.Background(), wg, ProblemMIS, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !IsMaximalIndependentSet(wg.Graph, rep.InMIS) {
		t.Error("MIS on weighted instance invalid")
	}
}

func TestSolveAlgorithmsEnumeration(t *testing.T) {
	algos := Algorithms()
	if len(algos) == 0 {
		t.Fatal("no registered algorithms")
	}
	seen := map[Problem]bool{}
	for _, a := range algos {
		seen[a.Problem] = true
	}
	for _, p := range []Problem{ProblemMIS, ProblemMaximalMatching, ProblemApproxMatching,
		ProblemOnePlusEpsMatching, ProblemVertexCover, ProblemWeightedMatching} {
		if !seen[p] {
			t.Errorf("problem %s missing from Algorithms()", p)
		}
	}
}

func TestSolveMaximalMatching(t *testing.T) {
	g := RandomGraph(500, 0.02, 14)
	for _, m := range []Model{ModelMPC, ModelCongestedClique} {
		rep, err := Solve(context.Background(), g, ProblemMaximalMatching, Options{Seed: 15, Model: m})
		if err != nil {
			t.Fatal(err)
		}
		if !IsMaximalMatching(g, rep.M) {
			t.Errorf("model %s: not a maximal matching", m)
		}
		if rep.Rounds == 0 || rep.TotalWords == 0 {
			t.Errorf("model %s: costs not audited: rounds %d, total words %d", m, rep.Rounds, rep.TotalWords)
		}
	}
}
