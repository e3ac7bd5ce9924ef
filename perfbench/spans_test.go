package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mpcgraph"
)

func TestStageFamily(t *testing.T) {
	for name, want := range map[string]string{
		"invocation-3": "invocation",
		"prefix@7710":  "prefix",
		"phase-12":     "phase",
		"gather-all":   "gather-all",
		"final-gather": "final-gather",
		"direct":       "direct",
	} {
		if got := stageFamily(name); got != want {
			t.Errorf("stageFamily(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestAttributeRounds(t *testing.T) {
	ms := time.Millisecond
	stages := []mpcgraph.StageCost{
		{Name: "setup", Rounds: 2},
		{Name: "empty", Rounds: 0}, // charges no round: owns no stamp
		{Name: "prefix@64", Rounds: 4},
		{Name: "prefix@8", Rounds: 1},
		{Name: "tail", Rounds: 0},
	}
	// One stamp per metered step; the step ending at round 6 covered
	// rounds 3..6 at once, and a stamp past the last stage is left over.
	stamps := []roundStamp{
		{Round: 1, At: 1 * ms},
		{Round: 2, At: 3 * ms},
		{Round: 6, At: 10 * ms},
		{Round: 7, At: 11 * ms},
		{Round: 9, At: 12 * ms},
	}
	slices, rest := attributeRounds(stages, stamps, 20*ms)
	want := []stageSlice{
		{Name: "setup", Family: "setup", Start: 0, End: 3 * ms, Busy: 3 * ms},
		{Name: "prefix@64", Family: "prefix", Start: 3 * ms, End: 10 * ms, Busy: 7 * ms},
		{Name: "prefix@8", Family: "prefix", Start: 10 * ms, End: 11 * ms, Busy: 1 * ms},
	}
	if len(slices) != len(want) {
		t.Fatalf("slices = %+v, want %+v", slices, want)
	}
	for i := range want {
		if slices[i] != want[i] {
			t.Errorf("slice %d = %+v, want %+v", i, slices[i], want[i])
		}
	}
	// 20ms of wall, 11ms attributed: the stray stamp's step and the time
	// after the last stamp are unmetered.
	if rest != 9*ms {
		t.Errorf("remainder = %v, want 9ms", rest)
	}
	fam := familyTimes(slices, rest)
	if fam["setup"] != 3*ms || fam["prefix"] != 8*ms || fam[unmetered] != 9*ms || len(fam) != 3 {
		t.Errorf("families = %v, want setup 3ms, prefix 8ms, unmetered 9ms", fam)
	}

	// A run with no stamps at all is entirely unmetered.
	slices, rest = attributeRounds(stages, nil, 5*ms)
	if len(slices) != 0 || rest != 5*ms {
		t.Errorf("no stamps: slices %v, remainder %v, want none and 5ms", slices, rest)
	}
}

func TestTracedSolveStampsEveryRound(t *testing.T) {
	g := mpcgraph.RandomGraph(512, 8.0/512, 3)
	rep, wall, stamps, err := tracedSolve(g, mpcgraph.ProblemApproxMatching, mpcgraph.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(stamps) == 0 || stamps[len(stamps)-1].Round != rep.Rounds {
		t.Fatalf("last stamp %v, want round %d", stamps[len(stamps)-1:], rep.Rounds)
	}
	slices, rest := attributeRounds(rep.Stages, stamps, wall)
	var sum time.Duration
	for _, s := range slices {
		sum += s.Busy
	}
	if sum+rest != wall || rest < 0 {
		t.Errorf("stage time %v + remainder %v != wall %v", sum, rest, wall)
	}
}

func TestSelfTimesAndSpanFile(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "a", Start: 1, End: 3},
		{ID: 3, Parent: 1, Name: "b", Start: 2, End: 5},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 8, End: 12}, // runs past op
		{ID: 5, Parent: 3, Name: "d", Start: 2, End: 4},
	}
	selfTimes(spans)
	for i, want := range []float64{10 - 4 - 2, 2, 1, 4, 2} {
		if spans[i].Self != want {
			t.Errorf("span %s self = %v, want %v", spans[i].Name, spans[i].Self, want)
		}
	}

	var nilTracer *tracer
	if id := nilTracer.add(1, 0, "x", time.Now(), time.Now()); id != 0 {
		t.Errorf("nil tracer returned id %d", id)
	}
	tr := newTracer()
	root := tr.reserve(7, 0, "op")
	t0 := tr.t0.Add(time.Millisecond)
	tr.add(7, root, "http.submit", t0, t0.Add(time.Millisecond))
	tr.fill(root, t0, t0.Add(3*time.Millisecond))
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := tr.writeSpans(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got []span
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Op != 7 || got[1].Parent != got[0].ID || got[0].Self != 2000 || got[1].Self != 1000 {
		t.Errorf("span file = %+v, want op root with 2000us self and one 1000us child", got)
	}
}
