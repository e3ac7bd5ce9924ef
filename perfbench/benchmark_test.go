package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"
)

// benchmarkFile is the subset of ../BENCHMARK.json that must agree with
// what perfbench reports.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTheReportedMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, perfbench runs %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("end_to_end has %d metrics, perfbench reports %d", len(b.EndToEnd), len(endToEndDefs))
	}
	for i, m := range b.EndToEnd {
		d := endToEndDefs[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, perfbench has %+v", i, m, d)
		}
	}
	defs := layerDefs()
	if len(b.PerLayer) != len(defs) || len(defs) > 128 {
		t.Fatalf("per_layer has %d metrics, perfbench reports %d (limit 128)", len(b.PerLayer), len(defs))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for i, m := range b.PerLayer {
		d := defs[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, perfbench has %+v", i, m, d)
		}
		if !name.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("per_layer name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
	}
}

func TestResultLineCarriesExactlyTheDeclaredMetrics(t *testing.T) {
	o := &outcome{SetupRuns: []time.Duration{time.Second}, Lat: []float64{1, 2, 3}, Ops: 3, Attempted: 3,
		Wall: time.Second, CPU: time.Second, PeakRSSMiB: 10, TracedP50: 2.2}
	rc := &runCtx{}
	res := rc.result(o)
	if !res.Correct || len(res.Metrics) != len(endToEndDefs) {
		t.Errorf("untraced result = %+v, want correct with the %d end-to-end metrics", res, len(endToEndDefs))
	}
	rc = &runCtx{traced: true}
	rc.setLayer("solve.rounds.el", 1)
	res = rc.result(o)
	if len(res.Metrics) != len(layerDefs()) {
		t.Errorf("traced result has %d metrics, want every one of the %d per-layer metrics", len(res.Metrics), len(layerDefs()))
	}
	if got := res.Metrics["trace.overhead_pct"].Value; got < 9.99 || got > 10.01 {
		t.Errorf("trace.overhead_pct = %v, want 10 (2.2 ms traced over 2 ms untraced)", got)
	}
	if res.Metrics["graphio.read_ms.el"].Value != 0 || res.Metrics["solve.rounds.el"].Value != 1 {
		t.Error("an uncrossed layer must read 0 and a measured one its value")
	}

	rc = &runCtx{}
	rc.fail("tampered")
	if rc.result(o).Correct {
		t.Error("a run with a failed check reported correct")
	}
	o.Failed = 1
	if (&runCtx{}).result(o).Correct {
		t.Error("a run with a failed op reported correct")
	}

	// Every op failed: the empty latency sample must still encode.
	allFailed := &outcome{SetupRuns: []time.Duration{time.Second}, Ops: 2, Attempted: 2, Failed: 2, Wall: time.Second}
	for _, traced := range []bool{false, true} {
		res := (&runCtx{traced: traced}).result(allFailed)
		if res.Correct || mustJSON(res) == "" {
			t.Errorf("traced=%v: all-failed result %+v", traced, res)
		}
	}
}
