package service

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"testing"

	"mpcgraph/internal/registry"
)

var updateWire = flag.Bool("update-wire", false, "rewrite testdata/job_wire.golden from the current implementation")

const jobWireGolden = "testdata/job_wire.golden"

// TestJobWireBytes pins, for every registered pair on one small
// scenario, the exact bytes of a done job's `report` object (wallMs
// masked) and of its GET /v1/jobs/{id}/solution body. A change to
// either rendering shows up as a diff against testdata/job_wire.golden.
// Regenerate, only for an intended wire change, with:
//
//	go test ./internal/service -run TestJobWireBytes -update-wire
func TestJobWireBytes(t *testing.T) {
	wallMs := regexp.MustCompile(`"wallMs":\s*[-0-9.e+]+`)
	_, ts := newTestServer(t, Config{Workers: 2})
	var got bytes.Buffer
	for _, pair := range registry.Pairs() {
		scen := "gnp"
		if pair.Problem == registry.WeightedMatching {
			scen = "weighted-gnp"
		}
		v := submitWait(t, ts.URL, &JobRequest{
			Problem:  pair.Problem.String(),
			Model:    pair.Model.String(),
			Scenario: &ScenarioRequest{Name: scen, N: 64, Seed: 3},
			Options:  OptionsRequest{Seed: 3},
		})
		if v.State != StateDone {
			t.Fatalf("%s: state %s (%s)", pair, v.State, v.Error)
		}
		_, raw := getBody(t, ts.URL+"/v1/jobs/"+v.ID)
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(raw, &fields); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "== %s report\n%s\n", pair, wallMs.ReplaceAll(fields["report"], []byte(`"wallMs": 0`)))
		resp, solution := getBody(t, ts.URL+"/v1/jobs/"+v.ID+"/solution")
		if resp.StatusCode != 200 {
			t.Fatalf("%s: GET solution: %s", pair, resp.Status)
		}
		fmt.Fprintf(&got, "== %s solution\n%s", pair, solution)
	}
	if *updateWire {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(jobWireGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(jobWireGolden)
	if err != nil {
		t.Fatalf("read %s (run with -update-wire to create): %v", jobWireGolden, err)
	}
	if g := got.Bytes(); !bytes.Equal(g, want) {
		i := 0
		for i < len(g) && i < len(want) && g[i] == want[i] {
			i++
		}
		lo := max(0, i-80)
		t.Fatalf("wire bytes differ at byte %d:\n  got  %q\n  want %q", i, g[lo:min(len(g), i+80)], want[lo:min(len(want), i+80)])
	}
}
