package cli

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"mpcgraph/internal/registry"
)

var updateWire = flag.Bool("update-wire", false, "rewrite testdata/solve_wire.golden from the current implementation")

const solveWireGolden = "testdata/solve_wire.golden"

// TestSolveWireBytes pins, for every registered pair on one small
// scenario, the exact bytes `mpcgraph solve` prints: the -json line
// (wallMs masked), and the text report followed by the -solution -
// payload. A change to either rendering shows up as a diff against
// testdata/solve_wire.golden. Regenerate, only for an intended wire
// change, with:
//
//	go test ./internal/cli -run TestSolveWireBytes -update-wire
func TestSolveWireBytes(t *testing.T) {
	wallMs := regexp.MustCompile(`"wallMs":\s*[-0-9.e+]+`)
	var got bytes.Buffer
	for _, pair := range registry.Pairs() {
		scen := "gnp"
		if pair.Problem == registry.WeightedMatching {
			scen = "weighted-gnp"
		}
		args := []string{"solve", "-problem", pair.Problem.String(), "-model", pair.Model.String(),
			"-scenario", scen, "-n", "64", "-seed", "3"}
		for _, mode := range [][]string{{"-json"}, {"-solution", "-"}} {
			env, out, _ := testEnv("")
			if err := Run(append(append([]string(nil), args...), mode...), env); err != nil {
				t.Fatalf("%s %v: %v", pair, mode, err)
			}
			fmt.Fprintf(&got, "== %s %s\n", pair, strings.Join(mode, " "))
			got.Write(wallMs.ReplaceAll(out.Bytes(), []byte(`"wallMs":0`)))
		}
	}
	if *updateWire {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(solveWireGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(solveWireGolden)
	if err != nil {
		t.Fatalf("read %s (run with -update-wire to create): %v", solveWireGolden, err)
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
