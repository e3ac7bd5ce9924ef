package cli

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpcgraph/internal/bench"
	"mpcgraph/internal/graphio"
	"mpcgraph/internal/registry"
	"mpcgraph/internal/scenario"
)

// testEnv returns an Env capturing stdout/stderr, with optional stdin
// content.
func testEnv(stdin string) (Env, *bytes.Buffer, *bytes.Buffer) {
	var out, errBuf bytes.Buffer
	return Env{Stdin: strings.NewReader(stdin), Stdout: &out, Stderr: &errBuf}, &out, &errBuf
}

func TestListEnumeratesEveryRegistry(t *testing.T) {
	env, out, _ := testEnv("")
	if err := Run([]string{"list"}, env); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, section := range []string{"algorithms", "scenarios", "formats", "experiments"} {
		if !strings.Contains(text, section+" (") {
			t.Errorf("list missing section %s", section)
		}
	}
	for _, pair := range registry.Pairs() {
		if !strings.Contains(text, "  "+pair.String()+"\n") {
			t.Errorf("list missing algorithm %s", pair)
		}
	}
	for _, name := range scenario.Names() {
		if !strings.Contains(text, name) {
			t.Errorf("list missing scenario %s", name)
		}
	}
	for _, f := range graphio.Formats() {
		if !strings.Contains(text, f.String()) {
			t.Errorf("list missing format %s", f)
		}
	}
	for _, id := range bench.IDs() {
		if !strings.Contains(text, "  "+id+"\n") {
			t.Errorf("list missing experiment %s", id)
		}
	}
}

func TestGenThenSolveFile(t *testing.T) {
	dir := t.TempDir()
	for _, file := range []string{"g.el", "g.dimacs", "g.metis", "g.mtx", "g.mtx.gz"} {
		path := filepath.Join(dir, file)
		env, _, _ := testEnv("")
		if err := Run([]string{"gen", "-scenario", "gnp", "-n", "300", "-seed", "4", "-out", path}, env); err != nil {
			t.Fatalf("gen %s: %v", file, err)
		}
		env2, out, _ := testEnv("")
		if err := Run([]string{"solve", "-problem", "mis", "-in", path, "-seed", "4"}, env2); err != nil {
			t.Fatalf("solve %s: %v", file, err)
		}
		if !strings.Contains(out.String(), "validated") {
			t.Errorf("solve %s output missing validation:\n%s", file, out.String())
		}
	}
}

func TestStdoutStdinPipe(t *testing.T) {
	env, genOut, _ := testEnv("")
	if err := Run([]string{"gen", "-scenario", "ring-of-cliques", "-n", "120", "-param", "clique=6", "-format", "metis", "-out", "-"}, env); err != nil {
		t.Fatal(err)
	}
	env2, out, _ := testEnv(genOut.String())
	if err := Run([]string{"solve", "-problem", "approx-matching", "-in", "-", "-format", "metis", "-json"}, env2); err != nil {
		t.Fatal(err)
	}
	var rep jsonReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	if rep.N != 120 || !rep.Valid || rep.MatchingSize == nil {
		t.Errorf("unexpected report: %+v", rep)
	}
}

// TestJSONReportInvariants: stage rounds/words sum to the report totals
// for every problem, under both models where registered.
func TestJSONReportInvariants(t *testing.T) {
	for _, pair := range registry.Pairs() {
		scen := "gnp"
		if pair.Problem == registry.WeightedMatching {
			scen = "weighted-gnp"
		}
		env, out, _ := testEnv("")
		args := []string{
			"solve", "-problem", pair.Problem.String(), "-model", pair.Model.String(),
			"-scenario", scen, "-n", "260", "-seed", "2", "-json",
		}
		if err := Run(args, env); err != nil {
			t.Fatalf("%s: %v", pair, err)
		}
		var rep jsonReport
		if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
			t.Fatalf("%s: bad JSON: %v", pair, err)
		}
		if rep.Problem != pair.Problem.String() || rep.Model != pair.Model.String() {
			t.Errorf("%s: identity mismatch: %+v", pair, rep)
		}
		if !rep.Valid {
			t.Errorf("%s: payload invalid", pair)
		}
		if rep.MaxMachineWords <= 0 || rep.TotalWords <= 0 {
			t.Errorf("%s: costs not audited: %+v", pair, rep)
		}
		rounds, words := 0, int64(0)
		for _, st := range rep.Stages {
			rounds += st.Rounds
			words += st.Words
		}
		if rounds != rep.Rounds || words != rep.TotalWords {
			t.Errorf("%s: stages sum to (%d, %d), report says (%d, %d)",
				pair, rounds, words, rep.Rounds, rep.TotalWords)
		}
	}
}

func TestSolutionOutput(t *testing.T) {
	dir := t.TempDir()
	sol := filepath.Join(dir, "mis.txt")
	env, _, _ := testEnv("")
	if err := Run([]string{"solve", "-problem", "mis", "-scenario", "gnp", "-n", "200", "-solution", sol}, env); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(sol)
	if err != nil {
		t.Fatal(err)
	}
	if len(strings.Fields(string(data))) == 0 {
		t.Error("no MIS vertices written")
	}

	pairs := filepath.Join(dir, "m.txt")
	env2, _, _ := testEnv("")
	if err := Run([]string{"solve", "-problem", "maximal-matching", "-scenario", "gnp", "-n", "200", "-solution", pairs}, env2); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(pairs)
	if err != nil {
		t.Fatal(err)
	}
	line, _, _ := strings.Cut(strings.TrimSpace(string(data)), "\n")
	if len(strings.Fields(line)) != 2 {
		t.Errorf("matching solution line %q is not a pair", line)
	}
}

func TestSolveTraceStreams(t *testing.T) {
	env, _, errBuf := testEnv("")
	if err := Run([]string{"solve", "-problem", "mis", "-scenario", "gnp", "-n", "200", "-trace"}, env); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errBuf.String(), "round ") {
		t.Errorf("no trace output on stderr:\n%s", errBuf.String())
	}
}

func TestBenchSubcommand(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want []string // substrings of the rendered tables
	}{
		{"single", []string{"-experiment", "E3", "-quick", "-trials", "1"}, []string{"E3:"}},
		{"comma-space-list", []string{"-experiment", "E3, E17", "-quick", "-trials", "1"}, []string{"E3:", "E17:"}},
		{"workers-1", []string{"-experiment", "E3", "-quick", "-trials", "1", "-workers", "1"}, []string{"E3:"}},
		{"registry-sweep", []string{"-experiment", "E18", "-quick", "-trials", "1"}, []string{"E18:", "mis/mpc"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env, out, _ := testEnv("")
			if err := Run(append([]string{"bench"}, tc.args...), env); err != nil {
				t.Fatalf("bench %q: %v", tc.args, err)
			}
			for _, s := range tc.want {
				if !strings.Contains(out.String(), s) {
					t.Errorf("bench %q: %s missing:\n%s", tc.args, s, out.String())
				}
			}
		})
	}
	t.Run("json", func(t *testing.T) {
		env, out, _ := testEnv("")
		if err := Run([]string{"bench", "-experiment", "E3", "-quick", "-trials", "1", "-json"}, env); err != nil {
			t.Fatal(err)
		}
		var tab map[string]any
		if err := json.Unmarshal(out.Bytes(), &tab); err != nil {
			t.Fatalf("bench -json emitted bad JSON: %v", err)
		}
	})
}

func TestBenchCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every registered algorithm at quick scale")
	}
	env, out, _ := testEnv("")
	if err := Run([]string{"bench", "-check"}, env); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "registry coverage ok") {
		t.Fatalf("bench -check output unexpected:\n%s", out.String())
	}
}

func TestWeightedFormatMatrix(t *testing.T) {
	dir := t.TempDir()
	for _, file := range []string{"w.wel", "w.metis", "w.mtx"} {
		path := filepath.Join(dir, file)
		env, _, _ := testEnv("")
		if err := Run([]string{"gen", "-scenario", "weighted-gnp", "-n", "220", "-seed", "9", "-out", path}, env); err != nil {
			t.Fatalf("gen %s: %v", file, err)
		}
		env2, out, _ := testEnv("")
		if err := Run([]string{"solve", "-problem", "weighted-matching", "-in", path, "-seed", "9", "-json"}, env2); err != nil {
			t.Fatalf("solve %s: %v", file, err)
		}
		var rep jsonReport
		if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Value == nil || *rep.Value <= 0 {
			t.Errorf("%s: no weighted value in report", file)
		}
	}
}

func TestErrors(t *testing.T) {
	cases := map[string][]string{
		"no-command":            {},
		"unknown-command":       {"frobnicate"},
		"unknown-problem":       {"solve", "-problem", "tsp", "-scenario", "gnp"},
		"unknown-model":         {"solve", "-problem", "mis", "-model", "pram", "-scenario", "gnp"},
		"no-instance":           {"solve", "-problem", "mis"},
		"both-sources":          {"solve", "-problem", "mis", "-scenario", "gnp", "-in", "x.el"},
		"stdin-needs-format":    {"solve", "-problem", "mis", "-in", "-"},
		"weighted-on-plain":     {"solve", "-problem", "weighted-matching", "-scenario", "gnp", "-n", "100"},
		"unweighted-pair":       {"solve", "-problem", "weighted-matching", "-model", "congested-clique", "-scenario", "weighted-gnp", "-n", "100"},
		"unknown-scenario":      {"gen", "-scenario", "nope", "-out", "-", "-format", "el"},
		"gen-missing-out":       {"gen", "-scenario", "gnp"},
		"gen-stdout-no-format":  {"gen", "-scenario", "gnp", "-out", "-"},
		"gen-weighted-to-el":    {"gen", "-scenario", "weighted-gnp", "-n", "60", "-out", "-", "-format", "el"},
		"gen-plain-to-wel":      {"gen", "-scenario", "gnp", "-n", "60", "-out", "-", "-format", "wel"},
		"bad-param":             {"gen", "-scenario", "gnp", "-param", "p", "-out", "-", "-format", "el"},
		"json-solution-stdout":  {"solve", "-problem", "mis", "-scenario", "gnp", "-n", "100", "-json", "-solution", "-"},
		"unknown-param":         {"gen", "-scenario", "gnp", "-param", "zzz=3", "-out", "-", "-format", "el"},
		"bad-format":            {"solve", "-problem", "mis", "-in", "-", "-format", "csv"},
		"positional-junk":       {"solve", "-problem", "mis", "-scenario", "gnp", "extra"},
		"missing-file":          {"solve", "-problem", "mis", "-in", "/nonexistent/g.el"},
		"bench-unknown":         {"bench", "-experiment", "E99"},
		"bench-bad-flag":        {"bench", "-bogus"},
		"bench-negative-trials": {"bench", "-trials", "-1"},
	}
	for name, args := range cases {
		t.Run(name, func(t *testing.T) {
			env, _, _ := testEnv("")
			if err := Run(args, env); err == nil {
				t.Errorf("args %v accepted", args)
			}
		})
	}
}

func TestHelp(t *testing.T) {
	env, out, _ := testEnv("")
	if err := Run([]string{"help"}, env); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "solve") {
		t.Error("help output missing commands")
	}
}

// TestScenarioVsFileCostParity is the CLI-level reproducibility check:
// the same (scenario, seed, problem, model) yields byte-identical JSON
// cost fields whether solved in-process or through a file round trip.
// The exhaustive per-format matrix lives in the root package's
// solvefile_test.go; this guards the CLI plumbing (flag parsing, stdin,
// gzip) end to end.
func TestScenarioVsFileCostParity(t *testing.T) {
	stripWall := func(raw []byte) map[string]any {
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		delete(m, "wallMs")
		return m
	}
	env, direct, _ := testEnv("")
	if err := Run([]string{"solve", "-problem", "vertex-cover", "-scenario", "rmat", "-n", "400", "-seed", "11", "-json"}, env); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.dimacs.gz")
	envGen, _, _ := testEnv("")
	if err := Run([]string{"gen", "-scenario", "rmat", "-n", "400", "-seed", "11", "-out", path}, envGen); err != nil {
		t.Fatal(err)
	}
	envFile, fromFile, _ := testEnv("")
	if err := Run([]string{"solve", "-problem", "vertex-cover", "-in", path, "-seed", "11", "-json"}, envFile); err != nil {
		t.Fatal(err)
	}
	a, b := stripWall(direct.Bytes()), stripWall(fromFile.Bytes())
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if !bytes.Equal(aj, bj) {
		t.Errorf("cost reports differ:\n direct: %s\n file:   %s", aj, bj)
	}
}

func discardEnv() Env {
	return Env{Stdin: strings.NewReader(""), Stdout: io.Discard, Stderr: io.Discard}
}

// TestEveryProblemSolvesFromEveryCompatibleFormat pins the full
// (problem, format) support matrix at small scale.
func TestEveryProblemSolvesFromEveryCompatibleFormat(t *testing.T) {
	dir := t.TempDir()
	for _, f := range []string{"el", "dimacs", "metis", "mm"} {
		path := filepath.Join(dir, "g."+map[string]string{"el": "el", "dimacs": "col", "metis": "graph", "mm": "mtx"}[f])
		env, _, _ := testEnv("")
		if err := Run([]string{"gen", "-scenario", "high-girth", "-n", "150", "-seed", "5", "-out", path, "-format", f}, env); err != nil {
			t.Fatal(err)
		}
		for _, problem := range []string{"mis", "maximal-matching", "approx-matching", "one-plus-eps-matching", "vertex-cover"} {
			if err := Run([]string{"solve", "-problem", problem, "-in", path, "-format", f}, discardEnv()); err != nil {
				t.Errorf("%s from %s: %v", problem, f, err)
			}
		}
	}
}
