// Package bench is the experiment harness: it regenerates, as printed
// tables, every quantitative claim of the paper (the experiment index
// E1–E18; run `mpcgraph list` for the index). Each experiment is a pure
// function of a Config, so `go test -bench` targets and `mpcgraph bench`
// share one implementation every published table can be reproduced
// verbatim.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	reg "mpcgraph/internal/registry"
)

// Config controls experiment scale and randomness.
type Config struct {
	// Seed drives all experiment randomness (default 2018, the paper's
	// publication year, so the recorded tables are reproducible).
	Seed uint64
	// Trials is the number of repetitions averaged per randomized cell
	// (default 3).
	Trials int
	// Quick shrinks instance sizes for smoke tests and -short runs.
	Quick bool
	// Workers is the parallel execution knob threaded into every
	// algorithm invocation (0 = all cores, 1 = sequential). Tables are
	// bit-identical for every setting; only wall-clock time changes.
	Workers int
	// Solver, when non-nil, replaces registry.Solve for the experiments
	// that dispatch through the public registry surface (the E18 sweep).
	// `mpcgraph bench -remote` injects a daemon-backed SolveFunc here;
	// results must be bit-identical to the in-process default, which is
	// exactly what TestRemoteBenchBitIdentical pins. Experiments that
	// measure internal phase structure (E1–E17) are not routable and
	// always run in-process.
	Solver reg.SolveFunc
}

// solve resolves the effective SolveFunc.
func (c Config) solve() reg.SolveFunc {
	if c.Solver != nil {
		return c.Solver
	}
	return reg.Solve
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 2018
	}
	if c.Trials == 0 {
		c.Trials = 3
	}
	return c
}

// Table is a rendered experiment result.
type Table struct {
	// ID is the experiment id (E1…E17).
	ID string
	// Title is a one-line description.
	Title string
	// Claim quotes the paper claim being measured.
	Claim string
	// Columns and Rows hold the tabular data.
	Columns []string
	Rows    [][]string
	// Notes carries caveats (substitutions, scale remarks).
	Notes string
}

// Render writes the table in aligned plain text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s\n", t.ID, t.Title)
	fmt.Fprintf(w, "   claim: %s\n", t.Claim)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		sb.Reset()
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			for p := len(cell); p < widths[i]; p++ {
				sb.WriteByte(' ')
			}
		}
		fmt.Fprintf(w, "   %s\n", strings.TrimRight(sb.String(), " "))
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(w, "   note: %s\n", t.Notes)
	}
	fmt.Fprintln(w)
}

// RenderJSON writes the table as one JSON object on a single line —
// the machine-readable form behind `mpcgraph bench -json`, stable enough for
// BENCH_*.json trajectories to diff across commits.
func (t *Table) RenderJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		ID      string     `json:"id"`
		Title   string     `json:"title"`
		Claim   string     `json:"claim"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
		Notes   string     `json:"notes,omitempty"`
	}{t.ID, t.Title, t.Claim, t.Columns, t.Rows, t.Notes})
}

// Experiment is a runnable experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) *Table
}

// registry holds all experiments keyed by id.
var registry = map[string]Experiment{}

func register(e Experiment) { registry[e.ID] = e }

// IDs returns all experiment ids in order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		// Numeric ordering: E1 < E2 < ... < E14.
		var a, b int
		fmt.Sscanf(ids[i], "E%d", &a)
		fmt.Sscanf(ids[j], "E%d", &b)
		return a < b
	})
	return ids
}

// Run executes one experiment by id.
func Run(id string, cfg Config) (*Table, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q (have %v)", id, IDs())
	}
	return e.Run(cfg.withDefaults()), nil
}

// RunAll executes every experiment and renders the results to w.
func RunAll(cfg Config, w io.Writer) {
	for _, id := range IDs() {
		t, err := Run(id, cfg)
		if err != nil {
			fmt.Fprintf(w, "%s: %v\n", id, err)
			continue
		}
		t.Render(w)
	}
}

// RunAllJSON executes every experiment and writes one JSON object per
// line to w (the -json form of RunAll).
func RunAllJSON(cfg Config, w io.Writer) error {
	for _, id := range IDs() {
		t, err := Run(id, cfg)
		if err != nil {
			return err
		}
		if err := t.RenderJSON(w); err != nil {
			return err
		}
	}
	return nil
}

// Formatting helpers shared by the experiment implementations.

func fi(v int) string      { return fmt.Sprintf("%d", v) }
func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func f4(v float64) string  { return fmt.Sprintf("%.4f", v) }
func loglog(v int) float64 { return math.Log2(math.Max(math.Log2(math.Max(float64(v), 2)), 1)) }
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
func maxf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
