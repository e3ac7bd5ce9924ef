package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"mpcgraph"
	"mpcgraph/internal/service"
)

// cliReport is the shape `mpcgraph solve -json` prints. The benchmark
// decodes it from the child's stdout and rebuilds it from an in-process
// Solve as the reference.
type cliReport struct {
	Problem          string      `json:"problem"`
	Model            string      `json:"model"`
	N                int         `json:"n"`
	M                int         `json:"m"`
	Valid            bool        `json:"valid"`
	MISSize          *int        `json:"misSize,omitempty"`
	MatchingSize     *int        `json:"matchingSize,omitempty"`
	CoverSize        *int        `json:"coverSize,omitempty"`
	FractionalWeight *float64    `json:"dualLowerBound,omitempty"`
	Value            *float64    `json:"value,omitempty"`
	Rounds           int         `json:"rounds"`
	Phases           int         `json:"phases"`
	MaxMachineWords  int64       `json:"maxMachineWords"`
	TotalWords       int64       `json:"totalWords"`
	Violations       int         `json:"violations"`
	WallMs           float64     `json:"wallMs"`
	Stages           []stageCost `json:"stages"`
}

type stageCost struct {
	Name   string `json:"name"`
	Rounds int    `json:"rounds"`
	Words  int64  `json:"words"`
}

func countTrue(set []bool) int {
	n := 0
	for _, in := range set {
		if in {
			n++
		}
	}
	return n
}

// referenceCLIReport renders an in-process Report the way the CLI
// would, as the expected output of a file-solve op.
func referenceCLIReport(in mpcgraph.Instance, rep *mpcgraph.Report) cliReport {
	out := cliReport{
		Problem:         rep.Problem.String(),
		Model:           rep.Model.String(),
		N:               in.NumVertices(),
		M:               in.NumEdges(),
		Valid:           true,
		Rounds:          rep.Rounds,
		Phases:          rep.Phases,
		MaxMachineWords: rep.MaxMachineWords,
		TotalWords:      rep.TotalWords,
		Violations:      rep.Violations,
	}
	for _, st := range rep.Stages {
		out.Stages = append(out.Stages, stageCost{st.Name, st.Rounds, st.Words})
	}
	size := func(k int) *int { return &k }
	switch rep.Problem {
	case mpcgraph.ProblemMIS:
		out.MISSize = size(countTrue(rep.InMIS))
	case mpcgraph.ProblemVertexCover:
		out.CoverSize = size(countTrue(rep.InCover))
		fw := rep.FractionalWeight
		out.FractionalWeight = &fw
	case mpcgraph.ProblemWeightedMatching:
		out.MatchingSize = size(rep.M.Size())
		v := rep.Value
		out.Value = &v
	default:
		out.MatchingSize = size(rep.M.Size())
	}
	return out
}

// sameExceptWall compares two reports field by field through their JSON
// encoding after zeroing the host wall time, the one field that varies
// between identical runs.
func sameExceptWall[T any](got, want T, wall func(*T)) error {
	wall(&got)
	wall(&want)
	g, err := json.Marshal(got)
	if err != nil {
		return err
	}
	w, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(g, w) {
		return fmt.Errorf("output differs from the reference:\n  got  %s\n  want %s", g, w)
	}
	return nil
}

// checkCLIReport compares a CLI report with its in-process reference:
// audited costs, stages and solution size must be bit-identical.
func checkCLIReport(got, want cliReport) error {
	return sameExceptWall(got, want, func(r *cliReport) { r.WallMs = 0 })
}

// checkHit compares a cache hit's report with the cold-fill job's: the
// solution fingerprint and every audited cost must be bit-identical.
func checkHit(got, want *service.ReportView) error {
	if got == nil || want == nil {
		return fmt.Errorf("missing report (got %v, want %v)", got != nil, want != nil)
	}
	return sameExceptWall(*got, *want, func(r *service.ReportView) { r.WallMs = 0 })
}

// checkSolution validates a job's full solution text against the
// instance it was solved on, and against the size its report claims.
func checkSolution(p mpcgraph.Problem, in mpcgraph.Instance, text []byte, rv *service.ReportView) error {
	if rv == nil {
		return fmt.Errorf("no report")
	}
	if rv.N != in.NumVertices() || rv.M != in.NumEdges() {
		return fmt.Errorf("report instance n=%d m=%d, reference n=%d m=%d", rv.N, rv.M, in.NumVertices(), in.NumEdges())
	}
	g := graphOf(in)
	n := g.NumVertices()
	switch p {
	case mpcgraph.ProblemMIS, mpcgraph.ProblemVertexCover:
		set, err := parseVertexSet(text, n)
		if err != nil {
			return err
		}
		ok, claimed := mpcgraph.IsMaximalIndependentSet(g, set), rv.MISSize
		if p == mpcgraph.ProblemVertexCover {
			ok, claimed = mpcgraph.IsVertexCover(g, set), rv.CoverSize
		}
		if !ok {
			return fmt.Errorf("%s solution is not valid on the instance", p)
		}
		if claimed == nil || *claimed != countTrue(set) {
			return fmt.Errorf("%s solution has %d vertices, report claims %s", p, countTrue(set), deref(claimed))
		}
	default:
		m, err := parseMatching(text, n)
		if err != nil {
			return err
		}
		ok := mpcgraph.IsMatching(g, m)
		if p == mpcgraph.ProblemMaximalMatching {
			ok = mpcgraph.IsMaximalMatching(g, m)
		}
		if !ok {
			return fmt.Errorf("%s solution is not valid on the instance", p)
		}
		if rv.MatchingSize == nil || *rv.MatchingSize != m.Size() {
			return fmt.Errorf("%s solution has %d edges, report claims %s", p, m.Size(), deref(rv.MatchingSize))
		}
		if wg, weighted := in.(*mpcgraph.WeightedGraph); weighted && p == mpcgraph.ProblemWeightedMatching {
			value := wg.MatchingWeight(m)
			if rv.Value == nil || math.Abs(*rv.Value-value) > 1e-9*math.Max(1, value) {
				return fmt.Errorf("matching weighs %v, report claims %s", value, deref(rv.Value))
			}
		}
	}
	return nil
}

// deref renders an optional report field.
func deref[T any](p *T) string {
	if p == nil {
		return "nothing"
	}
	return fmt.Sprint(*p)
}

// graphOf is the unweighted graph under an instance.
func graphOf(in mpcgraph.Instance) *mpcgraph.Graph {
	if wg, ok := in.(*mpcgraph.WeightedGraph); ok {
		return wg.Graph
	}
	return in.(*mpcgraph.Graph)
}

// parseVertexSet reads one vertex id per line.
func parseVertexSet(text []byte, n int) ([]bool, error) {
	set := make([]bool, n)
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		v, err := strconv.Atoi(strings.TrimSpace(sc.Text()))
		if err != nil || v < 0 || v >= n || set[v] {
			return nil, fmt.Errorf("solution line %q: not a new vertex id below %d", sc.Text(), n)
		}
		set[v] = true
	}
	return set, sc.Err()
}

// parseMatching reads one "u v" pair per line into a mate array.
func parseMatching(text []byte, n int) (mpcgraph.Matching, error) {
	m := make(mpcgraph.Matching, n)
	for i := range m {
		m[i] = -1
	}
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			return nil, fmt.Errorf("solution line %q: want \"u v\"", sc.Text())
		}
		u, err1 := strconv.Atoi(f[0])
		v, err2 := strconv.Atoi(f[1])
		if err1 != nil || err2 != nil || u < 0 || v < 0 || u >= n || v >= n || u == v || m[u] >= 0 || m[v] >= 0 {
			return nil, fmt.Errorf("solution line %q: not a fresh pair of vertex ids below %d", sc.Text(), n)
		}
		m[u], m[v] = int32(v), int32(u)
	}
	return m, sc.Err()
}
