package registry

import (
	"fmt"
	"hash/fnv"
	"io"
	"strconv"
	"strings"

	"mpcgraph/internal/graph"
)

// This file holds the one form of a Report outside the process: the
// check of its payload against the instance, its JSON view, the text of
// its solution and that text's parser, and the solution fingerprint.
// `mpcgraph solve`, mpcgraphd, the bench harness, `mpcgraph bench
// -remote` and the golden suite all go through these.

// ReportView is the wire rendering of a Report: the audited costs and
// the solution summary. The payload field that applies to the problem is
// set (misSize; matchingSize; coverSize with dualLowerBound;
// matchingSize with value). `mpcgraph solve -json` also sets Valid, and
// daemon job views set SolutionHash (the fingerprint the golden suite
// pins), so bit-identity of a cache hit is checkable from the wire
// alone. WallMs is the only field that varies between identical runs.
type ReportView struct {
	Problem          string      `json:"problem"`
	Model            string      `json:"model"`
	N                int         `json:"n"`
	M                int         `json:"m"`
	Valid            bool        `json:"valid,omitempty"`
	MISSize          *int        `json:"misSize,omitempty"`
	MatchingSize     *int        `json:"matchingSize,omitempty"`
	CoverSize        *int        `json:"coverSize,omitempty"`
	FractionalWeight *float64    `json:"dualLowerBound,omitempty"`
	Value            *float64    `json:"value,omitempty"`
	SolutionHash     string      `json:"solutionHash,omitempty"`
	Rounds           int         `json:"rounds"`
	Phases           int         `json:"phases"`
	MaxMachineWords  int64       `json:"maxMachineWords"`
	TotalWords       int64       `json:"totalWords"`
	Violations       int         `json:"violations"`
	WallMs           float64     `json:"wallMs"`
	Stages           []StageView `json:"stages"`
}

// StageView mirrors model.StageCost on the wire.
type StageView struct {
	Name   string `json:"name"`
	Rounds int    `json:"rounds"`
	Words  int64  `json:"words"`
}

// NewReportView renders rep, solved on an instance with n vertices and
// m edges. It sets neither Valid nor SolutionHash.
func NewReportView(rep *Report, n, m int) *ReportView {
	out := &ReportView{
		Problem:         rep.Problem.String(),
		Model:           rep.Model.String(),
		N:               n,
		M:               m,
		Rounds:          rep.Rounds,
		Phases:          rep.Phases,
		MaxMachineWords: rep.MaxMachineWords,
		TotalWords:      rep.TotalWords,
		Violations:      rep.Violations,
		WallMs:          float64(rep.Wall.Microseconds()) / 1000,
		Stages:          make([]StageView, 0, len(rep.Stages)),
	}
	for _, st := range rep.Stages {
		out.Stages = append(out.Stages, StageView{Name: st.Name, Rounds: st.Rounds, Words: st.Words})
	}
	size := func(k int) *int { return &k }
	switch rep.Problem {
	case MIS:
		out.MISSize = size(graph.CountMarked(rep.InMIS))
	case VertexCover:
		out.CoverSize = size(graph.CountMarked(rep.InCover))
		fw := rep.FractionalWeight
		out.FractionalWeight = &fw
	case WeightedMatching:
		out.MatchingSize = size(rep.M.Size())
		v := rep.Value
		out.Value = &v
	default:
		out.MatchingSize = size(rep.M.Size())
	}
	return out
}

// Validate checks rep's payload against g, the instance it was solved
// on: an MIS must be a maximal independent set, a maximal matching a
// maximal matching of g, every other matching a matching of g, and a
// cover must cover every edge. The error names the pair.
func Validate(g *graph.Graph, rep *Report) error {
	var ok bool
	var want string
	switch rep.Problem {
	case MIS:
		ok, want = graph.IsMaximalIndependentSet(g, rep.InMIS), "a maximal independent set"
	case MaximalMatching:
		ok, want = graph.IsMaximalMatching(g, rep.M), "a maximal matching"
	case ApproxMatching, OnePlusEpsMatching, WeightedMatching:
		ok, want = graph.IsMatching(g, rep.M), "a matching"
	case VertexCover:
		ok, want = graph.IsVertexCover(g, rep.InCover), "a vertex cover"
	default:
		return fmt.Errorf("registry: cannot validate %s output", rep.Problem)
	}
	if !ok {
		return fmt.Errorf("registry: %s/%s output is not %s of the instance", rep.Problem, rep.Model, want)
	}
	return nil
}

// solutionSet is the vertex-set payload of rep, nil for a matching.
func solutionSet(rep *Report) []bool {
	switch rep.Problem {
	case MIS:
		return rep.InMIS
	case VertexCover:
		return rep.InCover
	}
	return nil
}

// RenderSolution writes rep's solution payload: one vertex id per line,
// ascending, for a vertex set (MIS, vertex cover), and one "u v" pair
// with u < v per line, ascending in u, for a matching.
func RenderSolution(w io.Writer, rep *Report) error {
	if set := solutionSet(rep); set != nil {
		for v, in := range set {
			if in {
				if _, err := fmt.Fprintln(w, v); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for _, e := range rep.M.Edges() {
		if _, err := fmt.Fprintf(w, "%d %d\n", e[0], e[1]); err != nil {
			return err
		}
	}
	return nil
}

// ParseSolution reads text in RenderSolution's form for rep.Problem on
// an instance of n vertices and stores it as rep's payload. It rejects
// a token that is not a vertex id below n, a vertex listed twice in a
// set, and, for a matching, an odd token count, a self-pair, and a
// vertex in two pairs.
func ParseSolution(rep *Report, text string, n int) error {
	toks := strings.Fields(text)
	ids := make([]int32, len(toks))
	for i, tok := range toks {
		v, err := strconv.Atoi(tok)
		if err != nil || v < 0 || v >= n {
			return fmt.Errorf("registry: solution token %q is not a vertex id in [0,%d)", tok, n)
		}
		ids[i] = int32(v)
	}
	switch rep.Problem {
	case MIS, VertexCover:
		set := make([]bool, n)
		for _, v := range ids {
			if set[v] {
				return fmt.Errorf("registry: solution lists vertex %d twice", v)
			}
			set[v] = true
		}
		if rep.Problem == MIS {
			rep.InMIS = set
		} else {
			rep.InCover = set
		}
		return nil
	}
	if len(ids)%2 != 0 {
		return fmt.Errorf("registry: odd token count %d in matching payload", len(ids))
	}
	m := graph.NewMatching(n)
	for i := 0; i < len(ids); i += 2 {
		u, v := ids[i], ids[i+1]
		switch {
		case u == v:
			return fmt.Errorf("registry: matching payload pairs vertex %d with itself", u)
		case m[u] != -1 || m[v] != -1:
			return fmt.Errorf("registry: matching payload pair %d %d reuses a matched vertex", u, v)
		}
		m.Match(u, v)
	}
	rep.M = m
	return nil
}

// SolutionHash fingerprints rep's payload: FNV-1a over the little-endian
// int64 member vertex ids, or the matched pairs, in RenderSolution's
// order.
func SolutionHash(rep *Report) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	write := func(v int64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	if set := solutionSet(rep); set != nil {
		for v, in := range set {
			if in {
				write(int64(v))
			}
		}
		return h.Sum64()
	}
	for _, e := range rep.M.Edges() {
		write(int64(e[0]))
		write(int64(e[1]))
	}
	return h.Sum64()
}
