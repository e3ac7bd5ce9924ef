package graphio

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mpcgraph/internal/graph"
	"mpcgraph/internal/rng"
)

// sameData reports structural equality of two parsed instances,
// including exact weight equality for weighted ones.
func sameData(a, b *Data) bool {
	if a.G.NumVertices() != b.G.NumVertices() || a.G.NumEdges() != b.G.NumEdges() {
		return false
	}
	if (a.WG == nil) != (b.WG == nil) {
		return false
	}
	same := true
	a.G.ForEachEdge(func(u, v int32) {
		if !b.G.HasEdge(u, v) {
			same = false
			return
		}
		if a.WG != nil && a.WG.EdgeWeight(u, v) != b.WG.EdgeWeight(u, v) {
			same = false
		}
	})
	return same
}

// corpus returns a spread of instances exercising isolated vertices,
// empty graphs, dense blocks, heavy tails and weights.
func corpus(t *testing.T) map[string]*Data {
	t.Helper()
	src := rng.New(9)
	withIsolated := graph.NewBuilder(12)
	withIsolated.AddEdge(3, 7)
	withIsolated.AddEdge(0, 11)
	wg := graph.RandomWeights(graph.GNP(60, 0.08, src), 0.5, 4.5, src)
	tiny := graph.NewBuilder(2)
	tiny.AddEdge(0, 1)
	return map[string]*Data{
		"empty":    Unweighted(graph.Empty(0)),
		"edgeless": Unweighted(graph.Empty(5)),
		"tiny":     Unweighted(tiny.MustBuild()),
		"isolated": Unweighted(withIsolated.MustBuild()),
		"gnp":      Unweighted(graph.GNP(80, 0.06, src)),
		"rmat":     Unweighted(graph.RMAT(64, 300, 0.57, 0.19, 0.19, src)),
		"clique":   Unweighted(graph.Complete(9)),
		"weighted": FromWeighted(wg),
	}
}

// TestRoundTripEveryFormat: read∘write = id for every format on every
// corpus instance the format can represent.
func TestRoundTripEveryFormat(t *testing.T) {
	for name, d := range corpus(t) {
		for _, f := range Formats() {
			t.Run(name+"/"+f.String(), func(t *testing.T) {
				var buf bytes.Buffer
				err := Write(&buf, d, f)
				if (d.WG != nil && !f.Weighted()) || (d.WG == nil && !f.Unweighted()) {
					if err == nil {
						t.Fatal("weight-incompatible write accepted")
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				got, err := Read(bytes.NewReader(buf.Bytes()), f)
				if err != nil {
					t.Fatalf("re-read: %v\ninput:\n%s", err, buf.String())
				}
				if !sameData(d, got) {
					t.Fatalf("round trip changed the instance:\n%s", buf.String())
				}
			})
		}
	}
}

// fmtRender renders d in format f the way the writers did before they
// appended into one reused buffer: one fmt.Fprintf per line or token.
// It is the oracle TestWritersMatchFmt holds the writers to.
func fmtRender(d *Data, f Format) string {
	var sb strings.Builder
	g := d.G
	weight := func(u, v int32) string { return strconv.FormatFloat(d.WG.EdgeWeight(u, v), 'g', -1, 64) }
	switch f {
	case FormatEdgeList, FormatWeightedEdgeList:
		fmt.Fprintf(&sb, "n %d\n", g.NumVertices())
		g.ForEachEdge(func(u, v int32) {
			if f == FormatWeightedEdgeList {
				fmt.Fprintf(&sb, "%d %d %s\n", u, v, weight(u, v))
			} else {
				fmt.Fprintf(&sb, "%d %d\n", u, v)
			}
		})
	case FormatDIMACS:
		fmt.Fprintf(&sb, "p edge %d %d\n", g.NumVertices(), g.NumEdges())
		g.ForEachEdge(func(u, v int32) { fmt.Fprintf(&sb, "e %d %d\n", u+1, v+1) })
	case FormatMatrixMarket:
		field := "pattern"
		if d.WG != nil {
			field = "real"
		}
		fmt.Fprintf(&sb, "%%%%MatrixMarket matrix coordinate %s symmetric\n", field)
		fmt.Fprintf(&sb, "%d %d %d\n", g.NumVertices(), g.NumVertices(), g.NumEdges())
		g.ForEachEdge(func(u, v int32) {
			if d.WG != nil {
				fmt.Fprintf(&sb, "%d %d %s\n", v+1, u+1, weight(u, v))
			} else {
				fmt.Fprintf(&sb, "%d %d\n", v+1, u+1)
			}
		})
	case FormatMETIS:
		format := ""
		if d.WG != nil {
			format = " 001"
		}
		fmt.Fprintf(&sb, "%d %d%s\n", g.NumVertices(), g.NumEdges(), format)
		for v := int32(0); int(v) < g.NumVertices(); v++ {
			for i, u := range g.Neighbors(v) {
				if i > 0 {
					sb.WriteByte(' ')
				}
				sb.WriteString(strconv.Itoa(int(u) + 1))
				if d.WG != nil {
					fmt.Fprintf(&sb, " %s", weight(v, u))
				}
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// writerCorpus is corpus plus two instances whose renderings span
// several of the writers' 64 KiB flushes.
func writerCorpus(t *testing.T) map[string]*Data {
	t.Helper()
	src := rng.New(11)
	c := corpus(t)
	c["big"] = Unweighted(graph.GNP(3000, 0.005, src))
	c["big-weighted"] = FromWeighted(graph.RandomWeights(graph.GNP(3000, 0.005, src), 0.5, 4.5, src))
	return c
}

// TestWritersMatchFmt: every writer renders the same bytes as the fmt
// rendering, on every instance its format can carry.
func TestWritersMatchFmt(t *testing.T) {
	for name, d := range writerCorpus(t) {
		for _, f := range Formats() {
			if (d.WG != nil && !f.Weighted()) || (d.WG == nil && !f.Unweighted()) {
				continue
			}
			t.Run(name+"/"+f.String(), func(t *testing.T) {
				var buf bytes.Buffer
				if err := Write(&buf, d, f); err != nil {
					t.Fatal(err)
				}
				if want := fmtRender(d, f); buf.String() != want {
					t.Fatalf("%d bytes written, fmt renders %d; first lines:\n%.200s\nwant:\n%.200s",
						buf.Len(), len(want), buf.String(), want)
				}
			})
		}
	}
}

// failAfter accepts n bytes, then fails every write.
type failAfter struct{ n int }

var errWriteFailed = errors.New("write failed")

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		k := f.n
		f.n = 0
		return k, errWriteFailed
	}
	f.n -= len(p)
	return len(p), nil
}

// TestWritersReportWriteErrors: a failing destination's error comes
// back from every writer, whether it fails on the first chunk or later.
func TestWritersReportWriteErrors(t *testing.T) {
	for name, d := range writerCorpus(t) {
		if !strings.HasPrefix(name, "big") {
			continue
		}
		for _, f := range Formats() {
			if (d.WG != nil && !f.Weighted()) || (d.WG == nil && !f.Unweighted()) {
				continue
			}
			for _, after := range []int{0, 100000} {
				if err := Write(&failAfter{n: after}, d, f); !errors.Is(err, errWriteFailed) {
					t.Errorf("%s/%v, failing after %d bytes: got %v", name, f, after, err)
				}
			}
		}
	}
}

// TestFileRoundTrip covers the path-based API: extension-derived format,
// gzip compression, and magic-byte detection on read.
func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for name, d := range corpus(t) {
		for _, f := range Formats() {
			if (d.WG != nil && !f.Weighted()) || (d.WG == nil && !f.Unweighted()) {
				continue
			}
			for _, gz := range []string{"", ".gz"} {
				path := filepath.Join(dir, name+f.Extensions()[0]+gz)
				if err := WriteFile(path, d); err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				if gz == ".gz" {
					raw, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					if len(raw) >= 2 && (raw[0] != 0x1f || raw[1] != 0x8b) {
						t.Fatalf("%s: not gzip-compressed", path)
					}
				}
				got, err := ReadFile(path)
				if err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				if !sameData(d, got) {
					t.Fatalf("%s: file round trip changed the instance", path)
				}
			}
		}
	}
}

// TestReadFileSniffing: unknown extensions fall back to content
// sniffing for MatrixMarket and DIMACS, and to the edge list otherwise.
func TestReadFileSniffing(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"mm.data":     "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 2\n",
		"dimacs.data": "c hello\np edge 3 2\ne 1 2\ne 2 3\n",
		"el.data":     "n 3\n0 1\n1 2\n",
	}
	for name, body := range cases {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d.G.NumVertices() != 3 || d.G.NumEdges() != 2 {
			t.Errorf("%s: got %v", name, d.G)
		}
	}
}

// TestReadFileGzipSniff: gzip is recognized by magic bytes even without
// a .gz extension.
func TestReadFileGzipSniff(t *testing.T) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write([]byte("n 4\n0 1\n2 3\n")); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "plain.el")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if d.G.NumVertices() != 4 || d.G.NumEdges() != 2 {
		t.Errorf("got %v", d.G)
	}
}

func TestDetectFormat(t *testing.T) {
	cases := map[string]Format{
		"a/b/web.mtx":    FormatMatrixMarket,
		"web.mtx.gz":     FormatMatrixMarket,
		"g.el":           FormatEdgeList,
		"g.txt":          FormatEdgeList,
		"g.edges.gz":     FormatEdgeList,
		"w.wel":          FormatWeightedEdgeList,
		"inst.col":       FormatDIMACS,
		"inst.dimacs.gz": FormatDIMACS,
		"part.graph":     FormatMETIS,
		"part.metis":     FormatMETIS,
		"mystery.bin":    FormatUnknown,
		"noext":          FormatUnknown,
	}
	for path, want := range cases {
		if got := DetectFormat(path); got != want {
			t.Errorf("DetectFormat(%q) = %v, want %v", path, got, want)
		}
	}
}

func TestParseFormat(t *testing.T) {
	for _, f := range Formats() {
		got, err := ParseFormat(f.String())
		if err != nil || got != f {
			t.Errorf("ParseFormat(%q) = %v, %v", f.String(), got, err)
		}
	}
	if _, err := ParseFormat("csv"); err == nil {
		t.Error("unknown format name accepted")
	}
}

// TestReaderErrors: each dialect rejects its documented malformations
// with its exact error text, instead of panicking or silently
// misreading. The strings pin the line numbers, the precedence between
// faults (an entry-count overflow is reported at the overflowing line,
// ahead of a later parse error or a bad weight on that line) and, for
// weighted formats, the first conflicting mention in input order.
func TestReaderErrors(t *testing.T) {
	const (
		mmPattern = "%%MatrixMarket matrix coordinate pattern symmetric\n"
		mmReal    = "%%MatrixMarket matrix coordinate real symmetric\n"
	)
	cases := []struct {
		name   string
		format Format
		in     string
		want   string
	}{
		{"dimacs-no-problem", FormatDIMACS, "e 1 2\n",
			`graphio: line 1: edge before problem line`},
		{"dimacs-double-problem", FormatDIMACS, "p edge 2 1\np edge 2 1\ne 1 2\n",
			`graphio: line 2: duplicate problem line`},
		{"dimacs-problem-after-edge", FormatDIMACS, "p edge 3 2\ne 1 2\np edge 3 2\ne 2 3\n",
			`graphio: line 3: duplicate problem line`},
		{"dimacs-count-short", FormatDIMACS, "p edge 3 2\ne 1 2\n",
			`graphio: 1 edge lines but problem line declared 2`},
		{"dimacs-count-long", FormatDIMACS, "p edge 3 1\ne 1 2\ne 2 3\n",
			`graphio: 2 edge lines but problem line declared 1`},
		{"dimacs-count-over-mid-file", FormatDIMACS, "p edge 4 1\ne 1 2\ne 2 3\ne 3 4\n",
			`graphio: 3 edge lines but problem line declared 1`},
		{"dimacs-count-over-then-junk", FormatDIMACS, "p edge 4 1\ne 1 2\ne 2 3\nx 3 4\n",
			`graphio: line 4: unknown DIMACS line "x 3 4"`},
		{"dimacs-self-loop", FormatDIMACS, "p edge 3 1\ne 2 2\n",
			`graphio: line 2: self-loop at 2`},
		{"dimacs-zero-vertex", FormatDIMACS, "p edge 3 1\ne 0 1\n",
			`graphio: line 2: bad vertex "0"`},
		{"dimacs-n-over-cap", FormatDIMACS, "p edge 999999999 0\n",
			`graphio: line 1: bad vertex count "999999999" (limit 134217728)`},
		{"dimacs-out-of-range", FormatDIMACS, "p edge 3 1\ne 1 4\n",
			`graphio: line 2: vertex 4 out of range`},
		{"dimacs-junk-line", FormatDIMACS, "p edge 2 1\nx 1 2\ne 1 2\n",
			`graphio: line 2: unknown DIMACS line "x 1 2"`},
		{"dimacs-unicode-space", FormatDIMACS, "p edge 3 1\ne 1\u00a02 3\n",
			`graphio: line 2: want 'e <u> <v>', got "e 1\u00a02 3"`},
		{"dimacs-p-col-bad-count", FormatDIMACS, "p col 3 x\n",
			`graphio: line 1: bad edge count "x"`},
		{"dimacs-p-col-count-short", FormatDIMACS, "c old\np col 3 2\ne 1 3\n",
			`graphio: 1 edge lines but problem line declared 2`},
		{"metis-n-over-cap", FormatMETIS, "999999999 0\n",
			`graphio: line 1: bad vertex count "999999999" (limit 134217728)`},
		{"mm-n-over-cap", FormatMatrixMarket, mmPattern + "999999999 999999999 0\n",
			`graphio: line 2: bad vertex count "999999999" (limit 134217728)`},
		{"el-n-over-cap", FormatEdgeList, "n 999999999\n",
			`graphio: line 1: bad vertex count "999999999" (limit 134217728)`},
		{"el-id-over-cap", FormatEdgeList, "0 999999999\n",
			`graphio: line 1: vertex 999999999 out of range`},
		{"wel-n-over-cap", FormatWeightedEdgeList, "n 999999999\n",
			`graphio: line 1: bad vertex count "999999999" (limit 134217728)`},
		{"metis-missing-header", FormatMETIS, "",
			`graphio: missing METIS header`},
		{"metis-truncated", FormatMETIS, "3 2\n2\n",
			`graphio: METIS file ends after 1 of 3 vertex lines`},
		{"metis-extra-lines", FormatMETIS, "2 1\n2\n1\n3\n",
			`graphio: line 4: content after 2 METIS vertex lines`},
		{"metis-entry-mismatch", FormatMETIS, "3 2\n2\n1\n\n",
			`graphio: 2 adjacency entries but METIS header declared m=2 (want 4 entries)`},
		{"metis-self-loop", FormatMETIS, "2 1\n1\n1\n",
			`graphio: line 2: self-loop at 1`},
		{"metis-vertex-weights", FormatMETIS, "2 1 011\n1 2\n1 1\n",
			`graphio: line 1: unsupported METIS fmt "011" (only edge weights, fmt 001, are supported)`},
		{"metis-odd-weight-tokens", FormatMETIS, "2 1 001\n2 1.5\n1\n",
			`graphio: line 3: odd token count 1 on weighted METIS vertex line`},
		{"metis-nonpositive-weight", FormatMETIS, "2 1 001\n2 0\n1 0\n",
			`graphio: line 2: edge weight "0" must be a positive finite number`},
		{"metis-weight-conflict", FormatMETIS, "3 2 001\n2 1 3 2\n1 1\n1 4\n",
			`graphio: conflicting weights 2 and 4 for edge {2,0}`},
		{"mm-no-banner", FormatMatrixMarket, "3 3 1\n1 2\n",
			`graphio: line 1: want '%%MatrixMarket matrix coordinate <field> <symmetry>', got "3 3 1"`},
		{"mm-array", FormatMatrixMarket, "%%MatrixMarket matrix array real general\n2 2\n1\n0\n0\n1\n",
			`graphio: line 1: want '%%MatrixMarket matrix coordinate <field> <symmetry>', got "%%MatrixMarket matrix array real general"`},
		{"mm-complex", FormatMatrixMarket, "%%MatrixMarket matrix coordinate complex symmetric\n2 2 1\n2 1 1 0\n",
			`graphio: line 1: unsupported MatrixMarket field "complex" (want pattern, real or integer)`},
		{"mm-not-square", FormatMatrixMarket, "%%MatrixMarket matrix coordinate pattern general\n2 3 1\n1 2\n",
			`graphio: line 2: adjacency matrix must be square, got 2x3`},
		{"mm-diagonal", FormatMatrixMarket, mmPattern + "3 3 1\n2 2\n",
			`graphio: line 3: diagonal entry (self-loop) at 2`},
		{"mm-count-short", FormatMatrixMarket, mmPattern + "3 3 2\n2 1\n",
			`graphio: 1 entries but size line declared 2`},
		{"mm-count-over-mid-file", FormatMatrixMarket, mmPattern + "4 4 1\n2 1\n3 2\n4 3\n",
			`graphio: line 4: more than the declared 1 entries`},
		{"mm-count-over-then-junk", FormatMatrixMarket, mmPattern + "4 4 1\n2 1\n3 2\nx y\n",
			`graphio: line 4: more than the declared 1 entries`},
		{"mm-count-over-on-bad-weight", FormatMatrixMarket, mmReal + "4 4 1\n2 1 1\n3 2 -1\n",
			`graphio: line 4: more than the declared 1 entries`},
		{"mm-size-after-entry", FormatMatrixMarket, mmPattern + "3 3 2\n2 1\n3 3 2\n3 2\n",
			`graphio: line 4: want 2 fields, got "3 3 2"`},
		{"mm-unicode-space", FormatMatrixMarket, mmPattern + "3 3 1\n2\u00a01 3\n",
			`graphio: line 3: want 2 fields, got "2\u00a01 3"`},
		{"mm-p-col", FormatMatrixMarket, mmPattern + "3 3 1\np col 3 1\n",
			`graphio: line 3: want 2 fields, got "p col 3 1"`},
		{"mm-conflicting-weights", FormatMatrixMarket, "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 2 1.5\n2 1 2.5\n",
			`graphio: conflicting weights 1.5 and 2.5 for edge {1,0}`},
		{"wel-two-fields", FormatWeightedEdgeList, "0 1\n",
			`graphio: line 1: want 'u v w', got "0 1"`},
		{"wel-negative-weight", FormatWeightedEdgeList, "0 1 -2\n",
			`graphio: line 1: edge weight "-2" must be a positive finite number`},
		{"wel-nan-weight", FormatWeightedEdgeList, "0 1 NaN\n",
			`graphio: line 1: edge weight "NaN" must be a positive finite number`},
		{"wel-conflict", FormatWeightedEdgeList, "0 1 2\n1 0 3\n",
			`graphio: conflicting weights 2 and 3 for edge {1,0}`},
		{"wel-conflict-first", FormatWeightedEdgeList, "0 1 2\n1 0 3\n2 3 1\n3 2 1\n",
			`graphio: conflicting weights 2 and 3 for edge {1,0}`},
		{"wel-conflict-last", FormatWeightedEdgeList, "0 1 2\n2 3 1\n3 2 1\n1 0 3\n",
			`graphio: conflicting weights 2 and 3 for edge {1,0}`},
		{"wel-conflict-between-agreeing", FormatWeightedEdgeList, "0 1 2\n1 0 2\n0 1 5\n1 0 2\n",
			`graphio: conflicting weights 2 and 5 for edge {0,1}`},
		{"wel-conflict-input-order", FormatWeightedEdgeList, "2 3 1\n0 1 1\n3 2 7\n1 0 9\n",
			`graphio: conflicting weights 1 and 7 for edge {3,2}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Read(strings.NewReader(tc.in), tc.format)
			if err == nil {
				t.Fatalf("input %q accepted", tc.in)
			}
			if err.Error() != tc.want {
				t.Errorf("input %q:\n got %s\nwant %s", tc.in, err, tc.want)
			}
		})
	}
	// A line of maxLine bytes or more is the scanner's token-too-long
	// error, reported once the lines before it have parsed. The long
	// line is streamed, so the test holds no copy of it.
	tooLong := []struct {
		name   string
		format Format
		head   string
	}{
		{"dimacs-too-long", FormatDIMACS, "p edge 3 1\ne 1 2\nc "},
		{"mm-too-long", FormatMatrixMarket, mmPattern + "3 3 1\n2 1\n% "},
	}
	for _, tc := range tooLong {
		t.Run(tc.name, func(t *testing.T) {
			in := io.MultiReader(strings.NewReader(tc.head), io.LimitReader(repeatByte('x'), maxLine+16))
			_, err := Read(in, tc.format)
			if want := "graphio: bufio.Scanner: token too long"; err == nil || err.Error() != want {
				t.Errorf("got %v, want %s", err, want)
			}
		})
	}
}

// repeatByte is an endless stream of one byte.
type repeatByte byte

func (b repeatByte) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

// TestReaderLeniency: documented tolerances must keep working.
func TestReaderLeniency(t *testing.T) {
	cases := []struct {
		name   string
		format Format
		in     string
		n, m   int
	}{
		{"dimacs-dup-edges", FormatDIMACS, "p edge 3 3\ne 1 2\ne 2 1\ne 1 2\n", 3, 1},
		{"dimacs-p-col", FormatDIMACS, "p col 3 1\ne 1 3\n", 3, 1},
		{"metis-comment-between", FormatMETIS, "2 1\n% hi\n2\n1\n", 2, 1},
		{"metis-isolated-blank", FormatMETIS, "3 1\n2\n1\n\n", 3, 1},
		{"metis-fmt-000", FormatMETIS, "2 1 000\n2\n1\n", 2, 1},
		{"mm-general-both-orients", FormatMatrixMarket, "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\n2 1\n", 2, 1},
		{"mm-integer-weights", FormatMatrixMarket, "%%MatrixMarket matrix coordinate integer symmetric\n2 2 1\n2 1 3\n", 2, 1},
		{"wel-dup-agreeing", FormatWeightedEdgeList, "0 1 2.5\n1 0 2.5\n", 2, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := Read(strings.NewReader(tc.in), tc.format)
			if err != nil {
				t.Fatal(err)
			}
			if d.G.NumVertices() != tc.n || d.G.NumEdges() != tc.m {
				t.Errorf("got n=%d m=%d, want n=%d m=%d", d.G.NumVertices(), d.G.NumEdges(), tc.n, tc.m)
			}
		})
	}
}
