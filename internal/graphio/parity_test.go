package graphio

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"mpcgraph/internal/graph"
	"mpcgraph/internal/rng"
	"mpcgraph/internal/scenario"
)

// The fast readers (fastread.go) promise strict parity with the
// scanner-based reference readers: the same graph and the same error
// string — byte for byte — on every input, for every worker count.
// This file pins that promise on a table of adversarial inputs, on
// large multi-shard inputs with planted faults, and on every scenario
// in the catalog.

// renderGraphEL renders a parsed graph back to canonical edge-list
// bytes; two parses are CSR-identical iff their renders match.
func renderGraphEL(t *testing.T, d *Data) string {
	t.Helper()
	if d == nil {
		return "<nil>"
	}
	var buf bytes.Buffer
	var err error
	if d.WG != nil {
		err = writeWeightedEdgeList(&buf, d.WG)
	} else {
		err = WriteEdgeList(&buf, d.G)
	}
	if err != nil {
		t.Fatalf("render: %v", err)
	}
	return buf.String()
}

// readReference parses r with the scanner-based reference reader of f.
func readReference(r io.Reader, f Format) (*Data, error) {
	switch f {
	case FormatEdgeList:
		g, err := readEdgeListScanner(r)
		if err != nil {
			return nil, err
		}
		return Unweighted(g), nil
	case FormatWeightedEdgeList:
		return readWELScanner(r)
	case FormatDIMACS:
		return readDIMACSScanner(r)
	case FormatMatrixMarket:
		return readMatrixMarketScanner(r)
	case FormatMETIS:
		return readMETISScanner(r)
	}
	panic(fmt.Sprintf("no reference reader for %v", f))
}

// readFast parses r with the chunk-parallel reader of f, told that the
// stream is size bytes long (0: unknown). The METIS reader, which is
// sequential and never sized, ignores both.
func readFast(r io.Reader, f Format, workers int, size int64) (*Data, error) {
	switch f {
	case FormatEdgeList:
		return readNativeFast(r, false, workers, size)
	case FormatWeightedEdgeList:
		return readNativeFast(r, true, workers, size)
	case FormatDIMACS:
		return readDIMACSFast(r, workers, size)
	case FormatMatrixMarket:
		return readMatrixMarketFast(r, workers, size)
	case FormatMETIS:
		return readMETIS(r)
	}
	panic(fmt.Sprintf("no fast reader for %v", f))
}

// readBothFrom parses the stream open returns through the reference
// scanner reader of f and through the fast reader at each worker
// count, demanding identical outcomes. It returns the scanner outcome.
func readBothFrom(t *testing.T, open func() io.Reader, f Format, workers ...int) (*Data, error) {
	t.Helper()
	return readBothSized(t, open, f, []int64{0}, workers...)
}

// readBothSized is readBothFrom with the fast reader told each of
// sizes as the stream's length.
func readBothSized(t *testing.T, open func() io.Reader, f Format, sizes []int64, workers ...int) (*Data, error) {
	t.Helper()
	refD, refErr := readReference(open(), f)
	for _, w := range workers {
		for _, size := range sizes {
			fastD, fastErr := readFast(open(), f, w, size)
			matchReference(t, f, fmt.Sprintf("workers=%d, size=%d", w, size), refD, refErr, fastD, fastErr)
		}
	}
	return refD, refErr
}

// matchReference fails t unless the fast outcome equals the reference
// one: the same graph, or the same error text wrapping the same cause.
func matchReference(t *testing.T, f Format, run string, refD *Data, refErr error, fastD *Data, fastErr error) {
	t.Helper()
	switch {
	case (refErr == nil) != (fastErr == nil):
		t.Fatalf("%v, %s: scanner err %v, fast err %v", f, run, refErr, fastErr)
	case refErr != nil:
		if refErr.Error() != fastErr.Error() {
			t.Fatalf("%v, %s: error mismatch:\nscanner: %s\nfast:    %s", f, run, refErr, fastErr)
		}
		// Equal text is not enough: a wrapped cause (an I/O error or
		// bufio.ErrTooLong) must stay visible to errors.Is.
		if cause := errors.Unwrap(refErr); (cause == nil) != (errors.Unwrap(fastErr) == nil) || (cause != nil && !errors.Is(fastErr, cause)) {
			t.Fatalf("%v, %s: scanner wraps %v, fast wraps %v", f, run, cause, errors.Unwrap(fastErr))
		}
	default:
		if want, got := renderGraphEL(t, refD), renderGraphEL(t, fastD); want != got {
			t.Fatalf("%v, %s: graph mismatch:\nscanner:\n%s\nfast:\n%s", f, run, want, got)
		}
	}
}

// readBoth is readBothFrom on an in-memory input, which the fast reader
// also reads told its exact length, half of it and double it: a stated
// length may change capacity only, never a result or an error text.
func readBoth(t *testing.T, input string, f Format, workers ...int) (*Data, error) {
	t.Helper()
	n := int64(len(input))
	return readBothSized(t, func() io.Reader { return strings.NewReader(input) }, f, []int64{0, n, n / 2, 2 * n}, workers...)
}

// parityInputs is the adversarial corpus. Every ParseInt/ParseFloat
// corner the custom parsers replicate has a row, as do Unicode
// whitespace (which forces the per-line fallback), header precedence,
// arity faults and line accounting (CRLF, blanks, unterminated tails).
func parityInputs() map[string]string {
	return map[string]string{
		"empty":                 "",
		"blank-lines":           "\n \t \n\n",
		"comment-only":          "# just a comment\n",
		"indented-comment":      "  \t# indented\n",
		"no-trailing-newline":   "n 4\n0 1\n2 3",
		"crlf":                  "n 2\r\n0 1\r\n",
		"plain":                 "n 4\n0 1\n2 3\n",
		"no-header":             "5 3\n2 7\n",
		"dup-edges":             "0 1\n1 0\n0 1\n",
		"minus-zero-vertex":     "-0 1\n",
		"plus-sign-vertex":      "+5 6\n",
		"negative-vertex":       "-3 4\n",
		"leading-zeros":         "007 008\n",
		"int64-overflow":        "9223372036854775808 1\n",
		"uint64-overflow":       "99999999999999999999999 1\n",
		"vertex-at-cap":         "134217728 1\n",
		"trailing-junk-vertex":  "1x 2\n",
		"float-vertex":          "1e3 2\n",
		"empty-sign":            "+ 1\n",
		"self-loop":             "7 7\n",
		"self-loop-minus-zero":  "-0 0\n",
		"arity-short":           "3\n",
		"arity-long":            "0 1 2 3\n",
		"header-bare":           "n\n",
		"header-extra":          "n 2 3\n",
		"header-minus-zero":     "n -0\n",
		"header-plus":           "n +3\n0 1\n",
		"header-negative":       "n -2\n",
		"header-overflow":       "n 134217729\n",
		"header-junk":           "n x\n",
		"multi-header":          "n 3\n0 1\nn 5\n2 4\n",
		"header-after-edges":    "0 5\nn 2\n",
		"out-of-declared-range": "n 2\n0 5\n",
		"nbsp-separator":        "0 1\n",
		"unicode-line-sep":      "0 1\n",
		"nbsp-then-comment":     " # comment\n",
		"nbsp-bad-token":        "0 1 x\n",
		"high-byte-token":       "0 \xffb\n",
		"error-line-number":     "# c\n\n0 1\n\nbad line here\n",
	}
}

// welOnlyInputs exercises the weight column and the conflict report,
// which names the first conflicting mention in input order.
func welOnlyInputs() map[string]string {
	return map[string]string{
		"weights-plain":                     "n 4\n0 1 1.5\n2 3 0.25\n",
		"weight-zero":                       "0 1 0\n",
		"weight-negative":                   "0 1 -2\n",
		"weight-nan":                        "0 1 nan\n",
		"weight-inf":                        "0 1 +Inf\n",
		"weight-1e309":                      "0 1 1e309\n",
		"weight-hex-float":                  "0 1 0x1p-2\n",
		"weight-underscore":                 "0 1 1_0\n",
		"weight-junk":                       "0 1 abc\n",
		"weight-missing":                    "0 1\n",
		"weight-exact":                      "0 1 0.1\n2 3 3.0000000000000004\n",
		"weight-conflict":                   "0 1 2\n1 0 3\n",
		"weight-dup-agree":                  "0 1 2\n1 0 2\n0 1 2\n",
		"weight-error-order":                "x 1 1\n",
		"weight-conflict-first":             "0 1 2\n1 0 3\n2 3 1\n3 2 1\n",
		"weight-conflict-last":              "0 1 2\n2 3 1\n3 2 1\n1 0 3\n",
		"weight-conflict-between-agreeing":  "0 1 2\n1 0 2\n0 1 5\n1 0 2\n",
		"weight-conflict-input-before-edge": "2 3 1\n0 1 1\n3 2 7\n1 0 9\n",
	}
}

// dimacsInputs is the DIMACS corpus: the prelude, the 'c'/'p'/'e'
// dispatch on the first byte of the trimmed line, 1-based ids checked
// against the declared n, and the edge-line count.
func dimacsInputs() map[string]string {
	return map[string]string{
		"empty":                   "",
		"blank-lines":             "\n \t \n\n",
		"comment-only":            "c just a comment\n",
		"plain":                   "c hi\np edge 4 2\ne 1 2\ne 3 4\n",
		"p-col":                   "p col 3 1\ne 1 3\n",
		"crlf":                    "p edge 2 1\r\ne 1 2\r\n",
		"no-trailing-newline":     "p edge 4 2\ne 1 2\ne 3 4",
		"indented":                "  c x\n\tp edge 3 1\n  e 1 2  \n",
		"comment-any-c-word":      "p edge 3 1\ncat dog\ne 1 2\n",
		"e-prefixed-field":        "p edge 3 1\nedge 1 2\n",
		"e-glued":                 "p edge 3 1\ne1 2 3\n",
		"dup-edges":               "p edge 3 3\ne 1 2\ne 2 1\ne 1 2\n",
		"count-short":             "p edge 3 2\ne 1 2\n",
		"count-long":              "p edge 3 1\ne 1 2\ne 2 3\n",
		"count-over-then-junk":    "p edge 4 1\ne 1 2\ne 2 3\nx 3 4\n",
		"no-problem":              "c only\n\n",
		"edge-before-problem":     "c x\ne 1 2\np edge 2 1\n",
		"junk-before-problem":     "x\np edge 2 1\n",
		"double-problem":          "p edge 2 1\np edge 2 1\ne 1 2\n",
		"problem-after-edge":      "p edge 3 2\ne 1 2\np edge 3 2\ne 2 3\n",
		"bad-problem-name":        "p sp 3 1\n",
		"bad-problem-arity":       "p edge 3\n",
		"bad-n":                   "p edge x 1\n",
		"n-over-cap":              "p edge 134217729 0\n",
		"bad-m":                   "p edge 3 -1\n",
		"zero-n-edge":             "p edge 0 1\ne 1 2\n",
		"zero-vertex":             "p edge 3 1\ne 0 1\n",
		"minus-zero-vertex":       "p edge 3 1\ne -0 1\n",
		"plus-vertex":             "p edge 3 1\ne +1 2\n",
		"negative-vertex":         "p edge 3 1\ne -2 1\n",
		"out-of-range":            "p edge 3 1\ne 1 4\n",
		"int64-overflow":          "p edge 3 1\ne 9223372036854775808 1\n",
		"self-loop":               "p edge 3 1\ne 2 2\n",
		"arity-short":             "p edge 3 1\ne 1\n",
		"arity-long":              "p edge 3 1\ne 1 2 3\n",
		"unknown-line":            "p edge 2 1\nx 1 2\ne 1 2\n",
		"nbsp-separator":          "p edge 3 1\ne 1 2\n",
		"nbsp-arity":              "p edge 3 1\ne 1 2 3\n",
		"nbsp-before-comment":     " c comment\np edge 2 0\n",
		"nbsp-before-problem":     " p edge 2 1\ne 1 2\n",
		"nbsp-before-edge":        "p edge 2 1\n e 1 2\n",
		"unicode-line-sep":        "p edge 3 1\ne 1 2\n",
		"high-byte-token":         "p edge 3 1\ne 1 \xff\n",
		"high-byte-first":         "p edge 3 1\n\xffe 1 2\n",
		"high-byte-after-comment": "p edge 3 0\nc \xff\n",
		"error-line-number":       "c c\n\np edge 3 1\n\ne 1 2\n\nbad line here\n",
	}
}

// mmInputs is the MatrixMarket corpus: the banner and size line, 1-based
// ids checked against n, diagonal entries, values, and the entry count,
// whose overflow is reported at the overflowing entry.
func mmInputs() map[string]string {
	const (
		pat  = "%%MatrixMarket matrix coordinate pattern symmetric\n"
		real = "%%MatrixMarket matrix coordinate real general\n"
	)
	return map[string]string{
		"empty":                    "",
		"blank-banner":             "\n3 3 0\n",
		"banner-only":              pat,
		"banner-no-newline":        strings.TrimSuffix(pat, "\n"),
		"banner-crlf":              strings.TrimSuffix(pat, "\n") + "\r\n2 2 1\r\n2 1\r\n",
		"bad-banner-crlf":          "%%MatrixMarket matrix array real general\r\n",
		"bad-banner-double-cr":     "%%MatrixMarket matrix array real general\r\r\n",
		"banner-upper":             "%%MATRIXMARKET MATRIX COORDINATE PATTERN SYMMETRIC\n2 2 1\n2 1\n",
		"banner-kelvin":            "%%MatrixMarKet matrix coordinate pattern symmetric\n2 2 1\n2 1\n",
		"complex":                  "%%MatrixMarket matrix coordinate complex symmetric\n2 2 1\n2 1 1 0\n",
		"skew":                     "%%MatrixMarket matrix coordinate pattern skew-symmetric\n",
		"plain":                    pat + "% c\n\n3 3 2\n2 1\n3 2\n",
		"integer":                  "%%MatrixMarket matrix coordinate integer symmetric\n2 2 1\n2 1 3\n",
		"real-general-both":        real + "2 2 2\n1 2 1.5\n2 1 1.5\n",
		"real-conflict":            real + "3 3 4\n2 3 1\n1 2 1.5\n3 2 1\n2 1 2.5\n",
		"no-size":                  pat + "% only comments\n\n",
		"size-arity":               pat + "3 3\n",
		"size-arity-unicode":       pat + "3 3 1 4\n",
		"not-square":               pat + "2 3 1\n1 2\n",
		"bad-rows":                 pat + "x 3 1\n",
		"bad-cols":                 pat + "3 -3 1\n",
		"bad-nnz":                  pat + "3 3 x\n",
		"rows-over-cap":            pat + "134217729 134217729 0\n",
		"count-short":              pat + "3 3 2\n2 1\n",
		"count-over":               pat + "4 4 1\n2 1\n3 2\n4 3\n",
		"count-over-then-junk":     pat + "4 4 1\n2 1\n3 2\nx y\n",
		"count-over-on-bad-weight": real + "4 4 1\n2 1 1\n3 2 -1\n",
		"bad-weight-before-over":   real + "4 4 1\n2 1 -1\n3 2 1\n",
		"count-zero-then-entry":    pat + "3 3 0\n2 1\n",
		"diagonal":                 pat + "3 3 1\n2 2\n",
		"diagonal-after-full":      pat + "3 3 1\n2 1\n2 2\n",
		"arity-after-full":         pat + "3 3 1\n2 1\n2 1 1\n",
		"zero-vertex":              pat + "3 3 1\n0 1\n",
		"out-of-range":             pat + "3 3 1\n4 1\n",
		"minus-zero":               pat + "3 3 1\n-0 1\n",
		"plus":                     pat + "3 3 1\n+2 1\n",
		"weight-zero":              real + "2 2 1\n1 2 0\n",
		"weight-nan":               real + "2 2 1\n1 2 nan\n",
		"weight-hex":               real + "2 2 1\n1 2 0x1p-2\n",
		"weight-missing":           real + "2 2 1\n1 2\n",
		"size-after-entry":         pat + "3 3 2\n2 1\n3 3 2\n3 2\n",
		"p-col":                    pat + "3 3 1\np col 3 1\n",
		"nbsp-separator":           pat + "3 3 1\n2 1\n",
		"nbsp-arity":               pat + "3 3 1\n2 1 3\n",
		"nbsp-comment":             pat + "3 3 0\n % comment\n",
		"high-byte-token":          pat + "3 3 1\n2 \xff\n",
		"percent-inline":           pat + "3 3 1\n2 1 % trailing\n",
		"crlf-body":                pat + "3 3 1\r\n2 1\r\n",
		"no-trailing-newline":      pat + "3 3 1\n2 1",
		"error-line-number":        pat + "% c\n\n3 3 1\n\n% x\n\nbad\n",
	}
}

// metisInputs is the METIS corpus around the byte scan of vertex lines:
// digit counts, signs, every ASCII space byte, comments and blank lines
// between vertex lines, ids at the bound, self-loops, Unicode space and
// high bytes, and in the weighted form odd token counts and the weights
// ParseFloat treats specially.
func metisInputs() map[string]string {
	rows := map[string]string{
		"plain":             "3 2\n2 3\n1\n1\n",
		"weighted":          "3 2 001\n2 1.5 3 2\n1 1.5\n1 2\n",
		"blank-vertex":      "4 2\n\n3\n2\n\n",
		"spaces":            "3 2\n \t2\v3\f \n1\r\n\t1\n",
		"crlf":              "3 2\r\n2 3\r\n1\r\n1\r\n",
		"cr-between":        "3 2\n2\r3\n1\n1\n",
		"comment-between":   "3 2\n2 3\n% c\n  % d\n1\n1\n",
		"id-18-digits":      "3 2\n000000000000000002 3\n1\n1\n",
		"id-19-digits":      "3 2\n0000000000000000002 3\n1\n1\n",
		"id-19-digits-over": "3 2\n9999999999999999999 3\n1\n1\n",
		"plus":              "3 2\n+2 3\n1\n1\n",
		"second-plus":       "3 2\n2 +3\n1\n1\n",
		"second-19-digits":  "3 2\n2 0000000000000000003\n1\n1\n",
		"minus-zero":        "3 2\n-0 3\n1\n1\n",
		"leading-zeros":     "3 2\n002 3\n1\n1\n",
		"zero-id":           "3 2\n0 3\n1\n1\n",
		"id-at-bound":       "3 2\n2 4\n1\n1\n",
		"id-below-bound":    "3 1\n3\n\n1\n",
		"self-loop":         "3 2\n1 3\n1\n1\n",
		"trailing-junk":     "3 2\n2 3x\n1\n1\n",
		"nbsp":              "3 2\n2\u00a03\n1\n1\n",
		"nbsp-blank":        "3 1\n2\n1\n\u00a0\n",
		"high-byte":         "3 2\n2 \xff\n1\n1\n",
		"no-final-newline":  "3 2\n2 3\n1\n1",
		"entry-count":       "3 1\n2 3\n1\n1\n",
		"short":             "3 2\n2 3\n1\n",
		"content-after":     "2 1\n2\n1\n3\n",
		"weight-odd":        "3 2 001\n2 1.5 3\n1 1.5\n1 2\n",
		"weight-conflict":   "2 1 001\n2 1.5\n1 2.5\n",
		"weight-nbsp":       "2 1 001\n2 1.5\u00a0\n1 1.5\n",
		"weight-long":       "2 1 001\n2 1.000000000000000000000000000000000000001\n1 1\n",
		"weight-glued":      "2 1 001\n2 1.5x\n1 1.5\n",
		"weight-plus-id":    "3 2 001\n2 1 +3 1\n1 1\n1 1\n",
	}
	for _, w := range []string{"1e308", "1e309", "NaN", "+Inf", "0x1p-2", ".5", "5.", "-0", "0"} {
		rows["weight-"+w] = "2 1 001\n2 " + w + "\n1 " + w + "\n"
	}
	return rows
}

// boundaryFormats are the line formats boundaryInputs renders, named
// for their subtests; MatrixMarket comes as a pattern and a real file.
var boundaryFormats = []struct {
	name     string
	format   Format
	weighted bool
}{
	{"el", FormatEdgeList, false},
	{"wel", FormatWeightedEdgeList, true},
	{"dimacs", FormatDIMACS, false},
	{"mm-pattern", FormatMatrixMarket, false},
	{"mm-real", FormatMatrixMarket, true},
}

// boundaryInputs is the corpus at the edges of a well-formed entry
// line, rendered for one line format: digit counts around 18, signs and
// leading zeros, every ASCII space byte before, between and after the
// tokens, a last line without '\n', ids at the bound and just below it,
// id 0, self-loops, headers and comments between entries, and, in the
// weighted formats, the weights strconv.ParseFloat treats specially.
//
// Rows are written once in a neutral form: '@' is the DIMACS "e" token
// (nothing elsewhere) and '|' the weight column (" 1" in the weighted
// formats, nothing elsewhere). DIMACS and MatrixMarket rows get a
// prelude declaring 9 vertices and one entry per entry line.
func boundaryInputs(f Format, weighted bool) map[string]string {
	comment := map[Format]string{FormatEdgeList: "#", FormatWeightedEdgeList: "#", FormatDIMACS: "c", FormatMatrixMarket: "%"}[f]
	rows := map[string]string{
		"id-18-digits":           "@ 000000000000000001 2|\n",
		"id-18-digits-high":      "@ 999999999999999999 2|\n",
		"id-19-digits":           "@ 0000000000000000001 2|\n",
		"id-19-digits-high":      "@ 1000000000000000000 2|\n",
		"id-19-digits-over":      "@ 9999999999999999999 2|\n",
		"id-20-digits-wrap":      "@ 18446744073709551617 2|\n",
		"second-id-18-digits":    "@ 2 000000000000000001|\n",
		"second-id-19-digits":    "@ 2 0000000000000000001|\n",
		"plus-one":               "@ +1 2|\n",
		"second-plus-one":        "@ 2 +1|\n",
		"minus-zero":             "@ -0 2|\n",
		"leading-zeros":          "@ 007 2|\n",
		"tabs":                   "\t@\t1\t2|\t\n",
		"vertical-tabs":          "\v@\v1\v2|\v\n",
		"form-feeds":             "\f@\f1\f2|\f\n",
		"crlf":                   "@ 1 2|\r\n@ 2 3|\r\n",
		"space-runs":             "   @   1    2|    \n",
		"mixed-space":            " \t\v\f\r@ \t\v\f\r1 \t\v\f\r2| \t\v\f\r\n",
		"cr-between":             "@ 1\r2|\n",
		"no-final-newline":       "@ 1 2|\n@ 2 3|",
		"no-final-newline-space": "@ 1 2|\n@ 2 3| \t",
		"no-final-newline-cr":    "@ 1 2|\n@ 2 3|\r",
		"zero-id":                "@ 0 1|\n",
		"second-zero-id":         "@ 1 0|\n",
		"self-loop":              "@ 1 2|\n@ 3 3|\n",
		"comment-between":        "@ 1 2|\n" + comment + " x\n  " + comment + "\n@ 2 3|\n",
		"blank-between":          "@ 1 2|\n\n \t\n@ 2 3|\n",
		"three-ids":              "@ 1 2 3|\n",
		"glued-fraction":         "@ 1 2.5\n",
		"trailing-token":         "@ 1 2| x\n",
		"nbsp-after":             "@ 1 2|\u00a0\n",
	}
	if f == FormatEdgeList || f == FormatWeightedEdgeList {
		// The bound is MaxVertices; the header keeps the id just below
		// it from sizing a 2^27-vertex graph (finishN rejects it).
		rows["id-at-bound"] = "134217728 1|\n"
		rows["id-below-bound"] = "n 2\n134217727 1|\n"
		rows["header-between"] = "1 2|\nn 9\n2 3|\n"
	} else {
		rows["id-at-bound"] = "@ 10 1|\n"
		rows["id-below-bound"] = "@ 9 1|\n@ 1 9|\n"
	}
	switch f {
	case FormatDIMACS:
		rows["e-glued"] = "e1 2\n"
		rows["e-word"] = "ex 1 2\n"
		rows["e-edge"] = "edge 1 2\n"
		rows["e-tab"] = "e\t1 2\n"
		rows["e-alone"] = "e\n"
	case FormatMatrixMarket:
		rows["nnz-overflow"] = "@ 2 1|\n@ 3 2|\n@ 4 3|\n"
	}
	if weighted {
		for _, w := range []string{"1e308", "1e309", "NaN", "+Inf", "0x1p-2", ".5", "5.", "-0", "0", "1_0", "1e-400"} {
			rows["weight-"+w] = "@ 1 2 " + w + "\n"
		}
		rows["weight-missing"] = "@ 1 2\n"
	}
	weight := ""
	if weighted {
		weight = " 1"
	}
	marks := []string{"|", weight, "@", "e"}
	if f != FormatDIMACS {
		marks = append([]string{"@ ", "", "@\t", "", "@\v", "", "@\f", "", "@\r", ""}, marks[:2]...)
	}
	replacer := strings.NewReplacer(marks...)
	out := make(map[string]string, len(rows))
	for name, row := range rows {
		entries := strings.Count(row, "@")
		body := replacer.Replace(row)
		switch f {
		case FormatDIMACS:
			// Count "edge 1 2" and the like too: any line whose trimmed
			// text starts with 'e' is an edge line.
			entries = 0
			for _, line := range strings.Split(body, "\n") {
				if strings.HasPrefix(strings.TrimSpace(line), "e") {
					entries++
				}
			}
			body = fmt.Sprintf("p edge 9 %d\n", entries) + body
		case FormatMatrixMarket:
			banner := "%%MatrixMarket matrix coordinate pattern symmetric\n"
			if weighted {
				banner = "%%MatrixMarket matrix coordinate real general\n"
			}
			if name == "nnz-overflow" {
				entries = 2 // the third entry line overflows
			}
			body = banner + fmt.Sprintf("9 9 %d\n", entries) + body
		}
		out[name] = body
	}
	return out
}

func TestReaderParityTable(t *testing.T) {
	for name, input := range parityInputs() {
		elInput := input
		// Reuse the corpus for WEL by appending a weight column to edge
		// rows; error rows stay as-is (the u/v/header errors fire before
		// the weight parse, so the corpus still hits the same corners).
		welInput := addWeightColumn(input)
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("el/%s/workers=%d", name, workers), func(t *testing.T) {
				readBoth(t, elInput, FormatEdgeList, workers)
			})
			t.Run(fmt.Sprintf("wel/%s/workers=%d", name, workers), func(t *testing.T) {
				readBoth(t, welInput, FormatWeightedEdgeList, workers)
			})
		}
	}
	corpora := []struct {
		prefix string
		format Format
		inputs map[string]string
	}{
		{"wel", FormatWeightedEdgeList, welOnlyInputs()},
		{"dimacs", FormatDIMACS, dimacsInputs()},
		{"mm", FormatMatrixMarket, mmInputs()},
		{"metis", FormatMETIS, metisInputs()},
	}
	for _, b := range boundaryFormats {
		corpora = append(corpora, struct {
			prefix string
			format Format
			inputs map[string]string
		}{"boundary/" + b.name, b.format, boundaryInputs(b.format, b.weighted)})
	}
	for _, c := range corpora {
		for name, input := range c.inputs {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", c.prefix, name, workers), func(t *testing.T) {
					readBoth(t, input, c.format, workers)
				})
			}
		}
	}
}

// addWeightColumn appends " 1" to every line that looks like an edge
// row (two fields, not a header/comment), leaving faults untouched.
func addWeightColumn(input string) string {
	lines := strings.Split(input, "\n")
	for i, line := range lines {
		f := strings.Fields(line)
		if len(f) == 2 && f[0] != "n" && !strings.HasPrefix(strings.TrimSpace(line), "#") {
			lines[i] = line + " 1"
		}
	}
	return strings.Join(lines, "\n")
}

// assembleWeightedMap is the map-based assembly that the sort-merge of
// assembleWeighted replaced, kept as the oracle for its weights and
// for the mention its conflict error names.
func assembleWeightedMap(n int, edges [][2]int32, weights []float64) (*Data, error) {
	seen := make(map[[2]int32]float64, len(edges))
	b := graph.NewBuilder(n)
	for i, e := range edges {
		key := [2]int32{min(e[0], e[1]), max(e[0], e[1])}
		if prev, dup := seen[key]; dup {
			if prev != weights[i] {
				return nil, fmt.Errorf("graphio: conflicting weights %v and %v for edge {%d,%d}",
					prev, weights[i], e[0], e[1])
			}
			continue
		}
		seen[key] = weights[i]
		b.AddEdge(e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	ix := graph.NewEdgeIndex(g)
	w := make([]float64, ix.NumEdges())
	for key, weight := range seen {
		w[ix.ID(key[0], key[1])] = weight
	}
	wg, err := graph.NewWeighted(g, w)
	if err != nil {
		return nil, err
	}
	return FromWeighted(wg), nil
}

// TestAssembleWeightedMatchesMap holds the sort-merge to the map-based
// assembly on random mention lists: both orientations, duplicates,
// occasional conflicts, sorted and unsorted inputs, and vertex counts
// up to 2^20 so the radix sort runs on up to three bytes of each
// endpoint. Both must return the same weighted graph or the same
// error, which names the first conflicting mention in input order.
func TestAssembleWeightedMatchesMap(t *testing.T) {
	src := rng.New(5)
	conflicts := 0
	for trial := 0; trial < 300; trial++ {
		n := 2 + src.Intn(60)
		if trial%5 == 0 {
			n = 2 + src.Intn(1<<20)
		}
		mentions := src.Intn(4 * n)
		mentions = min(mentions, 5000)
		edges := make([][2]int32, 0, mentions)
		weights := make([]float64, 0, mentions)
		for len(edges) < mentions {
			u, v := int32(src.Intn(n)), int32(src.Intn(n))
			if u == v {
				continue
			}
			if len(edges) > 0 && src.Bool(0.3) {
				// Mention an earlier edge again, either way round.
				e := edges[src.Intn(len(edges))]
				u, v = e[1], e[0]
			}
			// One weight per edge, but about one mention in 400 disagrees.
			w := float64(1 + (min(u, v)*7+max(u, v)*3)%5)
			if src.Bool(1.0 / 400) {
				w += 0.5
			}
			edges = append(edges, [2]int32{u, v})
			weights = append(weights, w)
		}
		if trial%3 == 0 {
			// The sorted order every graphio writer produces.
			perm := make([]int, len(edges))
			for i := range perm {
				perm[i] = i
			}
			key := func(i int) uint64 { return graph.PackEdge(edges[i][0], edges[i][1]) }
			slices.SortStableFunc(perm, func(a, b int) int { return cmp.Compare(key(a), key(b)) })
			sortedE, sortedW := make([][2]int32, len(perm)), make([]float64, len(perm))
			for k, i := range perm {
				sortedE[k], sortedW[k] = edges[i], weights[i]
			}
			edges, weights = sortedE, sortedW
		}
		want, wantErr := assembleWeightedMap(n, edges, weights)
		got, gotErr := assembleWeighted(n, slices.Clone(edges), slices.Clone(weights))
		switch {
		case (wantErr == nil) != (gotErr == nil):
			t.Fatalf("trial %d: map err %v, sort-merge err %v", trial, wantErr, gotErr)
		case wantErr != nil:
			conflicts++
			if wantErr.Error() != gotErr.Error() {
				t.Fatalf("trial %d: error mismatch:\nmap:        %s\nsort-merge: %s", trial, wantErr, gotErr)
			}
		default:
			if a, b := renderGraphEL(t, want), renderGraphEL(t, got); a != b {
				t.Fatalf("trial %d: weighted graph mismatch", trial)
			}
		}
	}
	if conflicts == 0 || conflicts == 300 {
		t.Fatalf("%d of 300 trials conflicted: the corpus misses a case", conflicts)
	}
}

// buildLines renders lines rows, taking row i from mutate when it
// returns ok and from row otherwise.
func buildLines(lines int, row func(i int) string, mutate func(i int) (string, bool)) string {
	var sb strings.Builder
	for i := 0; i < lines; i++ {
		if s, ok := mutate(i); ok {
			sb.WriteString(s)
			continue
		}
		sb.WriteString(row(i))
	}
	return sb.String()
}

// TestReaderParityMultiShard plants faults deep inside inputs large
// enough to split across shards and windows: the reported error must be
// the earliest bad line with the exact global line number, headers must
// resolve last-one-wins, and clean parses must agree edge-for-edge.
func TestReaderParityMultiShard(t *testing.T) {
	build := func(lines int, mutate func(i int) (string, bool)) string {
		return buildLines(lines, func(i int) string {
			return fmt.Sprintf("%d %d\n", i%977, 1000+(i*7)%997)
		}, mutate)
	}
	cases := map[string]string{
		"clean": build(20000, func(int) (string, bool) { return "", false }),
		"error-mid": build(20000, func(i int) (string, bool) {
			if i == 12345 {
				return "bogus row\n", true
			}
			if i == 19999 {
				return "later error\n", true
			}
			return "", false
		}),
		"error-first-line": build(20000, func(i int) (string, bool) {
			if i == 0 {
				return "x y\n", true
			}
			return "", false
		}),
		"late-header": build(20000, func(i int) (string, bool) {
			if i == 15000 {
				return "n 3000\n", true
			}
			if i == 17000 {
				return "n 2500\n", true
			}
			return "", false
		}),
		"comment-dense": build(20000, func(i int) (string, bool) {
			if i%3 == 0 {
				return "# filler\n", true
			}
			if i%7 == 0 {
				return "\n", true
			}
			return "", false
		}),
	}
	for name, input := range cases {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				readBoth(t, input, FormatEdgeList, workers)
				readBoth(t, addWeightColumn(input), FormatWeightedEdgeList, workers)
			})
		}
	}
}

// TestReaderParityMultiShardPrelude runs DIMACS and MatrixMarket inputs
// of more than one window, with faults planted past the first window
// and between shards: the merge must report the earliest fault, a
// MatrixMarket entry-count overflow at its own line ahead of a later
// fault or a bad value on that line, and the DIMACS edge-line count
// only once every line parsed. About 4.3 MB of 4 KiB comment lines
// fill the first window, so the entry lines after them parse in the
// second one, split across shards.
func TestReaderParityMultiShardPrelude(t *testing.T) {
	const lines = 40000
	filler := func(comment string) string {
		return strings.Repeat(comment+" "+strings.Repeat("x", 4093)+"\n", 1100)
	}
	at := func(faults map[int]string) func(i int) (string, bool) {
		return func(i int) (string, bool) {
			s, ok := faults[i]
			return s, ok
		}
	}
	dimacsBody := func(faults map[int]string) string {
		return buildLines(lines, func(i int) string {
			return fmt.Sprintf("e %d %d\n", 1+i%977, 1000+(i*7)%997)
		}, at(faults))
	}
	dimacs := func(declared int, faults map[int]string) string {
		return fmt.Sprintf("c big\np edge 2000 %d\n", declared) + filler("c") + dimacsBody(faults)
	}
	mm := func(field string, nnz int, faults map[int]string) string {
		return fmt.Sprintf("%%%%MatrixMarket matrix coordinate %s general\n%% big\n2000 2000 %d\n", field, nnz) +
			filler("%") + buildLines(lines, func(i int) string {
			if field == "real" {
				return fmt.Sprintf("%d %d 1\n", 1000+(i*7)%997, 1+i%977)
			}
			return fmt.Sprintf("%d %d\n", 1000+(i*7)%997, 1+i%977)
		}, at(faults))
	}
	const far = 30000
	cases := []struct {
		name, want string // want is a fragment of the error, "" for none
		format     Format
		input      string
	}{
		{"dimacs/clean", "", FormatDIMACS, dimacs(lines-1, map[int]string{lines / 2: "c filler\n"})},
		{"dimacs/problem-line-past-window", "", FormatDIMACS, filler("c") + fmt.Sprintf("p edge 2000 %d\n", lines) + dimacsBody(nil)},
		{"dimacs/count-mismatch", "edge lines but problem line declared", FormatDIMACS, dimacs(lines+1, nil)},
		{"dimacs/error-past-window", "unknown DIMACS line", FormatDIMACS, dimacs(lines, map[int]string{far: "x 1 2\n", far + 5000: "e 5 5\n"})},
		{"dimacs/duplicate-problem-past-window", "duplicate problem line", FormatDIMACS, dimacs(lines, map[int]string{far: "p edge 2000 1\n"})},
		{"mm/clean", "", FormatMatrixMarket, mm("pattern", lines-1, map[int]string{lines / 2: "% filler\n"})},
		{"mm/overflow-past-window", "more than the declared", FormatMatrixMarket, mm("pattern", far, map[int]string{far + 5000: "x y\n"})},
		{"mm/error-before-overflow", "diagonal entry", FormatMatrixMarket, mm("pattern", far, map[int]string{far - 3: "5 5\n"})},
		{"mm/overflow-on-bad-value", "more than the declared", FormatMatrixMarket, mm("real", far, map[int]string{far: "5 6 -1\n", far + 1: "x\n"})},
		{"mm/bad-value-after-overflow", "more than the declared", FormatMatrixMarket, mm("real", far, map[int]string{far + 1: "5 6 -1\n"})},
		{"mm/real-clean", "", FormatMatrixMarket, mm("real", lines, nil)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := readBoth(t, tc.input, tc.format, 1, 4)
			if (err == nil) != (tc.want == "") || (err != nil && !strings.Contains(err.Error(), tc.want)) {
				t.Fatalf("got %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestReaderParityTooLong pins the token-too-long behavior: a line
// whose content reaches the format's cap must produce the scanner's
// exact ErrTooLong-wrapped error, while parse errors on earlier lines
// still win.
func TestReaderParityTooLong(t *testing.T) {
	long := strings.Repeat("x", elMaxLine+16)
	cases := map[string]string{
		"bare-long-line":   long,
		"after-good-lines": "n 8\n0 1\n" + long,
		"after-bad-line":   "zz 1\n" + long,
	}
	for name, input := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := readBoth(t, input, FormatEdgeList, 4)
			if name != "after-bad-line" && !strings.Contains(err.Error(), "token too long") {
				t.Fatalf("want token-too-long error, got %v", err)
			}
		})
	}
	// DIMACS and MatrixMarket share the 64 MiB cap of maxLine; the long
	// line is streamed, so no copy of it is held. A long line after good
	// entries is a TestReaderErrors row.
	streamed := []struct {
		name   string
		format Format
		head   string
		wantTL bool
	}{
		{"dimacs/prelude-long-line", FormatDIMACS, "c ok\nc ", true},
		{"dimacs/after-bad-line", FormatDIMACS, "p edge 3 1\ne 1 9\n", false},
		{"mm/banner-long-line", FormatMatrixMarket, "", true},
		{"mm/after-overflow", FormatMatrixMarket, "%%MatrixMarket matrix coordinate pattern general\n3 3 0\n2 1\n", false},
	}
	for _, tc := range streamed {
		t.Run(tc.name, func(t *testing.T) {
			open := func() io.Reader {
				return io.MultiReader(strings.NewReader(tc.head), io.LimitReader(repeatByte('x'), maxLine+16))
			}
			_, err := readBothFrom(t, open, tc.format, 1, 4)
			if got := err != nil && strings.Contains(err.Error(), "token too long"); got != tc.wantTL {
				t.Fatalf("token-too-long=%v, want %v: %v", got, tc.wantTL, err)
			}
		})
	}
}

// failReader yields its payload and then a non-EOF error, the way a
// broken pipe would.
type failReader struct {
	data []byte
	err  error
}

func (f *failReader) Read(p []byte) (int, error) {
	if len(f.data) == 0 {
		return 0, f.err
	}
	n := copy(p, f.data)
	f.data = f.data[n:]
	return n, nil
}

// TestReaderParityIOError pins the scanner's error ordering on stream
// failures: buffered complete and partial lines parse first (a parse
// error there wins), and only then does the I/O error surface — ahead
// of the end-of-input checks (missing prelude, entry counts).
func TestReaderParityIOError(t *testing.T) {
	boom := errors.New("boom")
	const mm = "%%MatrixMarket matrix coordinate pattern symmetric\n"
	cases := map[string]struct {
		format    Format
		input     string
		wantIOErr bool
	}{
		"clean-buffered-lines":          {FormatEdgeList, "n 4\n0 1\n2 3", true},
		"parse-error-buffered":          {FormatEdgeList, "n 4\nx y\n0 1", false},
		"partial-line-buffered":         {FormatEdgeList, "0 1\n2 3", true},
		"dimacs/clean-buffered-lines":   {FormatDIMACS, "p edge 4 2\ne 1 2\ne 3 4\n", true},
		"dimacs/parse-error-buffered":   {FormatDIMACS, "p edge 4 2\nx\ne 1 2", false},
		"dimacs/before-problem-line":    {FormatDIMACS, "c only a comment", true},
		"dimacs/count-short":            {FormatDIMACS, "p edge 4 2\ne 1 2", true},
		"mm/clean-buffered-lines":       {FormatMatrixMarket, mm + "4 4 2\n2 1\n4 3", true},
		"mm/parse-error-buffered":       {FormatMatrixMarket, mm + "4 4 2\n2 2\n4 3", false},
		"mm/overflow-buffered":          {FormatMatrixMarket, mm + "4 4 0\n2 1", false},
		"mm/before-size-line":           {FormatMatrixMarket, mm + "% c", true},
		"mm/before-banner":              {FormatMatrixMarket, "", true},
		"mm/partial-banner-buffered":    {FormatMatrixMarket, "%%MatrixMarket matrix", false},
		"mm/partial-size-line-buffered": {FormatMatrixMarket, mm + "4 4", false},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			open := func() io.Reader { return &failReader{data: []byte(tc.input), err: boom} }
			if _, err := readBothFrom(t, open, tc.format, 1, 4); tc.wantIOErr != errors.Is(err, boom) {
				t.Fatalf("scanner: wantIOErr=%v, got %v", tc.wantIOErr, err)
			}
			for _, w := range []int{1, 4} {
				if _, err := readFast(open(), tc.format, w, 0); tc.wantIOErr != errors.Is(err, boom) {
					t.Fatalf("workers=%d: wantIOErr=%v, got %v", w, tc.wantIOErr, err)
				}
			}
		})
	}
}

// TestReaderParityScenarios renders every catalog scenario to each
// format with a fast reader and demands the fast and scanner readers
// agree on the bytes, for sequential and forced multi-shard parses.
func TestReaderParityScenarios(t *testing.T) {
	for _, name := range scenario.Names() {
		t.Run(name, func(t *testing.T) {
			inst, err := scenario.Generate(name, 200, 7, nil)
			if err != nil {
				t.Fatalf("generate: %v", err)
			}
			d := Unweighted(inst.G)
			if inst.WG != nil {
				d = FromWeighted(inst.WG)
			}
			for _, f := range []Format{FormatEdgeList, FormatWeightedEdgeList, FormatDIMACS, FormatMatrixMarket} {
				if (d.WG != nil && !f.Weighted()) || (d.WG == nil && !f.Unweighted()) {
					continue
				}
				var buf bytes.Buffer
				if err := Write(&buf, d, f); err != nil {
					t.Fatalf("write %v: %v", f, err)
				}
				readBoth(t, buf.String(), f, 1, 4)
			}
			if d.WG != nil {
				var buf bytes.Buffer
				if err := WriteEdgeList(&buf, d.G); err != nil {
					t.Fatalf("write el: %v", err)
				}
				readBoth(t, buf.String(), FormatEdgeList, 1, 4)
			}
		})
	}
}

// TestWindowBoundaryParity slides small inputs across the window
// boundary via a reader that returns one byte per Read call, making the
// windower accumulate in the smallest possible increments.
func TestWindowBoundaryParity(t *testing.T) {
	inputs := []struct {
		format Format
		input  string
	}{
		{FormatEdgeList, "n 9\n0 1\n# c\n2 3\n\n4 5\n"},
		{FormatWeightedEdgeList, "n 9\n0 1 2\n# c\n2 3 0.5\n\n4 5 1e3\n"},
		{FormatDIMACS, "c c\n\np edge 9 3\ne 1 2\nc c\ne 3 4\n\ne 5 6"},
		{FormatMatrixMarket, "%%MatrixMarket matrix coordinate real symmetric\r\n% c\n\n9 9 3\n2 1 1\n% c\n4 3 2\n\n6 5 3"},
	}
	for _, in := range inputs {
		d, err := readBothFrom(t, func() io.Reader { return iotest1{strings.NewReader(in.input)} }, in.format, 1, 4)
		if err != nil || d.G.NumEdges() != 3 {
			t.Fatalf("%v: got %v, %v; want 3 edges", in.format, d, err)
		}
	}
}

// iotest1 is a one-byte-at-a-time reader (iotest.OneByteReader without
// the import).
type iotest1 struct{ r io.Reader }

func (o iotest1) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	return o.r.Read(p[:1])
}
