package graphio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"

	"mpcgraph/internal/graph"
	"mpcgraph/internal/par"
)

// This file is the fast parse path for every line-per-entry format:
// the edge list, the weighted edge list, DIMACS and MatrixMarket. A
// chunk-parallel byte-level scanner replaces bufio.Scanner +
// strings.Fields + strconv on the per-edge path. The contract is strict
// parity with the scanner-based readers (readEdgeListScanner,
// readWELScanner, readDIMACSScanner and readMatrixMarketScanner, kept
// as the reference implementation): identical parse results and
// byte-identical error strings on every input, pinned by the parity
// suite and the fuzz harnesses.
//
// Shape: a windower accumulates large reads and hands out windows of
// complete lines. A format's prelude (the MatrixMarket banner and size
// line, or the DIMACS comments and problem line) is parsed line by line
// with the reference logic. The rest of each window is split at line
// boundaries into one shard per worker; shards parse independently.
// A well-formed entry line is read in one byte loop (scanEntry); every
// other line goes to parseLine, an ASCII tokenizer and custom integer
// parser, and any line holding a byte >= 0x80 is tokenized by
// strings.Fields instead, since only it splits on Unicode whitespace.
// Shard results merge in shard order, which makes edge order, header
// precedence ("last header wins"), entry counts and the reported error
// (the earliest bad line) identical to the sequential scan for every
// worker count.

// readWindow is the window accumulation target. Windows always end on
// a line boundary, so their actual size is bounded by the line cap,
// not this constant.
const readWindow = 1 << 22

// elMaxLine mirrors the line cap ReadEdgeList has always had: a line
// whose content reaches this many bytes is reported exactly as
// bufio.Scanner.Buffer(..., 1<<24) would — token too long.
const elMaxLine = 1 << 24

// windower turns an io.Reader into windows of complete lines. A window
// aliases the internal buffer and is invalidated by the next call.
type windower struct {
	r        io.Reader
	maxLine  int
	size     int64 // the stream's length when known, else 0
	buf      []byte
	n        int   // buf[:n] is unconsumed
	consumed int   // prefix handed out by the previous next()
	lastNL   int   // index of the last '\n' in buf[:n], or -1
	scanned  int   // bytes of buf[:n] already scanned for '\n'
	done     bool  // reader exhausted
	ioErr    error // non-EOF read error, surfaced by the caller last
}

// next returns the next window of complete lines. tooLong reports that
// the line after the returned data reached maxLine (the scanner's
// token-too-long condition). final reports the last window, which may
// end without a newline; on final, w.ioErr carries any non-EOF read
// error, to be surfaced only if the window parses cleanly — matching
// bufio.Scanner, which emits the buffered tokens before reporting Err.
func (w *windower) next() (data []byte, tooLong, final bool) {
	if w.buf == nil {
		// A stream known to be shorter than a window gets a buffer one
		// byte longer than itself, room for the read that finds EOF; a
		// wrong length only costs the doubling below.
		n := readWindow
		if w.size > 0 && w.size < readWindow {
			n = int(w.size) + 1
		}
		w.buf = make([]byte, n)
		w.lastNL = -1
	}
	if w.consumed > 0 {
		// The previous window ran through its last newline, so the
		// remainder is one partial line with no '\n' in it.
		copy(w.buf, w.buf[w.consumed:w.n])
		w.n -= w.consumed
		w.consumed = 0
		w.lastNL = -1
		w.scanned = w.n
	}
	for {
		if i := bytes.LastIndexByte(w.buf[w.scanned:w.n], '\n'); i >= 0 {
			w.lastNL = w.scanned + i
		}
		w.scanned = w.n
		tail := w.n - (w.lastNL + 1) // trailing partial line
		switch {
		case tail >= w.maxLine:
			return w.consume(w.lastNL + 1), true, false
		case w.done:
			return w.consume(w.n), false, true
		case w.lastNL >= 0 && w.n >= readWindow:
			return w.consume(w.lastNL + 1), false, false
		}
		if w.n == len(w.buf) {
			grown := make([]byte, 2*len(w.buf))
			copy(grown, w.buf[:w.n])
			w.buf = grown
		}
		k, err := w.r.Read(w.buf[w.n:])
		w.n += k
		if err != nil {
			w.done = true
			if err != io.EOF {
				w.ioErr = err
			}
		}
	}
}

func (w *windower) consume(k int) []byte {
	w.consumed = k
	return w.buf[:k]
}

// cutLine splits data after its first line, dropping the '\n'.
func cutLine(data string) (line, rest string) {
	if nl := strings.IndexByte(data, '\n'); nl >= 0 {
		return data[:nl], data[nl+1:]
	}
	return data, ""
}

// asciiSpace marks the ASCII bytes unicode.IsSpace reports as space
// ('\n' excluded — it never appears inside a line).
var asciiSpace = [256]bool{'\t': true, '\v': true, '\f': true, '\r': true, ' ': true}

// Vertex-token parse statuses, mirroring parseVertex's two failure
// modes exactly.
const (
	vOK int8 = iota
	vBad
	vRange
)

// parseUintToken parses tok with strconv.ParseInt's base-10 grammar
// (optional sign, decimal digits, int64 range). ok is false where
// ParseInt fails or the value is negative; "-0" is 0.
func parseUintToken(tok string) (v uint64, ok bool) {
	neg := tok[0] == '-'
	if neg || tok[0] == '+' {
		tok = tok[1:]
	}
	if len(tok) > 18 {
		// Past 18 digits a value may leave int64: let strconv decide.
		v, err := strconv.ParseUint(tok, 10, 63)
		return v, err == nil && (!neg || v == 0)
	}
	if len(tok) == 0 {
		return 0, false
	}
	for i := 0; i < len(tok); i++ {
		d := uint64(tok[i] - '0')
		if d > 9 {
			return 0, false
		}
		v = v*10 + d
	}
	return v, !neg || v == 0
}

// parseVertexToken is parseVertex(tok, base, bound) without the error
// construction, for a bound of at most MaxVertices: "bad vertex" for a
// ParseInt failure or a value below base, "out of range" for an id at
// or past bound.
func parseVertexToken(tok string, base, bound int) (int32, int8) {
	v, ok := parseUintToken(tok)
	if !ok || v < uint64(base) {
		return 0, vBad
	}
	if v -= uint64(base); v >= uint64(bound) {
		return 0, vRange
	}
	return int32(v), vOK
}

// tokenizeASCII splits line into fields exactly as strings.Fields does
// for all-ASCII input, storing the first 4 tokens and counting the
// rest. ok=false reports a byte >= 0x80: the caller must tokenize the
// line with tokenizeFields, the only one that reproduces Unicode
// whitespace splitting.
//
// A blank line returns nt=0; a comment line (TrimSpace(line) starts
// with the comment byte) returns nt=-1.
func tokenizeASCII(line string, comment byte) (toks [4]string, nt int, ok bool) {
	i := skipSpace(line, 0)
	if i < len(line) && line[i] == comment {
		return toks, -1, true
	}
	for i < len(line) {
		c := line[i]
		if asciiSpace[c] {
			i++
			continue
		}
		if c >= 0x80 {
			return toks, 0, false
		}
		start := i
		for i < len(line) {
			c = line[i]
			if asciiSpace[c] {
				break
			}
			if c >= 0x80 {
				return toks, 0, false
			}
			i++
		}
		if nt < len(toks) {
			toks[nt] = line[start:i]
		}
		nt++
	}
	return toks, nt, true
}

// tokenizeFields is tokenizeASCII for any line, by strings.Fields. The
// first field starts with the comment byte exactly when the trimmed
// line does, since Fields and TrimSpace share unicode.IsSpace.
func tokenizeFields(line string, comment byte) (toks [4]string, nt int) {
	fields := strings.Fields(line)
	if len(fields) > 0 && fields[0][0] == comment {
		return toks, -1
	}
	copy(toks[:], fields)
	return toks, len(fields)
}

// lineKind classifies one parsed line for the shard merge.
type lineKind int8

const (
	lineSkip lineKind = iota
	lineHeader
	lineEdge
	lineErr
)

// lineVal is the outcome of parsing one line. mkErr builds the exact
// reader error once the merge knows the global line number; it is
// allocated only on the error path. counted marks an error line that
// the reference reader counts as an entry before raising the error
// (a MatrixMarket entry with a bad value), so an entry-count overflow
// on that line wins.
type lineVal struct {
	kind    lineKind
	counted bool
	u, v    int32
	wt      float64
	n       int
	mkErr   func(line int) error
}

// errLine is a line error; the merge prepends the global line number.
func errLine(format string, args ...any) lineVal {
	return lineVal{kind: lineErr, mkErr: func(line int) error {
		return fmt.Errorf("graphio: line %d: "+format, append([]any{line}, args...)...)
	}}
}

func vertexErr(tok string, st int8) lineVal {
	if st == vRange {
		return errLine("vertex %s out of range", tok)
	}
	return errLine("bad vertex %q", tok)
}

// bodySpec is the entry-line grammar of one format: everything a shard
// needs to parse its lines independently of the others.
type bodySpec struct {
	format   Format // FormatEdgeList, FormatWeightedEdgeList, FormatDIMACS or FormatMatrixMarket
	weighted bool   // entries carry a weight column
	comment  byte   // a line whose first field starts with it is skipped
	base     int    // id of the first vertex: 0 or 1
	bound    int    // ids at or past base+bound are out of range
	nnz      int64  // MatrixMarket's declared entry count, -1 elsewhere
}

// parseLine parses one raw line (no '\n').
func (sp *bodySpec) parseLine(line string) lineVal {
	toks, nt, ascii := tokenizeASCII(line, sp.comment)
	if !ascii {
		toks, nt = tokenizeFields(line, sp.comment)
	}
	if nt <= 0 {
		return lineVal{kind: lineSkip} // blank (0) or comment (-1)
	}
	// The endpoint tokens and, in weighted formats, the weight token.
	ut, vt, wt := toks[0], toks[1], toks[2]
	switch sp.format {
	case FormatDIMACS:
		switch toks[0][0] {
		case 'p':
			return errLine("duplicate problem line")
		case 'e': // any field starting with 'e', as in the reference
			if nt != 3 {
				return errLine("want 'e <u> <v>', got %q", strings.TrimSpace(line))
			}
			ut, vt = toks[1], toks[2]
		default:
			return errLine("unknown DIMACS line %q", strings.TrimSpace(line))
		}
	case FormatMatrixMarket:
		want := 2
		if sp.weighted {
			want = 3
		}
		if nt != want {
			return errLine("want %d fields, got %q", want, strings.TrimSpace(line))
		}
	default:
		if toks[0] == "n" {
			if nt != 2 {
				return errLine("header must be 'n <count>'")
			}
			n, ok := parseUintToken(toks[1])
			if !ok || n > MaxVertices {
				return errLine("bad vertex count %q (limit %d)", toks[1], MaxVertices)
			}
			return lineVal{kind: lineHeader, n: int(n)}
		}
		want, label := 2, "u v"
		if sp.weighted {
			want, label = 3, "u v w"
		}
		if nt != want {
			return errLine("want '%s', got %q", label, strings.TrimSpace(line))
		}
	}
	u, st := parseVertexToken(ut, sp.base, sp.bound)
	if st != vOK {
		return vertexErr(ut, st)
	}
	v, st := parseVertexToken(vt, sp.base, sp.bound)
	if st != vOK {
		return vertexErr(vt, st)
	}
	if u == v {
		if sp.format == FormatMatrixMarket {
			return errLine("diagonal entry (self-loop) at %d", u+1)
		}
		return errLine("self-loop at %d", int(u)+sp.base)
	}
	lv := lineVal{kind: lineEdge, u: u, v: v}
	if sp.weighted {
		w, err := strconv.ParseFloat(wt, 64)
		if err != nil || !(w > 0) || w > 1e308 {
			bad := errLine("edge weight %q must be a positive finite number", wt)
			bad.counted = true // the reference counts the entry first
			return bad
		}
		lv.wt = w
	}
	return lv
}

// shardState is one worker's parse of its slice of a window.
type shardState struct {
	keys      []uint64   // unweighted: packed edges, in input order (reused)
	edges     [][2]int32 // weighted: edges as read, in input order (reused)
	weights   []float64  // weighted: parallel weights (reused)
	lines     int        // lines consumed, including the error line
	entries   int64      // entry lines, including a counted error line
	maxSeen   int32
	headerN   int
	headerSet bool
	errVal    lineVal // kind==lineErr when the shard stopped on an error
}

func (s *shardState) reset() {
	s.keys = s.keys[:0]
	s.edges = s.edges[:0]
	s.weights = s.weights[:0]
	s.lines = 0
	s.entries = 0
	s.maxSeen = -1
	s.headerSet = false
	s.errVal = lineVal{}
}

// text is what the byte scans read: a window of a line format, or a
// METIS vertex line as bufio.Scanner holds it.
type text interface{ ~string | ~[]byte }

// skipSpace returns the index of the first byte at or after i that is
// not in asciiSpace.
func skipSpace[T text](data T, i int) int {
	for i < len(data) && asciiSpace[data[i]] {
		i++
	}
	return i
}

// scanID reads the unsigned id of 1 to 18 digits at data[i:], which
// must end at ASCII space, '\n' or the end of data, and returns it
// 0-based with the index past its digits. ok is false for any other
// token, for more than 18 digits (where a value may leave int64: the
// reference parse decides), and, as in parseVertex, for an id below
// base or at or past base+bound.
func scanID[T text](data T, i, base, bound int) (id int32, end int, ok bool) {
	start := i
	var v uint64
	for ; i < len(data); i++ {
		d := uint64(data[i] - '0')
		if d > 9 {
			break
		}
		v = v*10 + d
	}
	if n := i - start; n == 0 || n > 18 || v < uint64(base) || v-uint64(base) >= uint64(bound) ||
		(i < len(data) && !asciiSpace[data[i]] && data[i] != '\n') {
		return 0, i, false
	}
	return int32(v - uint64(base)), i, true
}

// scanWeight reads the weight token at data[i:], which ends at ASCII
// space, '\n' or the end of data, and returns it with the index past
// it. ok is false where parseWeight fails: unless strconv.ParseFloat
// reads a positive finite number. ParseFloat takes no byte >= 0x80, so
// a token running into Unicode space, which only strings.Fields splits
// on, fails here and is left to the reference tokenizer.
func scanWeight[T text](data T, i int) (w float64, end int, ok bool) {
	start := i
	for i < len(data) && !asciiSpace[data[i]] && data[i] != '\n' {
		i++
	}
	w, err := strconv.ParseFloat(string(data[start:i]), 64)
	return w, i, err == nil && w > 0 && w <= 1e308
}

// scanEntry reads the entry line that starts at data[pos] in one pass
// over its bytes, when it is a well-formed entry: optional ASCII space,
// the DIMACS "e" token and space, an id, space and a second id, in the
// weighted formats space and a weight, then optional space and '\n' or
// the end of data. It returns the entry parseLine would return for the
// line and the index past its '\n'. On any other byte or any failed
// check it returns ok=false and the caller hands the line to parseLine,
// which stays the only reader of headers, comments and errors; so every
// line scanEntry accepts, parseLine accepts with the same result.
func (sp *bodySpec) scanEntry(data string, pos int) (u, v int32, wt float64, next int, ok bool) {
	i := skipSpace(data, pos)
	if sp.format == FormatDIMACS {
		if i+1 >= len(data) || data[i] != 'e' || !asciiSpace[data[i+1]] {
			return 0, 0, 0, 0, false
		}
		i = skipSpace(data, i+1)
	}
	if u, i, ok = scanID(data, i, sp.base, sp.bound); !ok {
		return 0, 0, 0, 0, false
	}
	if v, i, ok = scanID(data, skipSpace(data, i), sp.base, sp.bound); !ok || u == v {
		return 0, 0, 0, 0, false
	}
	if sp.weighted {
		if wt, i, ok = scanWeight(data, skipSpace(data, i)); !ok {
			return 0, 0, 0, 0, false
		}
	}
	if i = skipSpace(data, i); i < len(data) {
		if data[i] != '\n' {
			return 0, 0, 0, 0, false
		}
		i++
	}
	return u, v, wt, i, true
}

// admit counts one entry against the shard's limit, or records
// MatrixMarket's "more than the declared nnz entries" error at it.
func (s *shardState) admit(sp *bodySpec, limit int64) bool {
	if s.entries == limit {
		s.errVal = errLine("more than the declared %d entries", sp.nnz)
		return false
	}
	s.entries++
	return true
}

// add records one edge.
func (s *shardState) add(weighted bool, u, v int32, wt float64) {
	s.maxSeen = max(s.maxSeen, u, v)
	if weighted {
		s.edges = append(s.edges, [2]int32{u, v})
		s.weights = append(s.weights, wt)
	} else {
		s.keys = append(s.keys, graph.PackEdge(u, v))
	}
}

// parseShard parses the complete lines in data (the final line may
// lack its '\n'), stopping at the first error. Each line goes to
// scanEntry first and to parseLine only when scanEntry cannot vouch for
// it. limit, when non-negative, is the number of entries the shard may
// hold before the next one is MatrixMarket's "more than the declared
// nnz entries".
func parseShard(data string, sp *bodySpec, s *shardState, limit int64) {
	s.reset()
	for pos := 0; pos < len(data); {
		s.lines++
		if u, v, wt, next, ok := sp.scanEntry(data, pos); ok {
			if !s.admit(sp, limit) {
				return
			}
			s.add(sp.weighted, u, v, wt)
			pos = next
			continue
		}
		line := data[pos:]
		if nl := strings.IndexByte(line, '\n'); nl >= 0 {
			line = line[:nl]
		}
		pos += len(line) + 1
		lv := sp.parseLine(line)
		if (lv.kind == lineEdge || lv.counted) && !s.admit(sp, limit) {
			return
		}
		switch lv.kind {
		case lineHeader:
			s.headerN = lv.n
			s.headerSet = true
		case lineEdge:
			s.add(sp.weighted, lv.u, lv.v, lv.wt)
		case lineErr:
			s.errVal = lv
			return
		}
	}
}

// lineCuts splits data into up to want shard boundaries aligned to
// line ends: cuts[i]:cuts[i+1] are whole lines. The final cut is
// always len(data).
func lineCuts(data string, want int) []int {
	cuts := make([]int, 1, want+1)
	for w := 1; w < want; w++ {
		target := len(data) * w / want
		if target <= cuts[len(cuts)-1] {
			continue
		}
		nl := strings.IndexByte(data[target:], '\n')
		if nl < 0 {
			break
		}
		end := target + nl + 1
		if end > cuts[len(cuts)-1] && end < len(data) {
			cuts = append(cuts, end)
		}
	}
	cuts = append(cuts, len(data))
	return cuts
}

// fastReader drives the window/shard machinery shared by every
// line-per-entry format.
type fastReader struct {
	spec    bodySpec
	workers int
	maxLine int
	// prelude, until it reports done, takes each line (raw, without
	// its '\n') before the shards see any: the header lines a format
	// parses sequentially with the reference logic.
	prelude func(raw string, lineNo int) (done bool, err error)

	n        int // last "n" header value, -1 when undeclared
	maxSeen  int32
	lineBase int
	entries  int64

	// size is the stream's length in bytes when known (an uncompressed
	// file), else 0; read counts the bytes of the windows so far.
	size int64
	read int64

	keys    []uint64
	edges   [][2]int32
	weights []float64

	shards []shardState
}

func newFastReader(spec bodySpec, workers, maxLine int, size int64) *fastReader {
	return &fastReader{spec: spec, workers: workers, maxLine: maxLine, n: -1, maxSeen: -1, size: size}
}

// run consumes r entirely, returning the first error exactly as the
// scanner-based reader would.
func (fr *fastReader) run(r io.Reader) error {
	w := &windower{r: r, maxLine: fr.maxLine, size: fr.size}
	for {
		data, tooLong, final := w.next()
		fr.read += int64(len(data))
		if err := fr.window(string(data)); err != nil {
			return err
		}
		if tooLong {
			return fmt.Errorf("graphio: %w", bufio.ErrTooLong)
		}
		if final {
			if w.ioErr != nil {
				return fmt.Errorf("graphio: %w", w.ioErr)
			}
			return nil
		}
	}
}

// window parses one window of complete lines: prelude lines first, one
// at a time, then the body.
func (fr *fastReader) window(data string) error {
	for fr.prelude != nil && len(data) > 0 {
		var line string
		line, data = cutLine(data)
		fr.lineBase++
		done, err := fr.prelude(line, fr.lineBase)
		if err != nil {
			return err
		}
		if done {
			fr.prelude = nil
		}
	}
	if len(data) == 0 {
		return nil
	}
	return fr.body(data)
}

// body fans the lines of data out across shards and merges them in
// shard order. The first fault in shard order is found before anything
// is merged, so the window need not stay reachable while the merge
// grows the edge slices.
func (fr *fastReader) body(data string) error {
	cuts := lineCuts(data, par.ShardCount(fr.workers, len(data)))
	nShards := len(cuts) - 1
	for len(fr.shards) < nShards {
		fr.shards = append(fr.shards, shardState{})
	}
	if nShards == 1 {
		parseShard(data, &fr.spec, &fr.shards[0], -1)
	} else {
		var wg sync.WaitGroup
		wg.Add(nShards)
		for i := 0; i < nShards; i++ {
			go func(i int) {
				defer wg.Done()
				parseShard(data[cuts[i]:cuts[i+1]], &fr.spec, &fr.shards[i], -1)
			}(i)
		}
		wg.Wait()
	}
	lines, entries := fr.lineBase, fr.entries
	for i := 0; i < nShards; i++ {
		s := &fr.shards[i]
		if fr.spec.nnz >= 0 && entries+s.entries > fr.spec.nnz {
			// The overflowing entry lies in this shard, at or before any
			// error it stopped on: parse it again on the exact budget
			// left to find that entry's line.
			parseShard(data[cuts[i]:cuts[i+1]], &fr.spec, s, fr.spec.nnz-entries)
		}
		if s.errVal.kind == lineErr {
			return s.errVal.mkErr(lines + s.lines)
		}
		lines += s.lines
		entries += s.entries
	}
	fr.reserve(int(entries - fr.entries))
	fr.lineBase, fr.entries = lines, entries
	for i := 0; i < nShards; i++ {
		s := &fr.shards[i]
		if s.headerSet {
			fr.n = s.headerN
		}
		fr.maxSeen = max(fr.maxSeen, s.maxSeen)
		if fr.spec.weighted {
			fr.edges = append(fr.edges, s.edges...)
			fr.weights = append(fr.weights, s.weights...)
		} else {
			fr.keys = append(fr.keys, s.keys...)
		}
	}
	return nil
}

// reserve makes room for add more merged entries. Without a known
// stream length, append grows the slices as before. With one, a merge
// that outgrows them sizes them for the entries the windows so far
// predict: those entries scaled from the bytes read to the whole
// length, plus 1/32 of slack, so a file's edges are allocated once
// instead of regrown window by window. The prediction rests on bytes
// read, never on a count the input declares; an entry line takes at
// least three bytes, so it comes to about a third of the length at
// most. A prediction the merge has already passed leaves the growth to
// append.
func (fr *fastReader) reserve(add int) {
	have, room := len(fr.keys), cap(fr.keys)
	if fr.spec.weighted {
		have, room = len(fr.edges), cap(fr.edges)
	}
	if fr.size <= 0 || have+add <= room {
		return
	}
	entries := float64(have + add)
	want := int(entries*float64(fr.size)/float64(fr.read) + entries/32)
	if want <= have+add {
		return
	}
	if fr.spec.weighted {
		fr.edges = slices.Grow(fr.edges, want-have)
		fr.weights = slices.Grow(fr.weights, want-have)
	} else {
		fr.keys = slices.Grow(fr.keys, want-have)
	}
}

// finishN resolves the final vertex count and the out-of-range check
// of the native formats, shared verbatim with the scanner readers.
func (fr *fastReader) finishN() (int, error) {
	n := fr.n
	if n < 0 {
		n = int(fr.maxSeen) + 1
	}
	if int(fr.maxSeen) >= n {
		return 0, fmt.Errorf("graphio: vertex %d out of range for declared n=%d", fr.maxSeen, n)
	}
	return n, nil
}

// assemble builds the parsed instance on n vertices.
func (fr *fastReader) assemble(n int) (*Data, error) {
	if fr.spec.weighted {
		return assembleWeighted(n, fr.edges, fr.weights)
	}
	g, err := graph.FromPackedEdges(n, fr.keys)
	if err != nil {
		return nil, fmt.Errorf("graphio: %w", err)
	}
	return Unweighted(g), nil
}

// readNativeFast is the chunk-parallel reader of the edge list and, when
// weighted, the weighted edge list.
func readNativeFast(r io.Reader, weighted bool, workers int, size int64) (*Data, error) {
	f, lineCap := FormatEdgeList, elMaxLine
	if weighted {
		f, lineCap = FormatWeightedEdgeList, maxLine
	}
	fr := newFastReader(bodySpec{format: f, weighted: weighted, comment: '#', bound: MaxVertices, nnz: -1}, workers, lineCap, size)
	if err := fr.run(r); err != nil {
		return nil, err
	}
	n, err := fr.finishN()
	if err != nil {
		return nil, err
	}
	return fr.assemble(n)
}

// readDIMACSFast is the chunk-parallel DIMACS reader behind
// Read(FormatDIMACS). Lines up to the problem line are the prelude.
func readDIMACSFast(r io.Reader, workers int, size int64) (*Data, error) {
	fr := newFastReader(bodySpec{format: FormatDIMACS, comment: 'c', base: 1, nnz: -1}, workers, maxLine, size)
	declared := int64(-1)
	fr.prelude = func(raw string, lineNo int) (bool, error) {
		line := strings.TrimSpace(raw)
		if line == "" || line[0] == 'c' {
			return false, nil
		}
		if line[0] != 'p' {
			return false, dimacsLineErr(line, lineNo)
		}
		n, m, err := parseDIMACSProblem(line, lineNo)
		fr.spec.bound, declared = n, m
		return true, err
	}
	if err := fr.run(r); err != nil {
		return nil, err
	}
	if declared < 0 {
		return nil, fmt.Errorf("graphio: missing DIMACS problem line")
	}
	if fr.entries != declared {
		return nil, fmt.Errorf("graphio: %d edge lines but problem line declared %d", fr.entries, declared)
	}
	return fr.assemble(fr.spec.bound)
}

// readMatrixMarketFast is the chunk-parallel MatrixMarket reader behind
// Read(FormatMatrixMarket). The banner and the size line are the
// prelude.
func readMatrixMarketFast(r io.Reader, workers int, size int64) (*Data, error) {
	fr := newFastReader(bodySpec{format: FormatMatrixMarket, comment: '%', base: 1, nnz: -1}, workers, maxLine, size)
	fr.prelude = func(raw string, lineNo int) (bool, error) {
		if lineNo == 1 {
			// The banner error quotes the line as bufio.ScanLines
			// returns it: without one trailing '\r'.
			weighted, err := parseMMBanner(strings.TrimSuffix(raw, "\r"))
			fr.spec.weighted = weighted
			return false, err
		}
		line := strings.TrimSpace(raw)
		if line == "" || line[0] == '%' {
			return false, nil
		}
		n, nnz, err := parseMMSize(line, lineNo)
		fr.spec.bound, fr.spec.nnz = n, nnz
		return true, err
	}
	if err := fr.run(r); err != nil {
		return nil, err
	}
	switch {
	case fr.lineBase == 0:
		return nil, fmt.Errorf("graphio: missing MatrixMarket banner")
	case fr.prelude != nil:
		return nil, fmt.Errorf("graphio: missing MatrixMarket size line")
	case fr.entries != fr.spec.nnz:
		return nil, fmt.Errorf("graphio: %d entries but size line declared %d", fr.entries, fr.spec.nnz)
	}
	return fr.assemble(fr.spec.bound)
}
