package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math/bits"
)

// decodeJobRequest decodes a POST /v1/jobs body as
// json.NewDecoder(body) with DisallowUnknownFields decodes its first
// value: the same request or the same error text, and read errors are
// returned as they came. size is the declared body length, -1 when
// unknown. On a well-formed body reading stops where encoding/json
// stops; on a malformed one it may go on until the brackets balance or
// the body ends, and encoding/json then reports the error it would have.
//
// An upload's graph.content string holds megabytes of graph text, and
// encoding/json spends about 10 ns on each of its bytes. So the body is
// read into one buffer, a walk of the top-level and graph objects finds
// the content token, encoding/json decodes the body with that token
// replaced by "", and a byte loop unescapes the token into
// Graph.Content. A body the walk cannot vouch for is decoded by
// encoding/json in full, which stays the reference.
func decodeJobRequest(body io.Reader, size int64) (*JobRequest, error) {
	buf, end, err := readFirstObject(body, size)
	if end > 0 {
		if req := decodeUpload(buf[:end]); req != nil {
			return req, nil
		}
	}
	tail := body
	if err != nil {
		tail = errReader{err}
	}
	return decodeJSON(io.MultiReader(bytes.NewReader(buf), tail))
}

// decodeJSON is the reference decode.
func decodeJSON(r io.Reader) (*JobRequest, error) {
	var req JobRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	return &req, nil
}

// errReader replays the error that stopped readFirstObject.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// minRead is the smallest buffer readFirstObject reads into, as for
// json.Decoder.
const minRead = 512

// readFirstObject reads body until its first JSON value ends. It returns
// the bytes read, the offset just past the value, and the error of the
// last read. end is 0, and reading stops, when the value is not an
// object, when one of its strings holds a byte unescape does not
// decode, or when the body ends or fails first.
//
// The buffer doubles as json.Decoder's does, but jumps to a declared
// size once that is at most eight times what has arrived: an honest
// Content-Length ends in one buffer of exactly the body's length, and a
// false one never costs more than eight times the bytes that came.
func readFirstObject(body io.Reader, size int64) (buf []byte, end int, err error) {
	var sc objectScan
	for {
		if len(buf) == cap(buf) {
			c := max(2*len(buf), minRead)
			if n := int64(len(buf)); n < size && size <= 8*max(n, minRead) {
				c = int(size)
			}
			buf = append(make([]byte, 0, c), buf...)
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		// Like json.Decoder, scan what arrived before looking at the
		// error that came with it.
		if end, ok := sc.scan(buf, len(buf)-n); end > 0 || !ok || err != nil {
			return buf, end, err
		}
	}
}

// objectScan follows a body's first JSON value across reads: the
// nesting depth and the string state, which is enough to find where a
// well-formed object ends. It vouches only for an object whose strings
// hold printable ASCII and the escapes of unescaped; anything else it
// leaves to encoding/json.
type objectScan struct {
	depth             int
	inString, escaped bool
}

// scan advances over b[from:]. It returns the offset just past the
// object's closing brace once it is reached, and ok false at the first
// byte it cannot vouch for.
func (sc *objectScan) scan(b []byte, from int) (end int, ok bool) {
	depth, inString, escaped := sc.depth, sc.inString, sc.escaped
	i := from
	if escaped && i < len(b) {
		if unescaped[b[i]] == 0 {
			return 0, false
		}
		escaped = false
		i++
	}
	for i < len(b) {
		if inString {
			for i+8 <= len(b) {
				if m := specialBytes(binary.LittleEndian.Uint64(b[i:])); m != 0 {
					i += bits.TrailingZeros64(m) / 8
					break
				}
				i += 8
			}
			for i < len(b) && plain[b[i]] {
				i++
			}
			if i == len(b) {
				break
			}
			c := b[i]
			i++
			switch {
			case c == '"':
				inString = false
			case c != '\\':
				return 0, false
			case i == len(b):
				escaped = true
			case unescaped[b[i]] == 0:
				return 0, false
			default:
				i++
			}
			continue
		}
		c := b[i]
		i++
		switch {
		case depth == 0:
			if c == '{' {
				depth = 1
			} else if !isSpace(c) {
				return 0, false
			}
		case c == '"':
			inString = true
		case c == '{' || c == '[':
			depth++
		case c == '}' || c == ']':
			depth--
			if depth == 0 {
				return i, true
			}
		}
	}
	sc.depth, sc.inString, sc.escaped = depth, inString, escaped
	return 0, true
}

const ones, highs = 0x0101010101010101, 0x8080808080808080

// specialBytes flags, in the high bit of each byte of x, the bytes of
// a string that plain does not mark: below ' ', at or above 0x80, '"'
// and '\\'. A borrow can flag a byte above a flagged one, so only the
// lowest flag is exact, and that is the one the callers read.
func specialBytes(x uint64) uint64 {
	return (x|(x-ones*' ')&^x)&highs | matching(x, '"') | matching(x, '\\')
}

// matching flags the bytes of x equal to c, as specialBytes does.
func matching(x uint64, c byte) uint64 {
	y := x ^ ones*uint64(c)
	return (y - ones) &^ y & highs
}

// plain marks the bytes a string holds as themselves: printable ASCII
// other than the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := ' '; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// unescaped maps the byte after a backslash to the byte the escape
// stands for; 0 marks an escape unescape leaves to encoding/json
// (\u, or one that is not JSON).
var unescaped = [256]byte{
	'"': '"', '\\': '\\', '/': '/',
	'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t',
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

// decodeUpload decodes one whole object that objectScan vouched for,
// or returns nil when the object has no graph.content token the walk
// can place, or when the rest of the object does not decode.
func decodeUpload(b []byte) *JobRequest {
	at, to, ok := findContent(b)
	if !ok {
		return nil
	}
	rest := make([]byte, 0, len(b)-(to-at)+2)
	rest = append(append(append(rest, b[:at]...), `""`...), b[to:]...)
	req, err := decodeJSON(bytes.NewReader(rest))
	if err != nil || req.Graph == nil {
		return nil
	}
	req.Graph.Content = string(unescape(b[at+1 : to-1]))
	return req
}

// unescape decodes a string token's body in place. The body holds only
// what objectScan vouched for: printable ASCII and complete escapes of
// unescaped.
func unescape(s []byte) []byte {
	w := bytes.IndexByte(s, '\\')
	if w < 0 {
		return s
	}
	for r := w; r < len(s); {
		// Once the output trails the input by eight bytes, a word store
		// reaches no unread byte, so words move up to the next escape.
		if r-w >= 8 && r+8 <= len(s) {
			x := binary.LittleEndian.Uint64(s[r:])
			binary.LittleEndian.PutUint64(s[w:], x)
			k := 8
			if m := matching(x, '\\'); m != 0 {
				k = bits.TrailingZeros64(m) / 8
			}
			w, r = w+k, r+k
			if k == 8 {
				continue
			}
		}
		c := s[r]
		if c == '\\' {
			r++
			c = unescaped[s[r]]
		}
		s[w] = c
		w++
		r++
	}
	return s[:w]
}

// findContent walks the top-level object of b, a whole object that
// objectScan vouched for, and returns the span of the graph.content
// string token, quotes included. It fails unless it can place that
// token as encoding/json would: keys are matched case-insensitively, so
// a key with an escape, or two keys that fold to graph or to content,
// leave the body to encoding/json. The walk and objectScan agree on
// every string boundary, because every quote the walk meets outside a
// string either opens one or fails the walk, so the token holds only
// vouched-for bytes.
func findContent(b []byte) (at, to int, ok bool) {
	w := walker{b: b}
	graphs, contents := 0, 0
	ok = w.object(func(key []byte) bool {
		if !foldKey(key, "graph") {
			return w.skip()
		}
		graphs++
		if w.peek() != '{' {
			return w.skip()
		}
		return w.object(func(key []byte) bool {
			if !foldKey(key, "content") {
				return w.skip()
			}
			contents++
			if w.peek() != '"' {
				return w.skip()
			}
			at = w.i
			_, ok := w.str()
			to = w.i
			return ok
		})
	})
	return at, to, ok && w.i == len(b) && graphs == 1 && contents == 1 && to > at
}

// walker is a cursor over a whole JSON object.
type walker struct {
	b []byte
	i int
}

// peek skips white space and returns the next byte, 0 at the end.
func (w *walker) peek() byte {
	for w.i < len(w.b) && isSpace(w.b[w.i]) {
		w.i++
	}
	if w.i == len(w.b) {
		return 0
	}
	return w.b[w.i]
}

// consume skips white space and then c, reporting whether c was next.
func (w *walker) consume(c byte) bool {
	if w.peek() != c {
		return false
	}
	w.i++
	return true
}

// object walks an object, calling member with each key, with the cursor
// on the key's value, which member must consume. A key with an escape
// fails the walk.
func (w *walker) object(member func(key []byte) bool) bool {
	if !w.consume('{') {
		return false
	}
	if w.consume('}') {
		return true
	}
	for {
		if w.peek() != '"' {
			return false
		}
		key, ok := w.str()
		if !ok || bytes.IndexByte(key, '\\') >= 0 || !w.consume(':') || !member(key) {
			return false
		}
		if !w.consume(',') {
			return w.consume('}')
		}
	}
}

// str consumes the string token at the cursor and returns its body.
func (w *walker) str() ([]byte, bool) {
	start := w.i + 1
	for i := start; ; i++ {
		q := bytes.IndexByte(w.b[i:], '"')
		if q < 0 {
			return nil, false
		}
		i += q
		slashes := 0
		for i-slashes-1 >= start && w.b[i-slashes-1] == '\\' {
			slashes++
		}
		if slashes%2 == 0 {
			w.i = i + 1
			return w.b[start:i], true
		}
	}
}

// skip consumes one value. Only strings and brackets are matched;
// encoding/json checks the rest when it decodes the object.
func (w *walker) skip() bool {
	switch w.peek() {
	case '"':
		_, ok := w.str()
		return ok
	case '{', '[':
		depth := 0
		for w.i < len(w.b) {
			switch w.b[w.i] {
			case '"':
				if _, ok := w.str(); !ok {
					return false
				}
				continue
			case '{', '[':
				depth++
			case '}', ']':
				depth--
				if depth == 0 {
					w.i++
					return true
				}
			}
			w.i++
		}
		return false
	}
	// A number or a literal: true, false or null.
	start := w.i
	for w.i < len(w.b) && literalByte(w.b[w.i]) {
		w.i++
	}
	return w.i > start
}

func literalByte(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' ||
		c == '-' || c == '+' || c == '.'
}

// foldKey reports whether key matches the lower-case field name as
// encoding/json matches an ASCII key: ignoring case.
func foldKey(key []byte, name string) bool {
	if len(key) != len(name) {
		return false
	}
	for i := range key {
		if key[i]|0x20 != name[i] {
			return false
		}
	}
	return true
}
