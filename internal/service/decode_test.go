package service

import (
	"bytes"
	"compress/gzip"
	"encoding/base64"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"mpcgraph"
	"mpcgraph/internal/graphio"
	"mpcgraph/internal/raceflag"
)

// errBodyRead is the failure a test body reader reports.
var errBodyRead = errors.New("body read failed")

// failingBody serves its text, then fails every read with errBodyRead,
// or only the first one and then reports io.EOF when once is set.
type failingBody struct {
	text       string
	once, done bool
}

func (b *failingBody) Read(p []byte) (int, error) {
	if b.done {
		return 0, io.EOF
	}
	if b.text == "" {
		b.done = b.once
		return 0, errBodyRead
	}
	n := copy(p, b.text)
	b.text = b.text[n:]
	return n, nil
}

// uploadHead opens an upload body up to its content value.
const uploadHead = `{"problem":"mis","graph":{"format":"el","content":`

// badBodies are bodies encoding/json cannot decode, with its error text.
var badBodies = []struct{ name, body, want string }{
	{"empty", "", "EOF"},
	{"open brace", "{", "unexpected EOF"},
	{"cut inside content", uploadHead + `"0 1\n1 2`, "unexpected EOF"},
	{"unknown top-level field", `{"problem":"mis","nope":1}`, `json: unknown field "nope"`},
	{"unknown graph field", uploadHead + `"0 1\n","nope":true}}`, `json: unknown field "nope"`},
	{"content number", uploadHead + `12}}`,
		"json: cannot unmarshal number into Go struct field GraphRequest.graph.content of type string"},
	{"graph string", `{"problem":"mis","graph":"0 1"}`,
		"json: cannot unmarshal string into Go struct field JobRequest.graph of type service.GraphRequest"},
	{"control byte in content", uploadHead + "\"0 1\x01\"}}", `invalid character '\x01' in string literal`},
	{"bad escape in content", uploadHead + `"0 1\x"}}`, `invalid character 'x' in string escape code`},
}

// TestSubmitBodyErrors pins the status and the full text of every way
// POST /v1/jobs rejects a body it cannot decode.
func TestSubmitBodyErrors(t *testing.T) {
	s := idleServer(t, Config{})
	h := s.Handler()
	type row struct {
		name string
		body io.Reader
		want string
	}
	rows := []row{{"reader fails mid-content", &failingBody{text: uploadHead + `"0 1\n1 2\n`}, errBodyRead.Error()}}
	for _, tc := range badBodies {
		rows = append(rows, row{tc.name, strings.NewReader(tc.body), tc.want})
	}
	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", tc.body))
			if rec.Code != 400 {
				t.Fatalf("status %d (%s), want 400", rec.Code, rec.Body)
			}
			var got errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
				t.Fatalf("error body %q: %v", rec.Body, err)
			}
			if want := "service: bad request body: " + tc.want; got.Error != want {
				t.Errorf("error %q, want %q", got.Error, want)
			}
		})
	}
}

// referenceDecode is the decode decodeJobRequest must match.
func referenceDecode(r io.Reader) (*JobRequest, error) {
	var req JobRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return &req, dec.Decode(&req)
}

// sameRequest is reflect.DeepEqual with float bits compared exactly.
func sameRequest(a, b *JobRequest) bool {
	if !reflect.DeepEqual(a, b) ||
		math.Float64bits(a.Options.Eps) != math.Float64bits(b.Options.Eps) ||
		math.Float64bits(a.Options.MemoryFactor) != math.Float64bits(b.Options.MemoryFactor) {
		return false
	}
	if a.Scenario != nil {
		for k, v := range a.Scenario.Params {
			if math.Float64bits(v) != math.Float64bits(b.Scenario.Params[k]) {
				return false
			}
		}
	}
	return true
}

// checkDecodeParity decodes body with decodeJobRequest and with the
// reference through several readers and declared sizes, and fails
// unless both give the same request or the same error text. A reader
// that fails after the body must fail both decodes with an error that
// wraps its own.
func checkDecodeParity(t *testing.T, body []byte) {
	t.Helper()
	n := int64(len(body))
	for _, rd := range []struct {
		name string
		open func() io.Reader
		size int64
	}{
		{"whole", func() io.Reader { return bytes.NewReader(body) }, n},
		{"unsized one-byte", func() io.Reader { return iotest.OneByteReader(bytes.NewReader(body)) }, -1},
		{"declared short", func() io.Reader { return iotest.HalfReader(bytes.NewReader(body)) }, n / 2},
		{"declared long", func() io.Reader { return bytes.NewReader(body) }, 4*n + 1},
		{"failing", func() io.Reader { return &failingBody{text: string(body)} }, -1},
		{"failing once", func() io.Reader { return &failingBody{text: string(body), once: true} }, -1},
	} {
		got, err := decodeJobRequest(rd.open(), rd.size)
		want, wantErr := referenceDecode(rd.open())
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("%s: %q: error %v, reference error %v", rd.name, body, err, wantErr)
		case err != nil && err.Error() != wantErr.Error():
			t.Fatalf("%s: %q: error %q, reference %q", rd.name, body, err, wantErr)
		case err != nil && errors.Is(wantErr, errBodyRead) && !errors.Is(err, errBodyRead):
			t.Fatalf("%s: %q: error %v does not wrap the read error", rd.name, body, err)
		case err == nil && !sameRequest(got, want):
			t.Fatalf("%s: %q: decoded %+v, reference %+v", rd.name, body, got, want)
		}
	}
}

// takesFastPath reports whether decodeJobRequest decodes body without
// handing it to encoding/json in full.
func takesFastPath(body []byte) bool {
	buf, end, _ := readFirstObject(bytes.NewReader(body), int64(len(body)))
	return end > 0 && decodeUpload(buf[:end]) != nil
}

// uploadScenario is the catalog scenario each upload format carries,
// as in perfbench's daemon-hit workload.
var uploadScenario = map[string]string{"el": "gnp", "mm-gz": "chung-lu", "wel": "weighted-powerlaw"}

// uploadBody renders a catalog instance as a POST /v1/jobs upload body
// of the kind a client sends: el or wel text, or mm-gz, a gzipped
// MatrixMarket file in base64.
func uploadBody(tb testing.TB, format string, n int, seed uint64) []byte {
	tb.Helper()
	in, err := mpcgraph.GenerateScenario(uploadScenario[format], n, seed, nil)
	if err != nil {
		tb.Fatal(err)
	}
	var d *graphio.Data
	switch in := in.(type) {
	case *mpcgraph.WeightedGraph:
		d = graphio.FromWeighted(in)
	case *mpcgraph.Graph:
		d = graphio.Unweighted(in)
	}
	var buf bytes.Buffer
	g := &GraphRequest{Format: format}
	switch format {
	case "el":
		err = graphio.Write(&buf, d, graphio.FormatEdgeList)
		g.Content = buf.String()
	case "wel":
		err = graphio.Write(&buf, d, graphio.FormatWeightedEdgeList)
		g.Content = buf.String()
	case "mm-gz":
		zw := gzip.NewWriter(&buf)
		if err = graphio.Write(zw, d, graphio.FormatMatrixMarket); err == nil {
			err = zw.Close()
		}
		g = &GraphRequest{Format: "mm", Content: base64.StdEncoding.EncodeToString(buf.Bytes()), Base64: true}
	default:
		tb.Fatalf("unknown upload format %q", format)
	}
	if err != nil {
		tb.Fatal(err)
	}
	body, err := json.Marshal(&JobRequest{Problem: "maximal-matching", Graph: g})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// parityRows are bodies encoding/json decodes in ways a naive fast path
// for graph.content gets wrong, each with the path it takes.
var parityRows = []struct {
	name string
	body string
	fast bool
}{
	{"plain upload", `{"problem":"mis","graph":{"format":"el","content":"0 1\n1 2\n"}}`, true},
	{"simple escapes", `{"problem":"mis","graph":{"format":"el","content":"\"\\\/\b\f\n\r\t x"}}`, true},
	{"empty content", `{"graph":{"content":""}}`, true},
	{"back-to-back escapes", `{"graph":{"content":"` + strings.Repeat(`\n\n\t\"\\\/\b\f\rxy`, 12) + `"}}`, true},
	{"folded keys", `{"problem":"mis","Graph":{"format":"el","CONTENT":"0 1\n"}}`, true},
	{"graph twice", `{"graph":{"format":"el"},"problem":"mis","graph":{"content":"0 1\n"}}`, false},
	{"graph twice, content first", `{"graph":{"content":"0 1\n"},"problem":"mis","GRAPH":{"format":"el"}}`, false},
	{"graph then null", `{"problem":"mis","graph":{"format":"el","content":"0 1\n"},"graph":null}`, false},
	{"content twice", `{"problem":"mis","graph":{"content":"0 1\n","format":"el","Content":"1 2\n"}}`, false},
	{"content twice, null last", `{"problem":"mis","graph":{"content":"0 1\n","content":null}}`, false},
	{"null members", `{"problem":"mis","model":null,"scenario":null,"graph":{"format":null,"content":"0 1\n","base64":null},"options":null,"timeoutMs":null,"noCache":null}`, true},
	{"null graph", `{"problem":"mis","graph":null}`, false},
	{"null content", `{"problem":"mis","graph":{"format":"el","content":null}}`, false},
	{"unicode escapes", `{"problem":"mis","graph":{"format":"el","content":"0 1\u000a\u003c\u003e\u0026 \u0000 \ud83d\ude00 \ud800x \ud800\u0041 \u00e9"}}`, false},
	{"escaped key", `{"problem":"mis","gr\u0061ph":{"format":"el","content":"0 1\n"}}`, false},
	{"key with a simple escape", `{"problem":"mis","graph":{"format":"el","content":"0 1\n","con\/tent":"x"}}`, false},
	{"key folding to a field by Unicode", `{"problem":"mis","graph":{"format":"el","content":"0 1\n"},"ſcenario":null}`, false},
	{"invalid UTF-8 in content", "{\"problem\":\"mis\",\"graph\":{\"format\":\"el\",\"content\":\"0 1\xff\xfe\n\"}}", false},
	{"UTF-8 in content", `{"problem":"mis","graph":{"format":"el","content":"# é\n0 1\n"}}`, false},
	{"trailing bytes", `{"problem":"mis","graph":{"format":"el","content":"0 1\n"}} {"problem":`, true},
	{"trailing garbage", `{"problem":"mis","graph":{"format":"el","content":"0 1\n"}}]x"`, true},
	{"white space around every token", " \t\n\r{ \"problem\" : \"mis\" ,\n\"graph\" :\t{ \"format\" : \"el\" , \"content\" : \"0 1\\n\" , \"base64\" : false } } \n", true},
	{"base64 content", `{"problem":"mis","graph":{"format":"mm","content":"H4sIAAAAAAAA/+s=","base64":true}}`, true},
	{"skipped values with brackets in strings", `{"scenario":{"name":"}{\"]","params":{"p":0.5,"q":-1.5e-3}},"options":{"seed":3,"eps":0.25},"graph":{"content":"0 1\n"}}`, true},
	{"float bits", `{"problem":"mis","options":{"eps":-0,"memoryFactor":5e-324},"graph":{"format":"el","content":"0 1\n"}}`, true},
	{"unknown field after content", `{"problem":"mis","graph":{"format":"el","content":"0 1\n"},"nope":[1]}`, false},
	{"type error after content", `{"problem":"mis","graph":{"format":"el","content":"0 1\n","base64":"yes"}}`, false},
	{"syntax error after content", `{"problem":"mis","graph":{"format":"el","content":"0 1\n","base64":tru}}`, false},
	{"array", `["graph"]`, false},
	{"string", `"graph"`, false},
	{"number", `12`, false},
	{"unbalanced close", `{"problem":"mis","graph":{"content":"0 1\n"}]`, false},
	{"missing comma", `{"problem":"mis" "graph":{"content":"0 1\n"}}`, false},
	{"quote after literal", `{"timeoutMs":5"graph":{"content":"0 1\n"}}`, false},
	{"colon in place of comma", `{"problem":"mis":"graph":{"content":"0 1\n"}}`, false},
	{"content in a nested graph", `{"options":{"graph":{"content":"0 1\n"}}}`, false},
	{"content as a key's value elsewhere", `{"scenario":{"name":"content"},"graph":{"format":"el"}}`, false},
}

// TestDecodeJobRequestParity holds decodeJobRequest to encoding/json on
// every parity row and every undecodable body TestSubmitBodyErrors
// pins, and checks which rows the fast path decodes.
func TestDecodeJobRequestParity(t *testing.T) {
	for _, tc := range badBodies {
		t.Run(tc.name, func(t *testing.T) {
			checkDecodeParity(t, []byte(tc.body))
		})
	}
	for _, tc := range parityRows {
		t.Run(tc.name, func(t *testing.T) {
			checkDecodeParity(t, []byte(tc.body))
			if got := takesFastPath([]byte(tc.body)); got != tc.fast {
				t.Errorf("fast path %t, want %t", got, tc.fast)
			}
		})
	}
	for _, format := range []string{"el", "wel", "mm-gz"} {
		t.Run(format, func(t *testing.T) {
			body := uploadBody(t, format, 200, 3)
			checkDecodeParity(t, body)
			if !takesFastPath(body) {
				t.Error("a real upload left the fast path")
			}
		})
	}
}

// FuzzJobRequest holds decodeJobRequest to encoding/json on arbitrary
// bodies: the same request or the same error text, through every
// reader checkDecodeParity uses.
func FuzzJobRequest(f *testing.F) {
	for _, tc := range badBodies {
		f.Add([]byte(tc.body))
	}
	for _, tc := range parityRows {
		f.Add([]byte(tc.body))
	}
	for _, format := range []string{"el", "wel", "mm-gz"} {
		f.Add(uploadBody(f, format, 40, 5))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeParity(t, body)
	})
}

// endlessTail serves an object and then spaces without end, counting
// the bytes served.
type endlessTail struct {
	obj    []byte
	served int
}

func (r *endlessTail) Read(p []byte) (int, error) {
	n := 0
	if r.served < len(r.obj) {
		n = copy(p, r.obj[r.served:])
	}
	for i := n; i < len(p); i++ {
		p[i] = ' '
	}
	r.served += len(p)
	return len(p), nil
}

// TestDecodeJobRequestStopsAtObjectEnd: a body that goes on past its
// object is read no further than about the object's own length past
// it, as json.Decoder reads, on both paths.
func TestDecodeJobRequestStopsAtObjectEnd(t *testing.T) {
	for _, obj := range [][]byte{
		[]byte(`{"problem":"mis","graph":{"format":"el","content":"0 1\n"}}`),
		[]byte(`{"problem":"mis","scenario":{"name":"gnp","n":100,"seed":1}}`),
		uploadBody(t, "el", 1<<10, 1),
	} {
		want, err := referenceDecode(bytes.NewReader(obj))
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range []int64{-1, int64(len(obj))} {
			body := &endlessTail{obj: obj}
			got, err := decodeJobRequest(body, size)
			if err != nil || !sameRequest(got, want) {
				t.Fatalf("size %d: decoded %+v, %v; want %+v", size, got, err, want)
			}
			if past := body.served - len(obj); past > len(obj)+minRead {
				t.Errorf("size %d: read %d bytes past a %d-byte object", size, past, len(obj))
			}
		}
	}
}

// BenchmarkDecodeJobRequest decodes upload bodies shaped like perfbench
// daemon-hit's: a gnp 2¹⁶ edge list (3.3 MB), a chung-lu 2¹⁶ gzipped
// MatrixMarket file in base64 (1.3 MB) and a weighted-powerlaw 2¹⁵
// weighted edge list (3.8 MB).
func BenchmarkDecodeJobRequest(b *testing.B) {
	for _, tc := range []struct {
		format string
		n      int
	}{{"el", 1 << 16}, {"mm-gz", 1 << 16}, {"wel", 1 << 15}} {
		b.Run(tc.format, func(b *testing.B) {
			body := uploadBody(b, tc.format, tc.n, 1)
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := decodeJobRequest(bytes.NewReader(body), int64(len(body))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestDecodeJobRequestAllocsCeiling holds the decode of a 172 KB upload
// body with a declared length to about twice its measured 25
// allocations: eight body buffers (512 bytes doubling to 32 KiB, then
// the declared length), the content string, and encoding/json's decode
// of the few bytes around the content. Skipped under race: the race
// runtime allocates on its own behalf.
func TestDecodeJobRequestAllocsCeiling(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts differ under the race runtime")
	}
	body := uploadBody(t, "el", 1<<12, 1)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := decodeJobRequest(bytes.NewReader(body), int64(len(body))); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 50
	if allocs > ceiling {
		t.Errorf("decodeJobRequest: %.0f allocs/op, ceiling %d", allocs, ceiling)
	}
}
