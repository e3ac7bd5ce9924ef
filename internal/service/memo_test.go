package service

import (
	"bytes"
	"compress/gzip"
	"encoding/base64"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"mpcgraph"
	"mpcgraph/internal/graphio"
	"mpcgraph/internal/scenario"
)

// The resolve memo (memo.go) must be invisible on the wire: a request
// resolved from the memo gets the key, the errors, the view and the
// report the full build-and-hash path would give it.

// memoStats reads the memo's hit and miss counters.
func memoStats(s *Server) (hits, misses uint64) {
	st := s.memo.Stats()
	return st.Hits, st.Misses
}

// TestMemoKeyMatchesFullPath: for every catalog scenario, the key the
// memo path derives equals CacheKey over the generated instance — on
// the miss that fills the entry, on the hit that reuses it, and for
// requests that spell out the default n or the default params, which
// must resolve to the same spec.
func TestMemoKeyMatchesFullPath(t *testing.T) {
	s := idleServer(t, Config{})
	opts := OptionsRequest{Seed: 3}
	for _, name := range scenario.Names() {
		sc, _ := scenario.Lookup(name)
		defaults := make(map[string]float64, len(sc.Params))
		for _, p := range sc.Params {
			defaults[p.Key] = p.Default
		}
		in, err := mpcgraph.GenerateScenario(name, 0, 5, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := CacheKey(in, mpcgraph.ProblemMIS, mpcgraph.ModelMPC, mpcgraph.Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		for i, scr := range []*ScenarioRequest{
			{Name: name, Seed: 5}, // miss: builds and hashes
			{Name: name, Seed: 5}, // hit
			{Name: name, N: sc.DefaultN, Seed: 5},
			{Name: name, Seed: 5, Params: defaults},
			{Name: name, N: sc.DefaultN, Seed: 5, Params: defaults},
		} {
			hits, _ := memoStats(s)
			a, err := s.admit(&JobRequest{Problem: "mis", Scenario: scr, Options: opts})
			if err != nil {
				t.Fatalf("%s request %d: %v", name, i, err)
			}
			if a.key != want {
				t.Errorf("%s request %d: memo-path key %s, full-path key %s", name, i, a.key, want)
			}
			gotHit := s.memo.Stats().Hits > hits
			if gotHit != (i > 0) {
				t.Errorf("%s request %d: memo hit %v, want %v", name, i, gotHit, i > 0)
			}
			if gotHit != (a.in == nil) {
				t.Errorf("%s request %d: memo hit %v but built instance %v", name, i, gotHit, a.in != nil)
			}
			if a.info.n != in.NumVertices() || a.info.m != in.NumEdges() {
				t.Errorf("%s request %d: memo records n=%d m=%d, instance has n=%d m=%d",
					name, i, a.info.n, a.info.m, in.NumVertices(), in.NumEdges())
			}
		}
	}
}

// uploadEncodings renders in in every format that can carry it, plain
// and as base64 gzip.
func uploadEncodings(t *testing.T, in mpcgraph.Instance) []*GraphRequest {
	t.Helper()
	d := &graphio.Data{}
	if wg, ok := in.(*mpcgraph.WeightedGraph); ok {
		d.G, d.WG = wg.Graph, wg
	} else {
		d.G = in.(*mpcgraph.Graph)
	}
	var out []*GraphRequest
	for _, f := range graphio.Formats() {
		if d.WG != nil && !f.Weighted() {
			continue
		}
		if d.WG == nil && f == graphio.FormatWeightedEdgeList {
			continue
		}
		var plain, zipped bytes.Buffer
		if err := graphio.Write(&plain, d, f); err != nil {
			t.Fatalf("write %s: %v", f, err)
		}
		zw := gzip.NewWriter(&zipped)
		if _, err := zw.Write(plain.Bytes()); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		out = append(out,
			&GraphRequest{Format: f.String(), Content: plain.String()},
			&GraphRequest{Format: f.String(), Content: base64.StdEncoding.EncodeToString(zipped.Bytes()), Base64: true})
	}
	return out
}

// TestMemoUploadEncodingsShareDigest: one graph uploaded in every
// format, plain and gzip+base64, takes one memo entry per encoding, and
// every entry points at the one instance digest — so at one cache key.
func TestMemoUploadEncodingsShareDigest(t *testing.T) {
	for _, name := range []string{"gnp", "weighted-gnp"} {
		s := idleServer(t, Config{})
		in, err := mpcgraph.GenerateScenario(name, 300, 9, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := InstanceDigest(in)
		if err != nil {
			t.Fatal(err)
		}
		encodings := uploadEncodings(t, in)
		if len(encodings) < 6 {
			t.Fatalf("%s: only %d encodings", name, len(encodings))
		}
		for pass := 0; pass < 2; pass++ {
			for _, g := range encodings {
				a, err := s.admit(&JobRequest{Problem: "mis", Graph: g})
				if err != nil {
					t.Fatalf("%s %s (base64 %v): %v", name, g.Format, g.Base64, err)
				}
				if a.info.digest != want {
					t.Errorf("%s %s (base64 %v): digest %s, want %s", name, g.Format, g.Base64, a.info.digest, want)
				}
				if built := a.in != nil; built != (pass == 0) {
					t.Errorf("%s %s (base64 %v) pass %d: built instance %v", name, g.Format, g.Base64, pass, built)
				}
			}
		}
		if st := s.memo.Stats(); st.Entries != len(encodings) {
			t.Errorf("%s: %d memo entries for %d encodings", name, st.Entries, len(encodings))
		}
	}
}

// TestMemoHitAfterEvictionRebuilds: the memo and the result cache share
// their bound, not their entries. With two entries each, one scenario
// solved under option seeds 1, 2 and 3 evicts seed 1's result but keeps
// the scenario's one memo entry; seed 1 again is then a memo hit that
// misses the cache, so its leader rebuilds the graph and re-solves it,
// bit-identically.
func TestMemoHitAfterEvictionRebuilds(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, CacheEntries: 2})
	req := func(seed uint64) *JobRequest {
		return &JobRequest{
			Problem:  "mis",
			Scenario: &ScenarioRequest{Name: "rmat", N: 500, Seed: 4},
			Options:  OptionsRequest{Seed: seed},
		}
	}
	first := submitWait(t, ts.URL, req(1))
	submitWait(t, ts.URL, req(2))
	submitWait(t, ts.URL, req(3))
	again := submitWait(t, ts.URL, req(1))
	if again.State != StateDone || again.CacheHit {
		t.Fatalf("re-run after eviction: state %s cacheHit %v (%s)", again.State, again.CacheHit, again.Error)
	}
	if hits, misses := memoStats(s); hits != 3 || misses != 1 {
		t.Errorf("memo hits/misses %d/%d, want 3/1", hits, misses)
	}
	if got := metricValue(t, ts.URL, "mpcgraphd_solves_total"); got != 4 {
		t.Errorf("solves %v, want 4", got)
	}
	a, b := mustJSON(t, stripVolatile(first)), mustJSON(t, stripVolatile(again))
	if !bytes.Equal(a, b) {
		t.Errorf("rebuilt re-run differs from the first run:\n first: %s\n again: %s", a, b)
	}
	if first.Source != again.Source {
		t.Errorf("source %q, want %q", again.Source, first.Source)
	}
}

// TestMemoHitViewMatchesFullPath: a job resolved from the memo renders
// the view a fresh daemon renders on the full path — source, key, n, m
// and report included — for a scenario and for an upload.
func TestMemoHitViewMatchesFullPath(t *testing.T) {
	in, err := mpcgraph.GenerateScenario("chung-lu", 400, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	var el bytes.Buffer
	if err := graphio.WriteEdgeList(&el, in.(*mpcgraph.Graph)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		req  func(seed uint64) *JobRequest
	}{
		{"scenario", func(seed uint64) *JobRequest {
			return &JobRequest{Problem: "maximal-matching",
				Scenario: &ScenarioRequest{Name: "chung-lu", N: 400, Seed: 2}, Options: OptionsRequest{Seed: seed}}
		}},
		{"upload", func(seed uint64) *JobRequest {
			return &JobRequest{Problem: "maximal-matching",
				Graph: &GraphRequest{Format: "el", Content: el.String()}, Options: OptionsRequest{Seed: seed}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			memo, memoTS := newTestServer(t, Config{Workers: 1})
			submitWait(t, memoTS.URL, tc.req(1)) // fills the memo entry
			hit := submitWait(t, memoTS.URL, tc.req(2))
			if h, _ := memoStats(memo); h != 1 {
				t.Fatalf("second submission was not a memo hit (%d hits)", h)
			}
			_, fullTS := newTestServer(t, Config{Workers: 1})
			full := submitWait(t, fullTS.URL, tc.req(2))
			if hit.Source != full.Source {
				t.Errorf("source %q, full path %q", hit.Source, full.Source)
			}
			a, b := mustJSON(t, stripVolatile(hit)), mustJSON(t, stripVolatile(full))
			if !bytes.Equal(a, b) {
				t.Errorf("memo-hit view differs from the full path:\n memo: %s\n full: %s", a, b)
			}
		})
	}
}

// TestMemoErrorsUnchanged: every failing request fails with its
// original status and message however often it repeats — failures never
// enter the memo — and weighted-matching on an unweighted instance the
// memo already knows gets the same 422 as on the full path.
func TestMemoErrorsUnchanged(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	gnp := &ScenarioRequest{Name: "gnp", N: 200, Seed: 1}
	// Fill the memo entry that the weighted-matching case hits.
	if v := submitWait(t, ts.URL, &JobRequest{Problem: "mis", Scenario: gnp}); v.State != StateDone {
		t.Fatalf("mis on gnp: %s (%s)", v.State, v.Error)
	}
	for _, tc := range []struct {
		name   string
		req    *JobRequest
		status int
		msg    string
	}{
		{"unknown scenario", &JobRequest{Problem: "mis", Scenario: &ScenarioRequest{Name: "nope"}}, 400,
			fmt.Sprintf("scenario: unknown scenario %q (known: %s)", "nope", strings.Join(scenario.Names(), ", "))},
		{"bad param", &JobRequest{Problem: "mis",
			Scenario: &ScenarioRequest{Name: "gnp", N: 100, Params: map[string]float64{"nope": 1}}}, 400,
			`scenario: gnp has no parameter "nope" (accepted: avg-deg, p)`},
		{"generator rejects param", &JobRequest{Problem: "mis",
			Scenario: &ScenarioRequest{Name: "gnp", N: 100, Params: map[string]float64{"p": 2}}}, 400,
			`scenario: gnp: parameter "p" = 2 above 1`},
		{"bad base64", &JobRequest{Problem: "mis", Graph: &GraphRequest{Format: "el", Content: "!!", Base64: true}}, 400,
			"service: graph content is not valid base64: illegal base64 data at input byte 0"},
		{"malformed upload", &JobRequest{Problem: "mis", Graph: &GraphRequest{Format: "el", Content: "0 0\n"}}, 400, ""},
		{"weighted-matching on unweighted memo hit", &JobRequest{Problem: "weighted-matching", Scenario: gnp}, 422,
			"problem requires a weighted graph: weighted-matching"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var first string
			for i := 0; i < 3; i++ {
				entries := s.memo.Stats().Entries
				resp, data := postJSON(t, ts.URL+"/v1/jobs", tc.req)
				if resp.StatusCode != tc.status {
					t.Fatalf("attempt %d: status %d (%s), want %d", i, resp.StatusCode, data, tc.status)
				}
				body := string(data)
				if i == 0 {
					first = body
					if tc.msg != "" && !strings.Contains(body, fmt.Sprintf("%q", tc.msg)) {
						t.Errorf("error body %s, want message %q", body, tc.msg)
					}
				} else if body != first {
					t.Errorf("attempt %d: error body %s, first %s", i, body, first)
				}
				if got := s.memo.Stats().Entries; got != entries {
					t.Errorf("attempt %d: a failed request changed the memo (%d -> %d entries)", i, entries, got)
				}
			}
		})
	}

	// A non-finite parameter cannot travel as JSON; resolve it directly.
	for i := 0; i < 2; i++ {
		_, err := s.admit(&JobRequest{Problem: "mis",
			Scenario: &ScenarioRequest{Name: "gnp", Params: map[string]float64{"p": math.NaN()}}})
		if want := `scenario: gnp parameter "p" = NaN is not finite`; err == nil || err.Error() != want {
			t.Errorf("NaN param: %v, want %q", err, want)
		}
	}
}

// TestNoCacheBypassesMemo: a noCache job never consults the memo — it
// builds its instance regardless — but refreshes the entry, so the next
// cached request for the spec hits it.
func TestNoCacheBypassesMemo(t *testing.T) {
	s := idleServer(t, Config{})
	req := &JobRequest{Problem: "mis", Scenario: &ScenarioRequest{Name: "gnp", N: 300, Seed: 8}, NoCache: true}
	for i := 0; i < 2; i++ {
		a, err := s.admit(req)
		if err != nil {
			t.Fatal(err)
		}
		if a.in == nil {
			t.Fatalf("noCache admission %d used the memo", i)
		}
		if hits, misses := memoStats(s); hits != 0 || misses != 0 {
			t.Fatalf("noCache admission %d looked the memo up (%d hits, %d misses)", i, hits, misses)
		}
	}
	if st := s.memo.Stats(); st.Entries != 1 {
		t.Fatalf("noCache did not refresh the memo: %d entries", st.Entries)
	}
	cached := *req
	cached.NoCache = false
	a, err := s.admit(&cached)
	if err != nil {
		t.Fatal(err)
	}
	if hits, _ := memoStats(s); a.in != nil || hits != 1 {
		t.Errorf("cached request after noCache: built %v, memo hits %d", a.in != nil, hits)
	}
}

// TestMemoConcurrentSubmissions races identical submissions and batch
// members for one instance spec through the memo (run it with -race):
// whoever builds, every job gets the one key and the one report, and
// the spec costs one solve.
func TestMemoConcurrentSubmissions(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	req := &JobRequest{Problem: "mis", Scenario: &ScenarioRequest{Name: "preferential", N: 800, Seed: 6},
		Options: OptionsRequest{Seed: 6}}
	const singles = 6
	views := make([]*JobView, singles)
	var wg sync.WaitGroup
	for i := 0; i < singles; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, data := postJSON(t, ts.URL+"/v1/jobs", req)
			if resp.StatusCode != 201 {
				t.Errorf("submit %d: %s: %s", i, resp.Status, data)
				return
			}
			views[i] = decodeView(t, data)
		}(i)
	}
	var batch *BatchView
	wg.Add(1)
	go func() {
		defer wg.Done()
		batch = submitBatchHTTP(t, ts.URL, &BatchRequest{Jobs: []JobRequest{*req, *req, *req}})
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	ids := batch.Jobs
	for _, v := range views {
		ids = append(ids, v.ID)
	}
	var ref []byte
	for _, id := range ids {
		v := awaitTerminal(t, ts.URL, id)
		if v.State != StateDone {
			t.Fatalf("job %s: %s (%s)", id, v.State, v.Error)
		}
		v.Batch = "" // batch members and single jobs differ only in membership
		got := mustJSON(t, stripVolatile(v))
		if ref == nil {
			ref = got
		} else if !bytes.Equal(got, ref) {
			t.Errorf("job %s differs:\n got: %s\n ref: %s", id, got, ref)
		}
	}
	if got := metricValue(t, ts.URL, "mpcgraphd_solves_total"); got != 1 {
		t.Errorf("solves %v, want 1", got)
	}
	if st := s.memo.Stats(); st.Entries != 1 {
		t.Errorf("memo entries %d, want 1", st.Entries)
	}
}
