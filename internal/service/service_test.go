package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"mpcgraph"
	"mpcgraph/internal/graphio"
	"mpcgraph/internal/registry"
	"mpcgraph/internal/scenario"
)

// newTestServer starts a draining-safe daemon around t.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain(5 * time.Second)
	})
	return s, ts
}

// idleServer builds a Server whose queue is never drained: jobs stay
// deterministically queued, which is what the cancel/admission/eviction
// tests need. Built by build, not New, so no workers exist.
func idleServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func decodeView(t *testing.T, data []byte) *JobView {
	t.Helper()
	var v JobView
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("bad job view %s: %v", data, err)
	}
	return &v
}

// awaitTerminal polls until the job leaves the live states.
func awaitTerminal(t *testing.T, base, id string) *JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, data := getBody(t, base+"/v1/jobs/"+id)
		if resp.StatusCode != 200 {
			t.Fatalf("GET job: %s: %s", resp.Status, data)
		}
		v := decodeView(t, data)
		switch v.State {
		case StateDone, StateFailed, StateCanceled:
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return nil
}

// submitWait submits and waits for a terminal state.
func submitWait(t *testing.T, base string, req *JobRequest) *JobView {
	t.Helper()
	resp, data := postJSON(t, base+"/v1/jobs", req)
	if resp.StatusCode != 201 {
		t.Fatalf("submit: %s: %s", resp.Status, data)
	}
	return awaitTerminal(t, base, decodeView(t, data).ID)
}

// goldenEntry mirrors the pinned shape of testdata/golden_reports.json.
type goldenEntry struct {
	Case            string `json:"case"`
	Rounds          int    `json:"rounds"`
	Phases          int    `json:"phases"`
	MaxMachineWords int64  `json:"maxMachineWords"`
	TotalWords      int64  `json:"totalWords"`
	Violations      int    `json:"violations"`
	SolutionHash    uint64 `json:"solutionHash"`
}

func loadGoldens(t *testing.T) map[string]goldenEntry {
	t.Helper()
	data, err := os.ReadFile("../../testdata/golden_reports.json")
	if err != nil {
		t.Fatalf("read goldens: %v", err)
	}
	var entries []goldenEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]goldenEntry, len(entries))
	for _, e := range entries {
		out[e.Case] = e
	}
	return out
}

// stripVolatile zeroes the only fields allowed to differ between a cold
// run and its cache-hit replay.
func stripVolatile(v *JobView) *JobView {
	c := *v
	c.ID = ""
	c.CacheHit = false
	c.CacheTier = TierNone // which tier served the replay is operational
	c.Coalesced = false
	c.Source = "" // scenario vs upload origin; not part of the result
	c.CreatedAt, c.StartedAt, c.FinishedAt = "", "", ""
	c.Timings = nil // lifecycle stamps are operational, never deterministic
	c.TraceLen = 0  // a cache hit replays the Report, not the trace
	if c.Report != nil {
		r := *c.Report
		r.WallMs = 0
		c.Report = &r
	}
	return &c
}

// TestEveryPairCacheHitBitIdentical is the acceptance criterion: for
// every registered (problem, model) pair, a cache hit returns a Report
// bit-identical to the cold run — asserted field by field on the wire
// view, on the rendered solution bytes, and against the golden suite's
// pinned costs and solution hash.
func TestEveryPairCacheHitBitIdentical(t *testing.T) {
	goldens := loadGoldens(t)
	_, ts := newTestServer(t, Config{Workers: 2})
	for _, pair := range registry.Pairs() {
		pair := pair
		t.Run(pair.String(), func(t *testing.T) {
			scen := "gnp"
			if pair.Problem.String() == "weighted-matching" {
				scen = "weighted-gnp"
			}
			req := &JobRequest{
				Problem:  pair.Problem.String(),
				Model:    pair.Model.String(),
				Scenario: &ScenarioRequest{Name: scen, N: 600, Seed: 7},
				Options:  OptionsRequest{Seed: 7},
			}
			cold := submitWait(t, ts.URL, req)
			if cold.State != StateDone {
				t.Fatalf("cold run: state %s (%s)", cold.State, cold.Error)
			}
			if cold.CacheHit {
				t.Fatalf("cold run claimed a cache hit")
			}
			if cold.Report == nil {
				t.Fatalf("cold run has no report")
			}

			hit := submitWait(t, ts.URL, req)
			if !hit.CacheHit {
				t.Fatalf("re-submit was not a cache hit")
			}
			if hit.CacheKey != cold.CacheKey {
				t.Fatalf("cache key changed between identical submissions")
			}
			coldJSON, _ := json.Marshal(stripVolatile(cold))
			hitJSON, _ := json.Marshal(stripVolatile(hit))
			if !bytes.Equal(coldJSON, hitJSON) {
				t.Errorf("cache hit is not bit-identical to the cold run:\n cold: %s\n hit:  %s", coldJSON, hitJSON)
			}

			_, coldSol := getBody(t, ts.URL+"/v1/jobs/"+cold.ID+"/solution")
			_, hitSol := getBody(t, ts.URL+"/v1/jobs/"+hit.ID+"/solution")
			if !bytes.Equal(coldSol, hitSol) {
				t.Errorf("cache hit solution differs from cold-run solution")
			}

			// The golden suite pins this exact (scenario, n, seed, pair)
			// cell, so the service's wire report must reproduce it.
			caseName := fmt.Sprintf("%s-n600-seed7/%s", scen, pair)
			g, ok := goldens[caseName]
			if !ok {
				t.Fatalf("no golden case %q", caseName)
			}
			r := cold.Report
			if r.Rounds != g.Rounds || r.Phases != g.Phases ||
				r.MaxMachineWords != g.MaxMachineWords || r.TotalWords != g.TotalWords ||
				r.Violations != g.Violations {
				t.Errorf("costs diverge from golden %s:\n got:  %+v\n want: %+v", caseName, r, g)
			}
			if want := fmt.Sprintf("%016x", g.SolutionHash); r.SolutionHash != want {
				t.Errorf("solution hash %s, golden %s", r.SolutionHash, want)
			}
		})
	}
}

// TestScenarioAndUploadShareCacheEntries: the cache is content-
// addressed, so the same logical instance hits whether it arrived as a
// catalog scenario or as an uploaded file in any format.
func TestScenarioAndUploadShareCacheEntries(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	scenarioReq := &JobRequest{
		Problem:  "mis",
		Scenario: &ScenarioRequest{Name: "gnp", N: 300, Seed: 9},
		Options:  OptionsRequest{Seed: 9},
	}
	cold := submitWait(t, ts.URL, scenarioReq)
	if cold.State != StateDone || cold.CacheHit {
		t.Fatalf("cold scenario run: state %s cacheHit %t", cold.State, cold.CacheHit)
	}

	in, err := mpcgraph.GenerateScenario("gnp", 300, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := graphio.Write(&buf, graphio.Unweighted(in.(*mpcgraph.Graph)), graphio.FormatEdgeList); err != nil {
		t.Fatal(err)
	}
	uploadReq := &JobRequest{
		Problem: "mis",
		Graph:   &GraphRequest{Format: "el", Content: buf.String()},
		Options: OptionsRequest{Seed: 9},
	}
	hit := submitWait(t, ts.URL, uploadReq)
	if !hit.CacheHit {
		t.Fatalf("upload of the same instance missed the cache (keys %s vs %s)", cold.CacheKey, hit.CacheKey)
	}
	if !bytes.Equal(
		mustJSON(t, stripVolatile(cold)),
		mustJSON(t, stripVolatile(hit)),
	) {
		t.Errorf("upload cache hit differs from scenario cold run")
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestNoCacheForcesColdRun: noCache skips the lookup but still
// refreshes the cache, and the recomputed run is bit-identical anyway.
func TestNoCacheForcesColdRun(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	req := &JobRequest{
		Problem:  "vertex-cover",
		Scenario: &ScenarioRequest{Name: "gnp", N: 300, Seed: 4},
		Options:  OptionsRequest{Seed: 4},
		NoCache:  true,
	}
	first := submitWait(t, ts.URL, req)
	if first.CacheHit {
		t.Fatalf("noCache run reported a cache hit")
	}
	second := submitWait(t, ts.URL, req)
	if second.CacheHit {
		t.Fatalf("second noCache run reported a cache hit")
	}
	if !bytes.Equal(mustJSON(t, stripVolatile(first)), mustJSON(t, stripVolatile(second))) {
		t.Errorf("recomputed run differs from first run (determinism violation)")
	}
	// noCache skips only the lookup: the results above still refreshed
	// the cache, so a normal submission now hits.
	reqCached := *req
	reqCached.NoCache = false
	third := submitWait(t, ts.URL, &reqCached)
	if !third.CacheHit {
		t.Errorf("normal submission missed the cache a noCache run should have refreshed")
	}
}

// TestJobDeadline: the deadline runs from submission, so a job whose
// deadline passes while it waits in the queue is canceled when a worker
// finally picks it up. An idle (worker-less) server makes the sequence
// deterministic: submit, let the deadline lapse, then run.
func TestJobDeadline(t *testing.T) {
	s := idleServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, data := postJSON(t, ts.URL+"/v1/jobs", &JobRequest{
		Problem:   "maximal-matching",
		Scenario:  &ScenarioRequest{Name: "gnp", N: 400, Seed: 2},
		Options:   OptionsRequest{Seed: 2},
		TimeoutMs: 1,
	})
	if resp.StatusCode != 201 {
		t.Fatalf("submit: %s: %s", resp.Status, data)
	}
	id := decodeView(t, data).ID
	job := <-s.queue
	time.Sleep(5 * time.Millisecond) // let the 1ms deadline lapse
	job.run(s)

	v := awaitTerminal(t, ts.URL, id)
	if v.State != StateCanceled {
		t.Fatalf("state %s (err %q), want canceled", v.State, v.Error)
	}
	if !strings.Contains(v.Error, "deadline") {
		t.Errorf("error %q does not mention the deadline", v.Error)
	}
}

// TestCancelQueuedJob uses an idle (worker-less) server so the queued
// state is deterministic.
func TestCancelQueuedJob(t *testing.T) {
	s := idleServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, data := postJSON(t, ts.URL+"/v1/jobs", &JobRequest{
		Problem:  "mis",
		Scenario: &ScenarioRequest{Name: "gnp", N: 200, Seed: 1},
	})
	if resp.StatusCode != 201 {
		t.Fatalf("submit: %s: %s", resp.Status, data)
	}
	id := decodeView(t, data).ID

	delReq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	delResp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(delResp.Body)
	delResp.Body.Close()
	if delResp.StatusCode != 200 {
		t.Fatalf("cancel: %s: %s", delResp.Status, body)
	}
	if v := decodeView(t, body); v.State != StateCanceled {
		t.Fatalf("state %s, want canceled", v.State)
	}

	// A second DELETE finds the job terminal: 409, view unchanged.
	delResp2, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	delResp2.Body.Close()
	if delResp2.StatusCode != 409 {
		t.Fatalf("re-cancel: %d, want 409", delResp2.StatusCode)
	}
}

// TestQueueFullRejects pins admission control on an idle server.
func TestQueueFullRejects(t *testing.T) {
	s := idleServer(t, Config{QueueDepth: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := &JobRequest{Problem: "mis", Scenario: &ScenarioRequest{Name: "gnp", N: 200, Seed: 1}, NoCache: true}
	for i := 0; i < 2; i++ {
		resp, data := postJSON(t, ts.URL+"/v1/jobs", req)
		if resp.StatusCode != 201 {
			t.Fatalf("submit %d: %s: %s", i, resp.Status, data)
		}
	}
	resp, data := postJSON(t, ts.URL+"/v1/jobs", req)
	if resp.StatusCode != 429 {
		t.Fatalf("overflow submit: %d (%s), want 429", resp.StatusCode, data)
	}
	if v := decodeView(t, data); v.State != StateCanceled {
		t.Fatalf("rejected job state %s, want canceled", v.State)
	}
}

// TestBadRequests pins the error-status table.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	gnp := &ScenarioRequest{Name: "gnp", N: 100, Seed: 1}
	for _, tc := range []struct {
		name string
		req  *JobRequest
		want int
	}{
		{"unknown problem", &JobRequest{Problem: "shortest-path", Scenario: gnp}, 400},
		{"unknown model", &JobRequest{Problem: "mis", Model: "pram", Scenario: gnp}, 400},
		{"unsupported pair", &JobRequest{Problem: "weighted-matching", Model: "congested-clique",
			Scenario: &ScenarioRequest{Name: "weighted-gnp", N: 100, Seed: 1}}, 422},
		{"needs weighted instance", &JobRequest{Problem: "weighted-matching", Scenario: gnp}, 422},
		{"no instance", &JobRequest{Problem: "mis"}, 400},
		{"both instances", &JobRequest{Problem: "mis", Scenario: gnp,
			Graph: &GraphRequest{Format: "el", Content: "0 1\n"}}, 400},
		{"unknown scenario", &JobRequest{Problem: "mis", Scenario: &ScenarioRequest{Name: "nope"}}, 400},
		{"unknown scenario param", &JobRequest{Problem: "mis",
			Scenario: &ScenarioRequest{Name: "gnp", N: 100, Seed: 1, Params: map[string]float64{"nope": 1}}}, 400},
		{"unknown format", &JobRequest{Problem: "mis", Graph: &GraphRequest{Format: "xls", Content: "0 1\n"}}, 400},
		{"bad base64", &JobRequest{Problem: "mis", Graph: &GraphRequest{Format: "el", Content: "!!", Base64: true}}, 400},
		{"malformed upload", &JobRequest{Problem: "mis", Graph: &GraphRequest{Format: "el", Content: "0 0\n"}}, 400},
		{"no problem", &JobRequest{Scenario: gnp}, 400},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := postJSON(t, ts.URL+"/v1/jobs", tc.req)
			if resp.StatusCode != tc.want {
				t.Errorf("status %d (%s), want %d", resp.StatusCode, data, tc.want)
			}
		})
	}
	resp, _ := getBody(t, ts.URL+"/v1/jobs/j999")
	if resp.StatusCode != 404 {
		t.Errorf("unknown job: %d, want 404", resp.StatusCode)
	}
}

// TestTraceStreamNDJSON: the stream replays buffered events, follows
// live ones, and terminates with a done marker carrying the final
// state. Events must match what a direct Solve traces.
func TestTraceStreamNDJSON(t *testing.T) {
	s := idleServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, data := postJSON(t, ts.URL+"/v1/jobs", &JobRequest{
		Problem:  "mis",
		Scenario: &ScenarioRequest{Name: "gnp", N: 400, Seed: 3},
		Options:  OptionsRequest{Seed: 3},
	})
	if resp.StatusCode != 201 {
		t.Fatalf("submit: %s: %s", resp.Status, data)
	}
	id := decodeView(t, data).ID
	job, _ := s.lookup(id)

	// Connect the follower before the job runs, then run it.
	streamResp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer streamResp.Body.Close()
	if ct := streamResp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	go func() {
		<-s.queue
		job.run(s)
	}()

	var events []traceEventView
	var end *traceEndView
	sc := bufio.NewScanner(streamResp.Body)
	for sc.Scan() {
		line := sc.Bytes()
		var probe map[string]any
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad stream line %s: %v", line, err)
		}
		if _, done := probe["done"]; done {
			end = &traceEndView{}
			if err := json.Unmarshal(line, end); err != nil {
				t.Fatal(err)
			}
			break
		}
		var ev traceEventView
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if end == nil || end.State != StateDone {
		t.Fatalf("stream did not end with done/state=done: %+v", end)
	}

	// The streamed events must be exactly the direct-solve trace.
	in, err := mpcgraph.GenerateScenario("gnp", 400, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want []traceEventView
	_, err = mpcgraph.Solve(nil, in, mpcgraph.ProblemMIS, mpcgraph.Options{
		Seed: 3,
		Trace: func(ev mpcgraph.TraceEvent) {
			want = append(want, traceEventView{Round: ev.Round, LiveWords: ev.LiveWords, ActiveVertices: ev.ActiveVertices})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatalf("no trace events streamed")
	}
	if fmt.Sprint(events) != fmt.Sprint(want) {
		t.Errorf("streamed trace differs from direct solve:\n got:  %v\n want: %v", events, want)
	}
}

// TestTraceStreamSSE checks the Accept-negotiated framing on a
// completed job (pure replay).
func TestTraceStreamSSE(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	v := submitWait(t, ts.URL, &JobRequest{
		Problem:  "mis",
		Scenario: &ScenarioRequest{Name: "gnp", N: 300, Seed: 5},
		Options:  OptionsRequest{Seed: 5},
	})
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+v.ID+"/trace", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if !strings.Contains(text, "event: trace\ndata: {") {
		t.Errorf("no SSE trace frame in:\n%s", text)
	}
	if !strings.HasSuffix(strings.TrimSpace(text), "}") || !strings.Contains(text, "event: done") {
		t.Errorf("no SSE done frame in:\n%s", text)
	}
	if got := strings.Count(text, "event: trace"); got != v.TraceLen {
		t.Errorf("replayed %d SSE events, job view reports %d", got, v.TraceLen)
	}
}

// TestListPagination walks the job table through the cursor.
func TestListPagination(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	var ids []string
	for i := 0; i < 5; i++ {
		v := submitWait(t, ts.URL, &JobRequest{
			Problem:  "mis",
			Scenario: &ScenarioRequest{Name: "ring", N: 50 + i, Seed: 1},
			Options:  OptionsRequest{Seed: 1},
		})
		ids = append(ids, v.ID)
	}
	var got []string
	after := ""
	for {
		url := ts.URL + "/v1/jobs?limit=2"
		if after != "" {
			url += "&after=" + after
		}
		resp, data := getBody(t, url)
		if resp.StatusCode != 200 {
			t.Fatalf("list: %s: %s", resp.Status, data)
		}
		var page struct {
			Jobs []*JobView `json:"jobs"`
			Next string     `json:"next"`
		}
		if err := json.Unmarshal(data, &page); err != nil {
			t.Fatal(err)
		}
		for _, j := range page.Jobs {
			got = append(got, j.ID)
		}
		if page.Next == "" {
			break
		}
		after = page.Next
	}
	if fmt.Sprint(got) != fmt.Sprint(ids) {
		t.Errorf("paginated ids %v, want %v", got, ids)
	}

	resp, data := getBody(t, ts.URL+"/v1/jobs?state=done")
	if resp.StatusCode != 200 {
		t.Fatalf("filtered list: %s", resp.Status)
	}
	var page struct {
		Jobs []*JobView `json:"jobs"`
	}
	if err := json.Unmarshal(data, &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Jobs) != 5 {
		t.Errorf("state=done returned %d jobs, want 5", len(page.Jobs))
	}

	// An unknown (e.g. evicted) cursor must fail loudly, not render as
	// an empty final page.
	resp, _ = getBody(t, ts.URL+"/v1/jobs?after=j99999999")
	if resp.StatusCode != 400 {
		t.Errorf("unknown cursor: %d, want 400", resp.StatusCode)
	}
}

// TestTerminalEviction bounds the retained job table.
func TestTerminalEviction(t *testing.T) {
	s := idleServer(t, Config{MaxJobsRetained: 3, QueueDepth: 64})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for i := 0; i < 6; i++ {
		resp, data := postJSON(t, ts.URL+"/v1/jobs", &JobRequest{
			Problem:  "mis",
			Scenario: &ScenarioRequest{Name: "ring", N: 40 + i, Seed: 1},
		})
		if resp.StatusCode != 201 {
			t.Fatalf("submit %d: %s: %s", i, resp.Status, data)
		}
		// Immediately cancel so the job is terminal and evictable.
		id := decodeView(t, data).ID
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		resp2, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp2.Body.Close()
	}
	s.mu.Lock()
	retained := len(s.order)
	s.mu.Unlock()
	if retained > 4 { // bound + the latest submission
		t.Errorf("retained %d jobs, want <= 4", retained)
	}
}

// TestHealthzAndMetrics pins the operational surface, including the
// drain transition.
func TestHealthzAndMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	v := submitWait(t, ts.URL, &JobRequest{
		Problem:  "mis",
		Scenario: &ScenarioRequest{Name: "gnp", N: 200, Seed: 6},
		Options:  OptionsRequest{Seed: 6},
	})
	submitWait(t, ts.URL, &JobRequest{ // cache hit
		Problem:  "mis",
		Scenario: &ScenarioRequest{Name: "gnp", N: 200, Seed: 6},
		Options:  OptionsRequest{Seed: 6},
	})
	if v.State != StateDone {
		t.Fatalf("job state %s", v.State)
	}

	resp, data := getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != 200 {
		t.Fatalf("healthz: %s: %s", resp.Status, data)
	}
	var health struct {
		Status   string `json:"status"`
		Draining bool   `json:"draining"`
	}
	if err := json.Unmarshal(data, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Draining {
		t.Errorf("health %+v", health)
	}

	_, metrics := getBody(t, ts.URL+"/metrics")
	text := string(metrics)
	for _, want := range []string{
		"mpcgraphd_up 1",
		"mpcgraphd_queue_depth 0",
		"mpcgraphd_jobs_inflight 0",
		"mpcgraphd_jobs_submitted_total 2",
		`mpcgraphd_cache_hits_total{tier="memory"} 1`,
		"mpcgraphd_cache_misses_total 1",
		`mpcgraphd_cache_entries{tier="memory"} 1`,
		"mpcgraphd_solves_total 1",
		"mpcgraphd_coalesced_total 0",
		`mpcgraphd_jobs{state="done"} 2`,
		`mpcgraphd_resolve_memo_total{result="hit"} 1`,
		`mpcgraphd_resolve_memo_total{result="miss"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}

	// Drain: health flips to 503/draining, submissions are rejected.
	s.Drain(5 * time.Second)
	resp, _ = getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != 503 {
		t.Errorf("healthz while draining: %d, want 503", resp.StatusCode)
	}
	resp, data = postJSON(t, ts.URL+"/v1/jobs", &JobRequest{
		Problem:  "mis",
		Scenario: &ScenarioRequest{Name: "gnp", N: 200, Seed: 6},
	})
	if resp.StatusCode != 503 {
		t.Errorf("submit while draining: %d (%s), want 503", resp.StatusCode, data)
	}
	_, metrics = getBody(t, ts.URL+"/metrics")
	if !strings.Contains(string(metrics), "mpcgraphd_up 0") {
		t.Errorf("metrics did not flip mpcgraphd_up to 0")
	}
}

// TestDrainFinishesQueuedJobs: jobs admitted before Drain complete.
func TestDrainFinishesQueuedJobs(t *testing.T) {
	s, err := New(Config{Workers: 1, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var ids []string
	for i := 0; i < 4; i++ {
		resp, data := postJSON(t, ts.URL+"/v1/jobs", &JobRequest{
			Problem:  "approx-matching",
			Scenario: &ScenarioRequest{Name: "gnp", N: 500 + i, Seed: 8},
			Options:  OptionsRequest{Seed: 8},
			NoCache:  true,
		})
		if resp.StatusCode != 201 {
			t.Fatalf("submit %d: %s: %s", i, resp.Status, data)
		}
		ids = append(ids, decodeView(t, data).ID)
	}
	s.Drain(30 * time.Second)
	for _, id := range ids {
		job, ok := s.lookup(id)
		if !ok {
			t.Fatalf("job %s evicted during drain", id)
		}
		if v := job.view(); v.State != StateDone {
			t.Errorf("job %s state %s after drain, want done", id, v.State)
		}
	}
}

// TestCatalogEnumeratesRegistries: every registry entry appears in the
// catalog endpoint automatically.
func TestCatalogEnumeratesRegistries(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, data := getBody(t, ts.URL+"/v1/catalog")
	if resp.StatusCode != 200 {
		t.Fatalf("catalog: %s: %s", resp.Status, data)
	}
	var body struct {
		Algorithms []string          `json:"algorithms"`
		Problems   []string          `json:"problems"`
		Models     []string          `json:"models"`
		Scenarios  []catalogScenario `json:"scenarios"`
		Formats    []catalogFormat   `json:"formats"`
	}
	if err := json.Unmarshal(data, &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Algorithms) != len(registry.Pairs()) {
		t.Errorf("catalog lists %d algorithms, registry has %d", len(body.Algorithms), len(registry.Pairs()))
	}
	if len(body.Scenarios) != len(scenario.Names()) {
		t.Errorf("catalog lists %d scenarios, catalog package has %d", len(body.Scenarios), len(scenario.Names()))
	}
	if len(body.Formats) != len(graphio.Formats()) {
		t.Errorf("catalog lists %d formats, graphio has %d", len(body.Formats), len(graphio.Formats()))
	}
	if len(body.Problems) != len(registry.Problems()) || len(body.Models) != 2 {
		t.Errorf("catalog problems/models incomplete: %v / %v", body.Problems, body.Models)
	}
}
