package service

import (
	"bufio"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// The end-to-end batch suite: sweep expansion, the dedup accounting the
// tentpole promises (a fully cached/coalescible batch performs zero new
// solves, proven against mpcgraphd_solves_total), mid-batch drain,
// per-job cancellation inside a live batch, the NDJSON completion
// stream, and a seeded-burst soak asserting coalesced+cached >=
// submitted - unique under -race.

// metricValue scrapes /metrics and returns the named sample.
func metricValue(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, data := getBody(t, base+"/metrics")
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("metric %s: bad value %q", name, rest)
			}
			return v
		}
	}
	t.Fatalf("metric %s not exposed:\n%s", name, data)
	return 0
}

func decodeBatch(t *testing.T, data []byte) *BatchView {
	t.Helper()
	var v BatchView
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("bad batch view %s: %v", data, err)
	}
	return &v
}

// submitBatchHTTP posts a batch and asserts 201.
func submitBatchHTTP(t *testing.T, base string, req *BatchRequest) *BatchView {
	t.Helper()
	resp, data := postJSON(t, base+"/v1/batches", req)
	if resp.StatusCode != 201 {
		t.Fatalf("POST /v1/batches: %s: %s", resp.Status, data)
	}
	return decodeBatch(t, data)
}

// awaitBatch polls until every member of the batch is terminal.
func awaitBatch(t *testing.T, base, id string) *BatchView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, data := getBody(t, base+"/v1/batches/"+id)
		if resp.StatusCode != 200 {
			t.Fatalf("GET batch: %s: %s", resp.Status, data)
		}
		v := decodeBatch(t, data)
		if v.State == "done" {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("batch %s did not finish", id)
	return nil
}

// sweep builds the canonical test sweep: gnp instances over a seed
// range for the given pairs.
func sweep(n int, from, to uint64, pairs ...PairRequest) *BatchRequest {
	return &BatchRequest{Sweep: &SweepRequest{
		Scenarios: []ScenarioRequest{{Name: "gnp", N: n}},
		Seeds:     &SeedRange{From: from, To: to},
		Pairs:     pairs,
	}}
}

// TestBatchSweepExpandAndComplete: the cross product lands, every
// member completes, and the accounting is conserved.
func TestBatchSweepExpandAndComplete(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	b := submitBatchHTTP(t, ts.URL, sweep(200, 1, 3,
		PairRequest{Problem: "mis"}, PairRequest{Problem: "vertex-cover"}))
	if b.Total != 6 || len(b.Jobs) != 6 {
		t.Fatalf("sweep 1 scenario x 3 seeds x 2 pairs expanded to %d jobs", b.Total)
	}

	v := awaitBatch(t, ts.URL, b.ID)
	if v.Counts.Done != 6 {
		t.Fatalf("counts after completion: %+v", v.Counts)
	}
	d := v.Dedup
	if d.Resolved != 6 || d.UniqueKeys != 6 {
		t.Errorf("dedup accounting: %+v (want 6 resolved, 6 unique)", d)
	}
	if got := d.Enqueued + d.CacheHits.Memory + d.CacheHits.Disk + d.Coalesced + d.FailedResolve; got != 6 {
		t.Errorf("placement accounting not conserved: %+v sums to %d", d, got)
	}
	if v.FinishedAt == "" || v.WallMs < 0 {
		t.Errorf("finished batch has no wall time: finishedAt=%q wallMs=%v", v.FinishedAt, v.WallMs)
	}

	// Every member view names the batch and a distinct seed cell.
	seen := map[string]bool{}
	for _, id := range v.Jobs {
		resp, data := getBody(t, ts.URL+"/v1/jobs/"+id)
		if resp.StatusCode != 200 {
			t.Fatalf("GET member %s: %s", id, resp.Status)
		}
		jv := decodeView(t, data)
		if jv.Batch != b.ID {
			t.Errorf("member %s carries batch %q, want %q", id, jv.Batch, b.ID)
		}
		if jv.State != StateDone {
			t.Errorf("member %s state %s (%s)", id, jv.State, jv.Error)
		}
		cell := jv.Problem + "/" + jv.Source
		if seen[cell] {
			t.Errorf("duplicate sweep cell %q", cell)
		}
		seen[cell] = true
	}

	// Batch listing and metrics agree.
	resp, data := getBody(t, ts.URL+"/v1/batches")
	if resp.StatusCode != 200 {
		t.Fatalf("GET /v1/batches: %s", resp.Status)
	}
	var list struct {
		Batches []*BatchView `json:"batches"`
	}
	if err := json.Unmarshal(data, &list); err != nil || len(list.Batches) != 1 {
		t.Fatalf("batch listing: %v %s", err, data)
	}
	if got := metricValue(t, ts.URL, "mpcgraphd_batch_jobs_total"); got != 6 {
		t.Errorf("mpcgraphd_batch_jobs_total %v, want 6", got)
	}
	if got := metricValue(t, ts.URL, "mpcgraphd_batches_active"); got != 0 {
		t.Errorf("mpcgraphd_batches_active %v after completion", got)
	}
}

// TestBatchSweepSkipsUnweightedCells: weighted-matching cells are
// generated only for weighted scenarios.
func TestBatchSweepSkipsUnweightedCells(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	b := submitBatchHTTP(t, ts.URL, &BatchRequest{Sweep: &SweepRequest{
		Scenarios: []ScenarioRequest{{Name: "gnp", N: 200}, {Name: "weighted-gnp", N: 200}},
		Seeds:     &SeedRange{From: 5, To: 6},
		Pairs:     []PairRequest{{Problem: "weighted-matching"}, {Problem: "mis"}},
	}})
	// gnp x weighted-matching is skipped: 2 scenarios x 2 seeds x 2
	// pairs = 8 cells minus the 2 skipped.
	if b.Total != 6 {
		t.Fatalf("weighted skip: expanded to %d jobs, want 6", b.Total)
	}
	v := awaitBatch(t, ts.URL, b.ID)
	if v.Counts.Done != 6 || v.Counts.Failed != 0 {
		t.Fatalf("counts: %+v", v.Counts)
	}
}

// TestBatchFullyCachedZeroSolves is the tentpole acceptance criterion:
// resubmitting a completed sweep performs zero new solves, proven by
// mpcgraphd_solves_total.
func TestBatchFullyCachedZeroSolves(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := sweep(300, 1, 2, PairRequest{Problem: "mis"})
	first := awaitBatch(t, ts.URL, submitBatchHTTP(t, ts.URL, req).ID)
	if first.Counts.Done != 2 {
		t.Fatalf("warm-up batch: %+v", first.Counts)
	}
	solves := metricValue(t, ts.URL, "mpcgraphd_solves_total")

	second := awaitBatch(t, ts.URL, submitBatchHTTP(t, ts.URL, req).ID)
	if second.Counts.Done != 2 {
		t.Fatalf("replay batch: %+v", second.Counts)
	}
	if after := metricValue(t, ts.URL, "mpcgraphd_solves_total"); after != solves {
		t.Fatalf("fully cached batch performed %v new solves", after-solves)
	}
	d := second.Dedup
	if d.CacheHits.Memory+d.CacheHits.Disk != 2 || d.Enqueued != 0 {
		t.Errorf("replay dedup accounting: %+v (want 2 cache hits, 0 enqueued)", d)
	}
}

// TestBatchDedupWithinBatch: identical members of one batch share one
// solve — the leader runs, the rest ride the flight or the cache.
func TestBatchDedupWithinBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	job := JobRequest{
		Problem:  "mis",
		Scenario: &ScenarioRequest{Name: "gnp", N: 300, Seed: 11},
		Options:  OptionsRequest{Seed: 11},
	}
	req := &BatchRequest{Jobs: []JobRequest{job, job, job, job, job}}
	v := awaitBatch(t, ts.URL, submitBatchHTTP(t, ts.URL, req).ID)
	if v.Counts.Done != 5 {
		t.Fatalf("counts: %+v", v.Counts)
	}
	d := v.Dedup
	if d.UniqueKeys != 1 || d.Enqueued != 1 {
		t.Errorf("dedup: %+v (want 1 unique key, 1 enqueued)", d)
	}
	if settled := d.CacheHits.Memory + d.CacheHits.Disk + d.Coalesced; settled != 4 {
		t.Errorf("dedup: %+v (want 4 members settled without a queue slot)", d)
	}
	if solves := metricValue(t, ts.URL, "mpcgraphd_solves_total"); solves != 1 {
		t.Errorf("5 identical members cost %v solves, want 1", solves)
	}
}

// TestBatchMemberResolveFailure: a member that fails instance
// resolution fails alone; the batch still completes and accounts it.
func TestBatchMemberResolveFailure(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	good := JobRequest{Problem: "mis", Scenario: &ScenarioRequest{Name: "gnp", N: 200, Seed: 3}}
	bad := JobRequest{Problem: "mis", Scenario: &ScenarioRequest{Name: "gnp", N: 200, Seed: 3,
		Params: map[string]float64{"nonsense": 1}}}
	v := awaitBatch(t, ts.URL, submitBatchHTTP(t, ts.URL, &BatchRequest{Jobs: []JobRequest{good, bad}}).ID)
	if v.Counts.Done != 1 || v.Counts.Failed != 1 {
		t.Fatalf("counts: %+v", v.Counts)
	}
	if v.Dedup.FailedResolve != 1 {
		t.Errorf("dedup: %+v (want 1 failedResolve)", v.Dedup)
	}
}

// TestBatchRejections: the admission table — hostile sizes are 413 with
// the documented limit, malformed specs 400/422, all before any job
// record exists.
func TestBatchRejections(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxBatchJobs: 8})
	job := JobRequest{Problem: "mis", Scenario: &ScenarioRequest{Name: "gnp", N: 100}}
	nineJobs := make([]JobRequest, 9)
	for i := range nineJobs {
		nineJobs[i] = job
	}
	cases := []struct {
		name   string
		req    *BatchRequest
		status int
	}{
		{"explicit list over limit", &BatchRequest{Jobs: nineJobs}, 413},
		{"seed range over limit", sweep(100, 0, math.MaxUint64, PairRequest{Problem: "mis"}), 413},
		{"cross product over limit", sweep(100, 1, 5, PairRequest{Problem: "mis"}, PairRequest{Problem: "vertex-cover"}), 413},
		{"jobs and sweep", &BatchRequest{Jobs: []JobRequest{job}, Sweep: sweep(100, 1, 1).Sweep}, 400},
		{"no members", &BatchRequest{}, 400},
		{"empty seed range", sweep(100, 9, 3, PairRequest{Problem: "mis"}), 400},
		{"unknown scenario", &BatchRequest{Sweep: &SweepRequest{
			Scenarios: []ScenarioRequest{{Name: "nope"}}}}, 400},
		{"unknown problem", sweep(100, 1, 1, PairRequest{Problem: "shortest-path"}), 400},
		{"unregistered pair", sweep(100, 1, 1, PairRequest{Problem: "weighted-matching", Model: "congested-clique"}), 422},
		{"zero cells after weighted skip", sweep(100, 1, 1, PairRequest{Problem: "weighted-matching"}), 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := postJSON(t, ts.URL+"/v1/batches", tc.req)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, data)
			}
			if tc.status == 413 && !strings.Contains(string(data), "limit") {
				t.Errorf("413 body does not name the limit: %s", data)
			}
		})
	}
	// Nothing was admitted: no job records, no batches, no members.
	s.mu.Lock()
	jobs, batches := len(s.jobs), len(s.batches)
	s.mu.Unlock()
	if jobs != 0 || batches != 0 {
		t.Errorf("rejected batches left %d jobs and %d batches behind", jobs, batches)
	}
	// Unknown fields are rejected like the single-job endpoint.
	resp, _ := http.Post(ts.URL+"/v1/batches", "application/json",
		strings.NewReader(`{"sweepp": {}}`))
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("unknown field: status %d, want 400", resp.StatusCode)
	}
}

// TestBatchCancelRemainder: DELETE on a live batch cancels every
// non-terminal member; a second DELETE is idempotent. The server is
// workerless, so members stay deterministically queued.
func TestBatchCancelRemainder(t *testing.T) {
	s := idleServer(t, Config{QueueDepth: 16})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain(5 * time.Second)
	})

	b := submitBatchHTTP(t, ts.URL, sweep(100, 1, 4, PairRequest{Problem: "mis"}))
	// Wait for the feeder to enqueue all four (no workers ever run them).
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, data := getBody(t, ts.URL+"/v1/batches/"+b.ID)
		if resp.StatusCode != 200 {
			t.Fatalf("GET batch: %s", resp.Status)
		}
		if decodeBatch(t, data).Dedup.Enqueued == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("feeder never enqueued the batch: %s", data)
		}
		time.Sleep(2 * time.Millisecond)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/batches/"+b.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("DELETE batch: %s", resp.Status)
	}

	v := awaitBatch(t, ts.URL, b.ID)
	if !v.Canceled || v.Counts.Canceled != 4 {
		t.Fatalf("after cancel: canceled=%t counts=%+v", v.Canceled, v.Counts)
	}

	// Idempotent: canceling a finished batch changes nothing.
	resp2, err := http.DefaultClient.Do(req.Clone(req.Context()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != 200 {
		t.Fatalf("second DELETE: %s", resp2.Status)
	}
}

// TestBatchMemberCancelInsideLiveBatch: canceling one member of a live
// batch cancels only that member — the rest complete and the batch
// itself is not marked canceled.
func TestBatchMemberCancelInsideLiveBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Failpoints: "solve-delay=100ms"})
	b := submitBatchHTTP(t, ts.URL, sweep(100, 1, 3, PairRequest{Problem: "mis"}))

	// The single delayed worker holds the first member for 100ms, so the
	// last member is still queued — cancel it through the job API.
	victim := b.Jobs[len(b.Jobs)-1]
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+victim, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 && resp.StatusCode != 409 {
		t.Fatalf("DELETE member: %s", resp.Status)
	}
	canceled := resp.StatusCode == 200

	v := awaitBatch(t, ts.URL, b.ID)
	if v.Canceled {
		t.Errorf("member cancel marked the whole batch canceled")
	}
	wantCanceled := 0
	if canceled {
		wantCanceled = 1
	}
	if v.Counts.Canceled != wantCanceled || v.Counts.Done != 3-wantCanceled {
		t.Errorf("counts after member cancel: %+v (member cancel won: %t)", v.Counts, canceled)
	}
	member := awaitTerminal(t, ts.URL, victim)
	if canceled && member.State != StateCanceled {
		t.Errorf("canceled member state %s", member.State)
	}
}

// TestBatchMidDrain: a drain that lands while a batch is feeding leaves
// every member terminal (finished or canceled, never stranded) and
// Drain itself returns — the feeder cannot wedge it.
func TestBatchMidDrain(t *testing.T) {
	s, err := New(Config{Workers: 1, QueueDepth: 2, Failpoints: "solve-delay=20ms"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// 8 unique cells against a depth-2 queue: the feeder will be parked
	// in a blocking queue send when the drain starts.
	b := submitBatchHTTP(t, ts.URL, sweep(100, 1, 8, PairRequest{Problem: "mis"}))

	drained := make(chan struct{})
	go func() {
		s.Drain(30 * time.Second)
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(60 * time.Second):
		t.Fatal("Drain wedged behind the batch feeder")
	}

	v := awaitBatch(t, ts.URL, b.ID)
	if v.Counts.Done+v.Counts.Canceled+v.Counts.Failed != v.Total {
		t.Fatalf("drained batch left non-terminal members: %+v", v.Counts)
	}
	if v.Counts.Queued != 0 || v.Counts.Running != 0 {
		t.Fatalf("stranded members after drain: %+v", v.Counts)
	}
}

// batchStreamLine is one NDJSON line of the completion stream: either a
// member completion (ID set; batch is then the batch id string) or the
// terminal marker (Done set; batch is then the full batch view).
type batchStreamLine struct {
	ID    string          `json:"id"`
	State JobState        `json:"state"`
	Done  bool            `json:"done"`
	Batch json.RawMessage `json:"batch"`
}

// TestBatchStreamNDJSON: the stream replays members already terminal,
// follows live completions, and terminates with the batch view.
func TestBatchStreamNDJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	b := submitBatchHTTP(t, ts.URL, sweep(200, 1, 4, PairRequest{Problem: "mis"}))

	resp, err := http.Get(ts.URL + "/v1/batches/" + b.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}

	var members []batchStreamLine
	var end *batchStreamLine
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line batchStreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		if line.Done {
			end = &line
			break
		}
		members = append(members, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(members) != 4 {
		t.Fatalf("stream carried %d member completions, want 4", len(members))
	}
	for _, m := range members {
		if m.State != StateDone {
			t.Errorf("streamed member %s in state %s", m.ID, m.State)
		}
	}
	if end == nil || end.Batch == nil {
		t.Fatalf("stream never emitted the terminal marker")
	}
	final := decodeBatch(t, end.Batch)
	if final.State != "done" {
		t.Fatalf("terminal marker batch state %q", final.State)
	}

	// A second stream against the finished batch replays everything and
	// terminates immediately.
	resp2, data := getBody(t, ts.URL+"/v1/batches/"+b.ID+"/stream")
	if resp2.StatusCode != 200 {
		t.Fatalf("replay stream: %s", resp2.Status)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 5 {
		t.Fatalf("replay stream carried %d lines, want 5:\n%s", len(lines), data)
	}
}

// TestBatchSoakSeededBurst is the soak: concurrent batches with heavy
// key overlap, under -race in CI. The dedup inequality must hold —
// coalesced + cached >= submitted - unique — and the daemon must not
// solve more than the unique key count.
func TestBatchSoakSeededBurst(t *testing.T) {
	const (
		bursts = 6
		seeds  = 5 // unique keys per pair; shared across all bursts
	)
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 256})

	views := make([]*BatchView, bursts)
	var wg sync.WaitGroup
	for i := 0; i < bursts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload, err := json.Marshal(sweep(200, 1, seeds, PairRequest{Problem: "mis"}))
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.Post(ts.URL+"/v1/batches", "application/json", strings.NewReader(string(payload)))
			if err != nil {
				t.Error(err)
				return
			}
			var v BatchView
			err = json.NewDecoder(resp.Body).Decode(&v)
			resp.Body.Close()
			if err != nil || resp.StatusCode != 201 {
				t.Errorf("burst %d: status %d err %v", i, resp.StatusCode, err)
				return
			}
			views[i] = &v
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	submitted, settled, enqueued := 0, 0, 0
	for _, v := range views {
		final := awaitBatch(t, ts.URL, v.ID)
		if final.Counts.Done != final.Total {
			t.Fatalf("burst %s: %+v", v.ID, final.Counts)
		}
		submitted += final.Total
		settled += final.Dedup.CacheHits.Memory + final.Dedup.CacheHits.Disk + final.Dedup.Coalesced
		enqueued += final.Dedup.Enqueued
	}
	if submitted != bursts*seeds {
		t.Fatalf("submitted %d members, want %d", submitted, bursts*seeds)
	}
	// The soak inequality: every member beyond the unique keys settled
	// without a queue slot.
	if settled < submitted-seeds {
		t.Errorf("coalesced+cached = %d < submitted-unique = %d", settled, submitted-seeds)
	}
	if solves := metricValue(t, ts.URL, "mpcgraphd_solves_total"); solves > seeds {
		t.Errorf("%v solves for %d unique keys", solves, seeds)
	}
	if enqueued > seeds {
		t.Errorf("%d members enqueued for %d unique keys", enqueued, seeds)
	}
}

// TestBatchDrainingRejects: a draining server rejects new batches with
// 503 + Retry-After before creating anything.
func TestBatchDrainingRejects(t *testing.T) {
	s := idleServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	s.Drain(0)

	resp, _ := postJSON(t, ts.URL+"/v1/batches", sweep(100, 1, 1, PairRequest{Problem: "mis"}))
	if resp.StatusCode != 503 {
		t.Fatalf("draining submit: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("503 rejection carries no Retry-After")
	}
}

// TestBatchEviction: finished batches beyond MaxBatchesRetained are
// evicted oldest-first; live batches never are.
func TestBatchEviction(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBatchesRetained: 2})
	var ids []string
	for i := 0; i < 3; i++ {
		b := submitBatchHTTP(t, ts.URL, sweep(100, uint64(i+1), uint64(i+1), PairRequest{Problem: "mis"}))
		awaitBatch(t, ts.URL, b.ID)
		ids = append(ids, b.ID)
	}
	if resp, _ := getBody(t, ts.URL+"/v1/batches/"+ids[0]); resp.StatusCode != 404 {
		t.Errorf("oldest finished batch still retained: %s", resp.Status)
	}
	for _, id := range ids[1:] {
		if resp, _ := getBody(t, ts.URL+"/v1/batches/"+id); resp.StatusCode != 200 {
			t.Errorf("batch %s evicted too eagerly: %s", id, resp.Status)
		}
	}
}

// TestBatchViewDoneCountsAllTerminal polls batch views while members
// turn terminal on another goroutine: a view that reads done must count
// no member queued or running.
func TestBatchViewDoneCountsAllTerminal(t *testing.T) {
	s := idleServer(t, Config{})
	for round := 0; round < 200; round++ {
		b := &Batch{ID: "b", created: time.Now(), jobs: make([]*Job, 16), changed: make(chan struct{}), lg: s.tel.log}
		for i := range b.jobs {
			b.jobs[i] = newJob("j"+strconv.Itoa(i), s.tel)
			b.jobs[i].notify = b.noteTerminal
		}
		go func() {
			for _, j := range b.jobs {
				j.cancelJob("test")
			}
		}()
		for {
			v := b.view()
			if v.State != "done" {
				continue
			}
			if busy := v.Counts.Queued + v.Counts.Running; busy > 0 {
				t.Fatalf("round %d: done view counts %d members queued or running: %+v", round, busy, v.Counts)
			}
			break
		}
	}
}
