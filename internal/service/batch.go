package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"mpcgraph"
	"mpcgraph/internal/obs"
	"mpcgraph/internal/registry"
	"mpcgraph/internal/scenario"
)

// The batch API: POST /v1/batches admits many jobs as one unit — an
// explicit job list or a cross-product sweep spec (scenarios × seed
// range × (problem, model) pairs, the shape of internal/bench's
// E-series experiments). The server expands the spec, creates every
// member job record up front, and a per-batch feeder goroutine then
// runs each member through the same cache-aware dedup ladder as a
// single submission (memory probe, single-flight attach, disk probe —
// see place), so a batch whose keys are already cached or coalescible
// enqueues no new solves at all. Unlike single submissions, a feeder
// blocks on a full queue instead of failing with 429: the batch is the
// admission unit, its POST either rejects whole (413 over the job
// limit, 503 while draining) or accepts whole.
//
// GET /v1/batches/{id} aggregates the batch (counts by member state,
// cache-hit tiers, dedup accounting, wall time), GET .../stream follows
// member completions as NDJSON, and DELETE cancels the remainder. See
// docs/service.md.

// ErrBatchTooLarge reports a batch whose explicit job list or sweep
// cross-product exceeds Config.MaxBatchJobs — the documented admission
// limit that keeps a hostile spec from materializing unbounded work.
var ErrBatchTooLarge = errors.New("batch exceeds the job limit")

// BatchRequest is the POST /v1/batches body. Exactly one of Jobs and
// Sweep describes the members.
type BatchRequest struct {
	// Jobs is an explicit member list.
	Jobs []JobRequest `json:"jobs,omitempty"`
	// Sweep expands server-side into the cross product of its scenarios,
	// seed range and (problem, model) pairs.
	Sweep *SweepRequest `json:"sweep,omitempty"`
	// TimeoutMs is the per-member deadline in milliseconds (0 = none).
	// Explicit jobs that carry their own timeoutMs keep it.
	TimeoutMs int64 `json:"timeoutMs,omitempty"`
	// NoCache forces a cold run for every member (explicit jobs may also
	// set it individually).
	NoCache bool `json:"noCache,omitempty"`
}

// SweepRequest is the cross-product half of BatchRequest. One member
// job is generated per (scenario, seed, pair) cell; the seed drives
// both the scenario instance and the algorithm's random choices, the
// way `mpcgraph submit -seed` does.
type SweepRequest struct {
	// Scenarios names the catalog scenarios to sweep. The per-entry Seed
	// field is ignored: the sweep's seed range overrides it per cell.
	Scenarios []ScenarioRequest `json:"scenarios"`
	// Seeds is the inclusive seed range; omitted, the sweep runs the
	// single seed in Options.Seed.
	Seeds *SeedRange `json:"seeds,omitempty"`
	// Pairs restricts the (problem, model) pairs; omitted, every
	// registered pair is swept. Pairs that require a weighted instance
	// are skipped for unweighted scenarios (and vice versa never: an
	// unweighted problem runs fine on a weighted instance).
	Pairs []PairRequest `json:"pairs,omitempty"`
	// Options applies to every member; its Seed is overridden by the
	// sweep seed per cell.
	Options OptionsRequest `json:"options,omitempty"`
}

// SeedRange is an inclusive [From, To] seed interval.
type SeedRange struct {
	From uint64 `json:"from"`
	To   uint64 `json:"to"`
}

// PairRequest names one (problem, model) pair; Model defaults to "mpc".
type PairRequest struct {
	Problem string `json:"problem"`
	Model   string `json:"model,omitempty"`
}

// batchSpec is one expanded member: the request plus its pre-validated
// pair, stamped on the job record at creation so views show the right
// problem/model before the feeder resolves the instance.
type batchSpec struct {
	req     *JobRequest
	problem mpcgraph.Problem
	model   mpcgraph.Model
}

// expand validates the request and materializes the member specs. It
// never generates an instance — expansion cost is proportional to the
// (bounded) member count, not to instance sizes — and it rejects a
// cross product over Config.MaxBatchJobs before allocating anything
// proportional to it.
func (r *BatchRequest) expand(cfg Config) ([]batchSpec, error) {
	switch {
	case len(r.Jobs) > 0 && r.Sweep != nil:
		return nil, fmt.Errorf("service: jobs and sweep are mutually exclusive")
	case len(r.Jobs) == 0 && r.Sweep == nil:
		return nil, fmt.Errorf("service: batch needs members: jobs or sweep")
	case len(r.Jobs) > 0:
		if len(r.Jobs) > cfg.MaxBatchJobs {
			return nil, fmt.Errorf("service: %w: %d jobs, limit %d (see docs/service.md)",
				ErrBatchTooLarge, len(r.Jobs), cfg.MaxBatchJobs)
		}
		specs := make([]batchSpec, 0, len(r.Jobs))
		for i := range r.Jobs {
			req := r.Jobs[i] // copy: the batch-level defaults must not alias
			if req.TimeoutMs == 0 {
				req.TimeoutMs = r.TimeoutMs
			}
			if r.NoCache {
				req.NoCache = true
			}
			problem, model, err := req.resolvePair()
			if err != nil {
				return nil, fmt.Errorf("job %d: %w", i, err)
			}
			specs = append(specs, batchSpec{req: &req, problem: problem, model: model})
		}
		return specs, nil
	}
	return r.Sweep.expand(cfg, r.TimeoutMs, r.NoCache)
}

// expand materializes the sweep cross product.
func (sw *SweepRequest) expand(cfg Config, timeoutMs int64, noCache bool) ([]batchSpec, error) {
	if len(sw.Scenarios) == 0 {
		return nil, fmt.Errorf("service: sweep needs at least one scenario")
	}
	weighted := make([]bool, len(sw.Scenarios))
	for i, scr := range sw.Scenarios {
		if scr.Name == "" {
			return nil, fmt.Errorf("service: sweep scenario %d needs a name (see GET /v1/catalog)", i)
		}
		sc, ok := scenario.Lookup(scr.Name)
		if !ok {
			return nil, fmt.Errorf("service: unknown scenario %q (see GET /v1/catalog)", scr.Name)
		}
		weighted[i] = sc.Weighted
	}

	from, to := sw.Options.Seed, sw.Options.Seed
	if sw.Seeds != nil {
		from, to = sw.Seeds.From, sw.Seeds.To
		if to < from {
			return nil, fmt.Errorf("service: sweep seed range is empty (to %d < from %d)", to, from)
		}
	}
	// Guarded before the int conversion: to-from is a uint64 an attacker
	// controls end to end.
	if to-from >= uint64(cfg.MaxBatchJobs) {
		return nil, fmt.Errorf("service: %w: %d seeds alone exceed the %d-job limit (see docs/service.md)",
			ErrBatchTooLarge, to-from+1, cfg.MaxBatchJobs)
	}
	seedCount := int(to-from) + 1

	type pairCell struct {
		req     PairRequest
		problem mpcgraph.Problem
		model   mpcgraph.Model
	}
	var pairs []pairCell
	if len(sw.Pairs) == 0 {
		for _, p := range registry.Pairs() {
			pairs = append(pairs, pairCell{
				req:     PairRequest{Problem: p.Problem.String(), Model: p.Model.String()},
				problem: mpcgraph.Problem(p.Problem),
				model:   p.Model,
			})
		}
	} else {
		for i, pr := range sw.Pairs {
			probe := JobRequest{Problem: pr.Problem, Model: pr.Model}
			problem, model, err := probe.resolvePair()
			if err != nil {
				return nil, fmt.Errorf("pair %d: %w", i, err)
			}
			pairs = append(pairs, pairCell{req: pr, problem: problem, model: model})
		}
	}

	// Overflow-safe product bound: reject as soon as the running product
	// would exceed the limit, before multiplying further.
	count := 1
	for _, factor := range []int{len(sw.Scenarios), seedCount, len(pairs)} {
		if factor == 0 {
			count = 0
			break
		}
		if count > cfg.MaxBatchJobs/factor {
			return nil, fmt.Errorf("service: %w: %d scenarios x %d seeds x %d pairs exceeds the %d-job limit (see docs/service.md)",
				ErrBatchTooLarge, len(sw.Scenarios), seedCount, len(pairs), cfg.MaxBatchJobs)
		}
		count *= factor
	}

	specs := make([]batchSpec, 0, count)
	for i, scr := range sw.Scenarios {
		for seed := from; ; seed++ {
			for _, pc := range pairs {
				if pc.problem == mpcgraph.ProblemWeightedMatching && !weighted[i] {
					continue // no weighted instance to solve on; documented skip
				}
				opts := sw.Options
				opts.Seed = seed
				specs = append(specs, batchSpec{
					req: &JobRequest{
						Problem:   pc.req.Problem,
						Model:     pc.req.Model,
						Scenario:  &ScenarioRequest{Name: scr.Name, N: scr.N, Seed: seed, Params: scr.Params},
						Options:   opts,
						TimeoutMs: timeoutMs,
						NoCache:   noCache,
					},
					problem: pc.problem,
					model:   pc.model,
				})
			}
			if seed == to {
				// The explicit break (not seed <= to) keeps a range ending at
				// the maximum uint64 from wrapping into an infinite loop.
				break
			}
		}
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("service: sweep expands to zero jobs (every pair was skipped for its scenario)")
	}
	return specs, nil
}

// batchErrorStatus maps expansion failures onto HTTP statuses: over the
// job limit is 413, everything else follows the single-job table.
func batchErrorStatus(err error) int {
	if errors.Is(err, ErrBatchTooLarge) {
		return 413
	}
	return requestErrorStatus(err)
}

// Batch is one POST /v1/batches expansion: the member records plus the
// feeder's dedup accounting. jobs is immutable after creation;
// everything else is guarded by mu. The member requests live only in
// the feeder, which drops each once it is placed.
type Batch struct {
	ID string

	created time.Time
	jobs    []*Job // member records, in expansion order
	// tel records the settle-time histogram when the last member turns
	// terminal; lg is the batch-correlated logger. Set before the batch
	// is visible; both tolerate a zero-telemetry test server.
	tel *telemetry
	lg  *obs.Logger

	mu       sync.Mutex
	canceled bool
	finished time.Time
	// completions lists members in terminal order — the stream's replay
	// buffer. changed is closed and replaced on every completion, so
	// stream followers can select on it with their client's context.
	completions []*Job
	changed     chan struct{}

	// Feeder dedup accounting.
	resolved      int // members past instance resolution (failures included)
	uniqueKeys    int // distinct cache keys among resolved members
	memoryHits    int // settled by the L1 probe
	diskHits      int // settled by the persistent-tier probe
	coalesced     int // attached to an identical in-flight computation
	enqueued      int // became a new flight's leader (the solves a batch costs)
	failedResolve int // failed validation or instance materialization
}

// noteTerminal is every member's Job.notify hook. The last member's
// terminal transition settles the batch: the settle-time histogram and
// the batch.settled log event both fire here, exactly once.
func (b *Batch) noteTerminal(j *Job) {
	b.mu.Lock()
	b.completions = append(b.completions, j)
	settled := len(b.completions) == len(b.jobs)
	if settled {
		b.finished = time.Now()
	}
	finished := b.finished
	close(b.changed)
	b.changed = make(chan struct{})
	b.mu.Unlock()
	if settled {
		elapsed := finished.Sub(b.created)
		if b.tel != nil {
			b.tel.batchSettle.With().Observe(elapsed)
		}
		b.lg.Info(context.Background(), "batch.settled",
			obs.F("jobs", len(b.jobs)),
			obs.F("ms", durMs(elapsed)))
	}
}

// isCanceled reports whether DELETE hit the batch.
func (b *Batch) isCanceled() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.canceled
}

// done reports whether every member is terminal.
func (b *Batch) done() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.completions) == len(b.jobs)
}

// cancelRemainder marks the batch canceled and cancels every member not
// already terminal. Idempotent; returns how many members it canceled.
func (b *Batch) cancelRemainder(reason string) int {
	b.mu.Lock()
	b.canceled = true
	b.mu.Unlock()
	n := 0
	for _, j := range b.jobs {
		if j.cancelJob(reason) {
			n++
		}
	}
	return n
}

// BatchView is the wire rendering of a batch (GET /v1/batches/{id}).
type BatchView struct {
	ID string `json:"id"`
	// State is "running" until every member is terminal, then "done".
	State    string `json:"state"`
	Canceled bool   `json:"canceled,omitempty"`
	Total    int    `json:"total"`
	// Counts aggregates the members by lifecycle state.
	Counts BatchCounts `json:"counts"`
	// Dedup is the cache-aware dedup accounting: how members settled
	// without a new solve. enqueued is the number of solves the batch
	// actually cost.
	Dedup      BatchDedup `json:"dedup"`
	CreatedAt  string     `json:"createdAt"`
	FinishedAt string     `json:"finishedAt,omitempty"`
	// WallMs is creation to last completion (so far, while running).
	WallMs float64  `json:"wallMs"`
	Jobs   []string `json:"jobs"`
}

// BatchCounts aggregates member lifecycle states.
type BatchCounts struct {
	Queued   int `json:"queued"`
	Running  int `json:"running"`
	Done     int `json:"done"`
	Failed   int `json:"failed"`
	Canceled int `json:"canceled"`
}

// BatchDedup is the feeder's dedup accounting (see Batch).
type BatchDedup struct {
	Resolved      int           `json:"resolved"`
	UniqueKeys    int           `json:"uniqueKeys"`
	CacheHits     BatchTierHits `json:"cacheHits"`
	Coalesced     int           `json:"coalesced"`
	Enqueued      int           `json:"enqueued"`
	FailedResolve int           `json:"failedResolve,omitempty"`
}

// BatchTierHits splits batch cache hits by serving tier.
type BatchTierHits struct {
	Memory int `json:"memory"`
	Disk   int `json:"disk"`
}

// view snapshots the batch for the wire.
func (b *Batch) view() *BatchView {
	// Member states first: b.jobs is immutable and currentState takes
	// only j.mu, so no batch lock is held while touching job locks that
	// a notify path could need... (the lock order is b.mu then j.mu
	// anyway; this just keeps the b.mu hold short).
	var counts BatchCounts
	for _, j := range b.jobs {
		switch j.currentState() {
		case StateQueued:
			counts.Queued++
		case StateRunning:
			counts.Running++
		case StateDone:
			counts.Done++
		case StateFailed:
			counts.Failed++
		case StateCanceled:
			counts.Canceled++
		}
	}
	b.mu.Lock()
	v := &BatchView{
		ID:       b.ID,
		State:    "running",
		Canceled: b.canceled,
		Total:    len(b.jobs),
		Counts:   counts,
		Dedup: BatchDedup{
			Resolved:      b.resolved,
			UniqueKeys:    b.uniqueKeys,
			CacheHits:     BatchTierHits{Memory: b.memoryHits, Disk: b.diskHits},
			Coalesced:     b.coalesced,
			Enqueued:      b.enqueued,
			FailedResolve: b.failedResolve,
		},
		CreatedAt: wireTime(b.created),
	}
	if len(b.completions) == len(b.jobs) {
		v.State = "done"
	}
	finished := b.finished
	b.mu.Unlock()
	if !finished.IsZero() {
		v.FinishedAt = wireTime(finished)
		v.WallMs = float64(finished.Sub(b.created).Microseconds()) / 1000
	} else {
		v.WallMs = float64(time.Since(b.created).Microseconds()) / 1000
	}
	v.Jobs = make([]string, len(b.jobs))
	for i, j := range b.jobs {
		v.Jobs[i] = j.ID
	}
	return v
}

// submitBatch expands the request, creates every member record under
// one lock (cheap: no instances are materialized here), and starts the
// feeder. Like submit it returns an HTTP status hint for failures.
func (s *Server) submitBatch(req *BatchRequest) (*Batch, int, error) {
	specs, err := req.expand(s.cfg)
	if err != nil {
		return nil, batchErrorStatus(err), err
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, 503, fmt.Errorf("service: draining, not accepting jobs")
	}
	s.nextBatchID++
	b := &Batch{
		ID:      fmt.Sprintf("b%06d", s.nextBatchID),
		created: time.Now(),
		jobs:    make([]*Job, len(specs)),
		changed: make(chan struct{}),
		tel:     s.tel,
	}
	b.lg = s.tel.log.With(obs.F("batch", b.ID))
	for i, spec := range specs {
		s.nextID++
		job := newJob(fmt.Sprintf("j%08d", s.nextID), s.tel)
		job.problem, job.model = spec.problem, spec.model
		job.source = fmt.Sprintf("batch %s [%d/%d]", b.ID, i+1, len(specs))
		job.timeout = time.Duration(spec.req.TimeoutMs) * time.Millisecond
		job.noCache = spec.req.NoCache
		job.batchID = b.ID
		job.notify = b.noteTerminal
		job.lg = job.lg.With(obs.F("batch", b.ID))
		s.jobs[job.ID] = job
		s.order = append(s.order, job.ID)
		b.jobs[i] = job
	}
	s.batchJobs += uint64(len(specs))
	s.batches[b.ID] = b
	s.batchOrder = append(s.batchOrder, b.ID)
	s.evictTerminalLocked()
	s.evictBatchesLocked()
	// Registered under the draining check: Drain sets draining before it
	// waits on feeders, so the counter can never go 0->1 concurrently
	// with that Wait.
	s.feeders.Add(1)
	s.mu.Unlock()

	for _, job := range b.jobs {
		job.armDeadline()
	}
	b.lg.Info(context.Background(), "batch.submit", obs.F("jobs", len(b.jobs)))
	go s.feedBatch(b, specs)
	return b, 0, nil
}

// feedBatch is the batch's feeder goroutine: it resolves each member
// and runs it through the dedup ladder, blocking on a full queue. A
// drain cancels the unfed remainder; so does DELETE on the batch.
// specs[i] is member i's request; the feeder clears it once the member
// is placed, so a settled member holds no request body.
func (s *Server) feedBatch(b *Batch, specs []batchSpec) {
	defer s.feeders.Done()
	seen := make(map[string]bool, len(specs))
	for i := range specs {
		req := specs[i].req
		specs[i] = batchSpec{}
		job := b.jobs[i]
		if job.terminal() {
			continue // a deadline or client cancel landed before feeding
		}
		if b.isCanceled() {
			job.cancelJob("batch canceled")
			continue
		}
		select {
		case <-s.quit:
			job.cancelJob("server draining")
			continue
		default:
		}

		a, err := s.admit(req)
		if err != nil {
			b.mu.Lock()
			b.resolved++
			b.failedResolve++
			b.mu.Unlock()
			job.fail(err)
			continue
		}
		job.setResolved(a)
		b.mu.Lock()
		b.resolved++
		if !seen[a.key] {
			seen[a.key] = true
			b.uniqueKeys++
		}
		b.mu.Unlock()

		f, p := s.place(job)
		settled := true
		b.mu.Lock()
		switch p {
		case placedMemory:
			b.memoryHits++
		case placedDisk:
			b.diskHits++
		case placedCoalesced:
			b.coalesced++
		default:
			settled = false
		}
		b.mu.Unlock()
		if settled {
			continue
		}
		in, ok := s.leaderInstance(a, f)
		if !ok {
			continue
		}

		// The blocking enqueue: the batch was admitted as a whole, so its
		// leaders wait for queue slots instead of bouncing with 429. quit
		// unblocks the send when a drain starts mid-batch. The queued
		// stamp lands before the send so the worker's dequeued stamp can
		// never precede it.
		job.stampQueued()
		job.instance = in
		select {
		case s.queue <- job:
			b.mu.Lock()
			b.enqueued++
			b.mu.Unlock()
		case <-s.quit:
			job.instance = nil
			for _, r := range s.dropFlight(f) {
				r.cancelJob("server draining")
			}
		}
	}
}

// lookupBatch returns the batch by id.
func (s *Server) lookupBatch(id string) (*Batch, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.batches[id]
	return b, ok
}

// evictBatchesLocked drops the oldest fully terminal batches beyond the
// retention bound. Called with s.mu held after every batch submission.
// Member job records are retained and evicted independently by
// evictTerminalLocked.
func (s *Server) evictBatchesLocked() {
	excess := len(s.batchOrder) - s.cfg.MaxBatchesRetained
	if excess <= 0 {
		return
	}
	kept := s.batchOrder[:0]
	for _, id := range s.batchOrder {
		if excess > 0 && s.batches[id].done() {
			delete(s.batches, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.batchOrder = kept
}

// handleBatchSubmit is POST /v1/batches: expand and admit one batch.
// 201 with the batch view on success; 400/422 for bad requests, 413
// over the job limit, 503 (with Retry-After) while draining.
func (s *Server) handleBatchSubmit(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, 400, fmt.Errorf("service: bad request body: %v", err))
		return
	}
	b, status, err := s.submitBatch(&req)
	if err != nil {
		if status == 503 {
			w.Header().Set("Retry-After", "5")
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, 201, b.view())
}

// handleBatchList is GET /v1/batches: newest-last batch views.
// Query: limit=<n> caps the page from the newest end (default 100).
func (s *Server) handleBatchList(w http.ResponseWriter, r *http.Request) {
	limit := 100
	if raw := r.URL.Query().Get("limit"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 {
			writeError(w, 400, fmt.Errorf("service: bad limit %q", raw))
			return
		}
		limit = v
	}
	s.mu.Lock()
	ids := append([]string(nil), s.batchOrder...)
	batches := make([]*Batch, 0, len(ids))
	for _, id := range ids {
		batches = append(batches, s.batches[id])
	}
	s.mu.Unlock()
	if len(batches) > limit {
		batches = batches[len(batches)-limit:]
	}
	views := make([]*BatchView, 0, len(batches))
	for _, b := range batches {
		views = append(views, b.view())
	}
	writeJSON(w, 200, struct {
		Batches []*BatchView `json:"batches"`
	}{views})
}

// handleBatchGet is GET /v1/batches/{id}.
func (s *Server) handleBatchGet(w http.ResponseWriter, r *http.Request) {
	b, ok := s.lookupBatch(r.PathValue("id"))
	if !ok {
		writeError(w, 404, fmt.Errorf("service: no batch %q", r.PathValue("id")))
		return
	}
	writeJSON(w, 200, b.view())
}

// handleBatchCancel is DELETE /v1/batches/{id}: cancel every member not
// already terminal (queued, running, or not yet fed). Idempotent — a
// second DELETE (or one against a finished batch) returns the view with
// nothing left to cancel.
func (s *Server) handleBatchCancel(w http.ResponseWriter, r *http.Request) {
	b, ok := s.lookupBatch(r.PathValue("id"))
	if !ok {
		writeError(w, 404, fmt.Errorf("service: no batch %q", r.PathValue("id")))
		return
	}
	b.cancelRemainder("batch canceled by client")
	writeJSON(w, 200, b.view())
}

// batchStreamEnd terminates a batch completion stream.
type batchStreamEnd struct {
	Done  bool       `json:"done"`
	Batch *BatchView `json:"batch"`
}

// handleBatchStream is GET /v1/batches/{id}/stream: one NDJSON line per
// member completion — members already terminal replayed first, in
// completion order, then live completions as they land — terminated by
// a {"done":true,"batch":{...}} line once every member is terminal.
func (s *Server) handleBatchStream(w http.ResponseWriter, r *http.Request) {
	b, ok := s.lookupBatch(r.PathValue("id"))
	if !ok {
		writeError(w, 404, fmt.Errorf("service: no batch %q", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(200)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush()
	}
	emit := func(v any) bool {
		data, err := json.Marshal(v)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "%s\n", data); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	next := 0
	for {
		b.mu.Lock()
		pending := append([]*Job(nil), b.completions[next:]...)
		finished := len(b.completions) == len(b.jobs)
		changed := b.changed
		b.mu.Unlock()

		for _, j := range pending {
			if !emit(j.view()) {
				return
			}
			next++
		}
		if finished {
			emit(batchStreamEnd{Done: true, Batch: b.view()})
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}
