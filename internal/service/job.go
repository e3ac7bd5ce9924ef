package service

import (
	"context"
	"fmt"
	"sync"
	"time"

	"mpcgraph"
	"mpcgraph/internal/obs"
	"mpcgraph/internal/registry"
)

// JobState is the lifecycle of one submitted job:
//
//	queued -> running -> done | failed
//	queued | running  -> canceled
//
// A cache hit completes the job as done at submission time without ever
// entering the queue (its view carries cacheHit: true and the serving
// tier in cacheTier). A coalesced follower rides another job's
// computation: it is queued/running while the leader computes and
// completes when the shared flight does.
type JobState string

const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// maxTraceEvents bounds the per-job trace buffer. The paper's
// algorithms run O(log log n)–O(log n) metered steps, so real runs stay
// far below this; the bound only guards the resident daemon against a
// pathological workload. Overflow drops the newest events and is
// reported in the job view.
const maxTraceEvents = 1 << 16

// Job is one submitted solve. Mutable state is guarded by mu; the
// resolved request fields are immutable after submission.
type Job struct {
	ID string

	// Immutable after resolve.
	problem  mpcgraph.Problem
	model    mpcgraph.Model
	opts     mpcgraph.Options
	n, m     int    // instance size, for the job view
	source   string // human-readable instance origin for the job view
	timeout  time.Duration
	noCache  bool
	cacheKey string

	// instance is the graph a flight leader solves. It is set just
	// before the leader's queue send and taken by run, which drops it
	// when Solve returns; no other job ever holds one.
	instance mpcgraph.Instance

	// flight is the computation this job rides (its own, as leader, or
	// another job's, as follower). Nil for jobs completed from cache at
	// submission. Set once, under Server.mu, before the job is visible
	// to any worker.
	flight    *flight
	coalesced bool

	// notify, when non-nil, observes the job's one terminal transition
	// (done, failed or canceled). It is set before the job is visible
	// and invoked exactly once, after j.mu is released — batches use it
	// to stream member completions without holding any job lock.
	notify func(*Job)
	// batchID names the batch this job was expanded from (empty for
	// single-job submissions). Set before the job is visible.
	batchID string

	// tel is the server's telemetry bundle; lg is the job-correlated
	// logger derived from it (nil when logging is off). Both are set
	// before the job is visible.
	tel *telemetry
	lg  *obs.Logger

	mu        sync.Mutex
	state     JobState
	err       string
	res       *result // set once the job is done
	cacheHit  bool
	cacheTier CacheTier
	timings   jobTimings
	deadline  *time.Timer // fires cancelJob when timeoutMs lapses

	// Trace buffer: appended by the solve's Trace callback, replayed and
	// followed by the streaming endpoint. changed is closed and replaced
	// on every append and on the terminal transition, so followers can
	// select on it together with their client's context.
	trace        []mpcgraph.TraceEvent
	traceDropped int
	changed      chan struct{}
}

func newJob(id string, tel *telemetry) *Job {
	j := &Job{
		ID:        id,
		state:     StateQueued,
		cacheTier: TierNone,
		changed:   make(chan struct{}),
		tel:       tel,
		lg:        tel.log.With(obs.F("job", id)),
	}
	j.timings.received = time.Now()
	return j
}

// currentState reads the lifecycle state.
func (j *Job) currentState() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// terminal reports whether the job reached a final state.
func (j *Job) terminal() bool {
	switch j.currentState() {
	case StateDone, StateFailed, StateCanceled:
		return true
	}
	return false
}

// signalLocked wakes every trace follower; callers hold j.mu.
func (j *Job) signalLocked() {
	close(j.changed)
	j.changed = make(chan struct{})
}

// stopDeadlineLocked releases the deadline timer; callers hold j.mu.
func (j *Job) stopDeadlineLocked() {
	if j.deadline != nil {
		j.deadline.Stop()
		j.deadline = nil
	}
}

// stampQueued records admission to the job queue (leaders only).
// Idempotent: a batch leader is stamped once even if re-placed.
func (j *Job) stampQueued() {
	j.mu.Lock()
	if j.timings.queued.IsZero() {
		j.timings.queued = time.Now()
	}
	j.mu.Unlock()
}

// stampDequeued records the worker pickup and returns the queue wait
// (ok is false when the job never carried a queued stamp).
func (j *Job) stampDequeued() (time.Duration, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	now := time.Now()
	j.timings.dequeued = now
	if j.timings.queued.IsZero() {
		return 0, false
	}
	return now.Sub(j.timings.queued), true
}

// stampAttached records a follower coalescing onto an existing flight.
func (j *Job) stampAttached() {
	j.mu.Lock()
	j.timings.attached = time.Now()
	j.mu.Unlock()
}

// stampProbe records one cache-tier probe duration and feeds the probe
// histogram.
func (j *Job) stampProbe(tier CacheTier, d time.Duration) {
	j.mu.Lock()
	switch tier {
	case TierMemory:
		j.timings.memProbe, j.timings.memProbed = d, true
	case TierDisk:
		j.timings.diskProbe, j.timings.diskProbed = d, true
	}
	j.mu.Unlock()
	if j.tel != nil {
		j.tel.cacheProbe.With(string(tier)).Observe(d)
	}
}

// markPersisted records the write-through completion on a still-live
// rider; terminal riders (canceled mid-flight) keep their record as is.
func (j *Job) markPersisted(at time.Time) {
	j.mu.Lock()
	switch j.state {
	case StateQueued, StateRunning:
		j.timings.persisted = at
	}
	j.mu.Unlock()
}

// armDeadline schedules the per-job deadline, measured from submission
// so it bounds queue wait plus execution. Exceeding it cancels only
// this rider: a coalesced computation keeps running for the riders
// that still want it. Idempotent: batch members arm at record creation
// and again when placed, and must not leak the first timer.
func (j *Job) armDeadline() {
	if j.timeout <= 0 {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.deadline != nil {
		return
	}
	switch j.state {
	case StateQueued, StateRunning:
	default:
		// Already terminal (e.g. completed or canceled before arming):
		// a timer armed now would have no stopDeadlineLocked to release
		// it and would linger until it fired.
		return
	}
	j.deadline = time.AfterFunc(time.Until(j.timings.received.Add(j.timeout)), func() {
		j.cancelJob("job deadline exceeded (timeoutMs bounds queue wait plus execution)")
	})
}

// appendTrace is the Options.Trace callback of a running job.
func (j *Job) appendTrace(ev mpcgraph.TraceEvent) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.trace) >= maxTraceEvents {
		j.traceDropped++
		return
	}
	j.trace = append(j.trace, ev)
	j.signalLocked()
}

// completeCached finishes a job from a cache hit: at submission time
// (L1) or after the unlocked disk probe (L2, where the job is briefly
// visible and cancellable, so riders already terminal stay terminal).
func (j *Job) completeCached(res *result, tier CacheTier) {
	j.mu.Lock()
	switch j.state {
	case StateQueued, StateRunning:
	default:
		j.mu.Unlock()
		return
	}
	j.state = StateDone
	j.res = res
	j.cacheHit = true
	j.cacheTier = tier
	j.timings.settled = time.Now()
	j.stopDeadlineLocked()
	j.signalLocked()
	j.mu.Unlock()
	j.notifyTerminal()
}

// markRunning transitions a queued rider to running when its flight's
// computation starts.
func (j *Job) markRunning() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return
	}
	j.state = StateRunning
	j.timings.solving = time.Now()
	j.signalLocked()
}

// complete finishes a rider with the flight's result. Riders that
// canceled while the computation ran stay canceled.
func (j *Job) complete(res *result) {
	j.mu.Lock()
	switch j.state {
	case StateQueued, StateRunning:
	default:
		j.mu.Unlock()
		return
	}
	j.state = StateDone
	j.res = res
	j.timings.settled = time.Now()
	j.stopDeadlineLocked()
	j.signalLocked()
	j.mu.Unlock()
	j.notifyTerminal()
}

// fail finishes a rider with the flight's error.
func (j *Job) fail(err error) {
	j.mu.Lock()
	switch j.state {
	case StateQueued, StateRunning:
	default:
		j.mu.Unlock()
		return
	}
	j.state = StateFailed
	j.err = err.Error()
	j.timings.settled = time.Now()
	j.stopDeadlineLocked()
	j.signalLocked()
	j.mu.Unlock()
	j.notifyTerminal()
}

// cancelJob moves a queued or running job to canceled. The job record
// terminates immediately; the underlying computation (if this job
// rides a flight) is aborted only when the last live rider has
// canceled, so canceling one rider never takes down the others.
func (j *Job) cancelJob(reason string) bool {
	j.mu.Lock()
	switch j.state {
	case StateQueued, StateRunning:
	default:
		j.mu.Unlock()
		return false
	}
	j.state = StateCanceled
	j.err = reason
	j.timings.settled = time.Now()
	f := j.flight
	if f != nil {
		j.timings.detached = j.timings.settled
	}
	j.stopDeadlineLocked()
	j.signalLocked()
	j.mu.Unlock()
	if f != nil {
		f.detach()
	}
	j.notifyTerminal()
	return true
}

// notifyTerminal fires the terminal-transition observer, records the
// end-to-end latency histogram, and emits the terminal log event. The
// state machine admits exactly one terminal transition per job, so all
// of it runs exactly once; callers invoke it with j.mu released.
func (j *Job) notifyTerminal() {
	if j.tel != nil {
		j.mu.Lock()
		state := j.state
		e2e := j.timings.settled.Sub(j.timings.received)
		hit := j.cacheHit
		tier := j.cacheTier
		coalesced := j.coalesced
		errMsg := j.err
		j.mu.Unlock()
		j.tel.jobE2E.With(string(state)).Observe(e2e)
		fields := []obs.Field{
			obs.F("state", string(state)),
			obs.F("ms", durMs(e2e)),
			obs.F("cacheHit", hit),
			obs.F("tier", string(tier)),
		}
		if coalesced {
			fields = append(fields, obs.F("coalesced", true))
		}
		if errMsg != "" {
			fields = append(fields, obs.F("error", errMsg))
		}
		j.lg.Info(context.Background(), "job.terminal", fields...)
	}
	if j.notify != nil {
		j.notify(j)
	}
}

// run executes the job's flight on a worker goroutine. j is always the
// flight's leader — followers never enter the queue; that is the point
// of coalescing.
func (j *Job) run(s *Server) {
	f := j.flight
	in := j.instance
	j.instance = nil
	if f == nil || f.ctx.Err() != nil {
		// Every rider canceled while the leader sat in the queue (or the
		// job predates its flight — impossible by construction). The
		// original riders are already terminal, but a rider may have
		// raced its attach against the final detach (submit checks
		// ctx.Err under Server.mu, detach cancels without it) — fail any
		// such straggler rather than strand it queued forever.
		failDroppedRiders(s, f)
		return
	}

	// The computation starts: every current rider shows running, and
	// riders attaching from now on attach as running.
	s.mu.Lock()
	f.started = true
	riders := append([]*Job(nil), f.riders...)
	s.mu.Unlock()
	for _, r := range riders {
		r.markRunning()
	}

	opts := j.opts
	opts.Trace = j.appendTrace

	// Fault injection (see failpoint.go); inert unless armed.
	if d, ok := s.fp.duration("solve-delay"); ok {
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-f.ctx.Done():
			t.Stop()
		}
	}
	if s.fp.enabled("solve-stall") {
		<-f.ctx.Done()
	}

	var (
		rep *mpcgraph.Report
		err error
	)
	if f.ctx.Err() == nil {
		s.mu.Lock()
		s.solves++
		s.mu.Unlock()
		// The histogram records once per Solve call — the operation
		// boundary — never inside the metered round loop, so the
		// instrumentation is invisible to the simulator benchmarks.
		j.lg.Info(f.ctx, "job.solve.start",
			obs.F("problem", j.problem.String()),
			obs.F("model", j.model.String()),
			obs.F("source", j.source))
		solveStart := time.Now()
		rep, err = s.solve(f.ctx, in, j.problem, opts)
		elapsed := time.Since(solveStart)
		if err == nil {
			// Nothing is cached or served before it passes the check
			// against its instance; a failure fails the whole flight.
			err = registry.Validate(graphOf(in), rep)
		}
		j.tel.solve.With(j.problem.String(), j.model.String()).Observe(elapsed)
		j.lg.Info(f.ctx, "job.solve.done",
			obs.F("ms", durMs(elapsed)),
			obs.F("ok", err == nil))
	} else {
		err = f.ctx.Err()
	}

	switch {
	case err == nil:
		// Persist before fan-out: a rider observed done implies the
		// result is already cached (both tiers), so a crash right after
		// a client saw completion can always be recovered from disk.
		// Even a noCache leader stores its result: the flag skips the
		// lookup (forcing the cold recompute), not the refresh.
		res := newResult(rep)
		s.cache.Put(j.cacheKey, res)
		persistedAt := time.Now()
		j.lg.Debug(context.Background(), "job.persisted")
		for _, r := range s.dropFlight(f) {
			r.markPersisted(persistedAt)
			r.complete(res)
		}
	case f.ctx.Err() != nil:
		// Aborted between metered rounds: every rider already canceled
		// itself (client DELETE, deadline, or drain) — except a rider
		// whose attach raced the final detach; fail it so nothing stays
		// queued on a flight that will never complete.
		failDroppedRiders(s, f)
	default:
		for _, r := range s.dropFlight(f) {
			r.fail(err)
		}
	}
}

// graphOf is the unweighted graph under an instance.
func graphOf(in mpcgraph.Instance) *mpcgraph.Graph {
	if wg, ok := in.(*mpcgraph.WeightedGraph); ok {
		return wg.Graph
	}
	return in.(*mpcgraph.Graph)
}

// failDroppedRiders retires a canceled flight and fails any rider that
// is not already terminal. fail is a no-op on terminal jobs, so the
// common case (every rider canceled itself) is untouched; only a rider
// that attached in the cancel-to-dequeue window is affected.
func failDroppedRiders(s *Server, f *flight) {
	for _, r := range s.dropFlight(f) {
		r.fail(fmt.Errorf("service: coalesced computation canceled before completion"))
	}
}

// dropFlight retires a flight: unregisters it (so new submissions
// start a fresh computation) and returns its riders for fan-out.
func (s *Server) dropFlight(f *flight) []*Job {
	if f == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	f.done = true
	if s.flights[f.key] == f {
		delete(s.flights, f.key)
	}
	return append([]*Job(nil), f.riders...)
}

// placement classifies how place settled an admitted job — or that it
// still needs a queue slot.
type placement int

const (
	placedMemory    placement = iota // completed from the L1 cache
	placedCoalesced                  // attached to an identical in-flight computation
	placedDisk                       // completed from the persistent tier
	placeEnqueue                     // new flight registered; the caller must enqueue the leader
)

// place runs the cache-aware dedup ladder for a job already recorded in
// s.jobs: memory probe, single-flight attach, then (after registering a
// fresh flight) the unlocked disk probe. It is shared by single-job
// submission and the batch feeder — the dedup semantics of a batch are
// exactly those of its members submitted one by one. When it returns
// placeEnqueue the returned flight's leader must be enqueued (or the
// flight dropped) by the caller.
func (s *Server) place(job *Job) (*flight, placement) {
	s.mu.Lock()
	if !job.noCache {
		// Only the in-memory tier is probed under s.mu: a disk probe here
		// would stall every endpoint that takes s.mu behind one file read.
		probeStart := time.Now()
		res, ok := s.cache.memGet(job.cacheKey)
		job.stampProbe(TierMemory, time.Since(probeStart))
		if ok {
			job.completeCached(res, TierMemory)
			s.mu.Unlock()
			return nil, placedMemory
		}
		// Single-flight: an identical computation is already in flight —
		// ride it instead of burning a second worker on a bit-identical
		// result. The follower keeps its own record, deadline and cancel.
		// Attach only to a live flight: one whose context survived (a
		// canceled flight still registered until its leader dequeues
		// would complete no one) and that has not already fanned out.
		if f, ok := s.flights[job.cacheKey]; ok && !f.done && f.ctx.Err() == nil {
			f.attachLocked(job)
			leader := f.riders[0].ID // read under s.mu; riders is s.mu-guarded
			s.coalesces++
			s.mu.Unlock()
			job.stampAttached()
			job.lg.Debug(context.Background(), "job.coalesced",
				obs.F("leader", leader))
			job.armDeadline()
			return f, placedCoalesced
		}
	}

	// Register the flight before the unlocked disk probe so identical
	// submissions arriving meanwhile coalesce onto this one — the probe
	// itself is single-flighted. noCache flights stay private: their
	// contract is a forced cold run, so others must not ride them.
	f := newFlight(job.cacheKey, job)
	if !job.noCache {
		s.flights[job.cacheKey] = f
	}
	s.mu.Unlock()

	// Armed before the queue send so a worker can never complete the job
	// while the timer is still being created (the late timer would leak
	// until it fired); armDeadline skips already-terminal jobs.
	job.armDeadline()

	if !job.noCache {
		probeStart := time.Now()
		res, ok := s.cache.diskGet(job.cacheKey)
		job.stampProbe(TierDisk, time.Since(probeStart))
		if ok {
			// Recovered from the persistent tier: complete every rider
			// (followers may have attached during the probe) as a disk hit.
			for _, r := range s.dropFlight(f) {
				r.completeCached(res, TierDisk)
			}
			return f, placedDisk
		}
	}
	return f, placeEnqueue
}

// admission is a request resolved for placement: the validated request,
// its instance record and cache key, and the instance itself when
// resolution had to build it (nil after a memo hit).
type admission struct {
	*resolvedRequest
	info instanceInfo
	key  string
	in   mpcgraph.Instance
}

// admit resolves req through the resolve memo and keys it. Like
// resolve, it fails with the request's original error on every path.
func (s *Server) admit(req *JobRequest) (*admission, error) {
	r, err := req.resolve(s.cfg)
	if err != nil {
		return nil, err
	}
	info, in, err := s.resolveInstance(r, req.NoCache)
	if err != nil {
		return nil, err
	}
	if !info.weighted && r.problem == mpcgraph.ProblemWeightedMatching {
		return nil, fmt.Errorf("%w: %s", mpcgraph.ErrNeedWeightedGraph, r.problem)
	}
	return &admission{resolvedRequest: r, info: info, key: cacheKey(info.digest, r.problem, r.model, r.opts), in: in}, nil
}

// leaderInstance returns the graph a new flight's leader solves: the
// one admission built, or a fresh build after a memo hit. On failure it
// fails every rider of f.
func (s *Server) leaderInstance(a *admission, f *flight) (mpcgraph.Instance, bool) {
	if a.in != nil {
		return a.in, true
	}
	in, err := a.build()
	if err != nil {
		for _, r := range s.dropFlight(f) {
			r.fail(err)
		}
		return nil, false
	}
	return in, true
}

// submit resolves a request into a Job, serves it from cache when
// possible, coalesces it onto an identical in-flight computation, or
// admits it to the queue as a new flight's leader. It returns the job
// and an HTTP status hint for failures (0 on success).
func (s *Server) submit(req *JobRequest) (*Job, int, error) {
	a, err := s.admit(req)
	if err != nil {
		return nil, requestErrorStatus(err), err
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, 503, fmt.Errorf("service: draining, not accepting jobs")
	}
	s.nextID++
	job := newJob(fmt.Sprintf("j%08d", s.nextID), s.tel)
	job.setResolved(a)
	job.timeout = time.Duration(req.TimeoutMs) * time.Millisecond
	job.noCache = req.NoCache
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.evictTerminalLocked()
	s.mu.Unlock()

	job.lg.Info(context.Background(), "job.submit",
		obs.F("problem", job.problem.String()),
		obs.F("model", job.model.String()),
		obs.F("source", job.source),
		obs.F("key", job.cacheKey))

	f, p := s.place(job)
	if p != placeEnqueue {
		return job, 0, nil
	}
	in, ok := s.leaderInstance(a, f)
	if !ok {
		return job, 0, nil
	}

	// The draining re-check and the queue send stay under one critical
	// section so a submission admitted past the check is visible to the
	// backlog sweep of a Drain that starts right after.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		for _, r := range s.dropFlight(f) {
			r.cancelJob("server draining")
		}
		return job, 503, fmt.Errorf("service: draining, not accepting jobs")
	}
	// Stamped before the send: a worker may dequeue the instant the
	// send lands, and the dequeued stamp must never precede queued.
	job.stampQueued()
	job.instance = in
	select {
	case s.queue <- job:
		s.mu.Unlock()
		job.lg.Debug(context.Background(), "job.queued")
		return job, 0, nil
	default:
		job.instance = nil
		s.mu.Unlock()
		// Admission control: the queue is full. The riders are retained
		// as canceled so the clients can inspect the rejection.
		for _, r := range s.dropFlight(f) {
			r.cancelJob("queue full")
		}
		return job, 429, fmt.Errorf("service: job queue full (depth %d)", s.cfg.QueueDepth)
	}
}

// setResolved installs an admission's fields on a job record. A batch
// member is visible from creation, so the write synchronizes with
// view() via j.mu; the worker reads the fields lock-free, ordered by
// the queue send that follows.
func (j *Job) setResolved(a *admission) {
	j.mu.Lock()
	j.problem, j.model, j.opts = a.problem, a.model, a.opts
	j.n, j.m = a.info.n, a.info.m
	j.source = a.source(a.info)
	j.cacheKey = a.key
	j.mu.Unlock()
}

// lookup returns the job by id.
func (s *Server) lookup(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}
