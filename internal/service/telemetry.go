package service

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"mpcgraph/internal/obs"
)

// telemetry bundles the daemon's latency histograms and its structured
// logger. One instance lives on the Server, created by build, and is
// threaded into every job and batch record — so instrumentation points
// never reach for globals and tests can assert on a private registry.
//
// Recording discipline: histograms observe at operation boundaries —
// an HTTP request, a queue wait, one Solve call, one disk op — never
// inside the metered round loop, so the audited cost model and the
// routing benchmarks see zero instrumentation overhead.
type telemetry struct {
	log *obs.Logger
	reg *obs.Registry

	httpReq     *obs.HistogramVec // route, status
	queueWait   *obs.HistogramVec
	solve       *obs.HistogramVec // problem, model
	jobE2E      *obs.HistogramVec // state
	diskOp      *obs.HistogramVec // op
	batchSettle *obs.HistogramVec
	cacheProbe  *obs.HistogramVec // tier
}

// newTelemetry builds the daemon's metric families. log may be nil
// (tests, library use): the obs.Logger no-ops on a nil receiver.
func newTelemetry(log *obs.Logger) *telemetry {
	reg := obs.NewRegistry()
	return &telemetry{
		log: log,
		reg: reg,
		httpReq: reg.Histogram("mpcgraphd_http_request_seconds",
			"HTTP request latency by route pattern and response status.", "route", "status"),
		queueWait: reg.Histogram("mpcgraphd_queue_wait_seconds",
			"Queue wait: admission to the job queue until a worker dequeues."),
		solve: reg.Histogram("mpcgraphd_solve_seconds",
			"Solve duration by problem and model (actual computations; cache hits and coalesced riders excluded).", "problem", "model"),
		jobE2E: reg.Histogram("mpcgraphd_job_e2e_seconds",
			"End-to-end job latency, submission to terminal state, by terminal state.", "state"),
		diskOp: reg.Histogram("mpcgraphd_disk_op_seconds",
			"Persistent cache-tier operation latency by operation.", "op"),
		batchSettle: reg.Histogram("mpcgraphd_batch_settle_seconds",
			"Batch settle time: creation until the last member reached a terminal state."),
		cacheProbe: reg.Histogram("mpcgraphd_cache_probe_seconds",
			"Result-cache probe latency by tier (every submission probes memory; misses probe disk).", "tier"),
	}
}

// statusWriter captures the response status for the request histogram.
// It forwards Flush so the NDJSON/SSE streaming endpoints keep working
// behind the middleware — losing http.Flusher here would silently turn
// live trace streams into fully buffered responses.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = 200
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps the API mux with the request middleware: a request
// ID threaded through the context (so handler logs correlate), the
// per-route/status latency histogram, and a debug-level access line.
//
// The route label is the mux pattern (e.g. "GET /v1/jobs/{id}"), not
// the raw path — raw paths would explode label cardinality with every
// distinct job id. mux.Handler is the documented way to recover the
// pattern for a request the outer middleware sees (r.Pattern is only
// populated on the clone the mux hands to the matched handler).
func (s *Server) instrument(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		route := "unmatched"
		if _, pattern := mux.Handler(r); pattern != "" {
			route = pattern
		}
		s.mu.Lock()
		s.nextReqID++
		reqID := fmt.Sprintf("r%08d", s.nextReqID)
		s.mu.Unlock()
		ctx := obs.WithFields(r.Context(), obs.F("req", reqID))
		sw := &statusWriter{ResponseWriter: w}
		mux.ServeHTTP(sw, r.WithContext(ctx))
		if sw.status == 0 {
			sw.status = 200
		}
		elapsed := time.Since(start)
		s.tel.httpReq.With(route, strconv.Itoa(sw.status)).Observe(elapsed)
		s.tel.log.Debug(ctx, "http.request",
			obs.F("route", route),
			obs.F("status", sw.status),
			obs.F("ms", durMs(elapsed)))
	})
}

// durMs renders a duration in milliseconds at microsecond precision,
// the same convention as report.wallMs.
func durMs(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1000
}

// jobTimings is the per-phase monotonic timing record of one job:
// wall-clock stamps taken at each lifecycle transition, exposed as
// offsets from received in the job view's timings block, and the only
// clock a job keeps: the view's createdAt, startedAt and finishedAt
// are rendered from these stamps. Guarded by Job.mu like the rest of
// the job's mutable state. Stamps are operational metadata only — they
// never enter a Report's audited costs or the cache key.
type jobTimings struct {
	received  time.Time // record created (createdAt)
	queued    time.Time // admitted to the job queue (leaders only)
	attached  time.Time // coalesced onto an existing flight (followers only)
	dequeued  time.Time // picked up by a worker (leaders only)
	solving   time.Time // the flight's computation started
	persisted time.Time // result written through the cache tiers
	detached  time.Time // rider canceled off its flight
	settled   time.Time // terminal transition (finishedAt)

	memProbe   time.Duration // L1 probe duration (zero: not probed)
	diskProbe  time.Duration // L2 probe duration (zero: not probed)
	memProbed  bool
	diskProbed bool
}

// TimingsView is the wire rendering of a job's lifecycle timings: the
// phases the job actually went through, in order, as millisecond
// offsets from received, plus the per-tier cache probe durations. The
// phase list is always ordered by atMs (equal stamps keep lifecycle
// order), which the service-smoke gate asserts.
type TimingsView struct {
	Phases      []PhaseView `json:"phases"`
	CacheProbes []ProbeView `json:"cacheProbes,omitempty"`
}

// PhaseView is one lifecycle phase stamp.
type PhaseView struct {
	Phase string  `json:"phase"`
	AtMs  float64 `json:"atMs"`
}

// ProbeView is one cache-tier probe duration.
type ProbeView struct {
	Tier  string  `json:"tier"`
	DurMs float64 `json:"durMs"`
}

// view renders the timings block. Callers hold j.mu.
func (t *jobTimings) view() *TimingsView {
	if t.received.IsZero() {
		return nil
	}
	out := &TimingsView{}
	add := func(phase string, at time.Time) {
		if at.IsZero() {
			return
		}
		out.Phases = append(out.Phases, PhaseView{Phase: phase, AtMs: durMs(at.Sub(t.received))})
	}
	// Canonical lifecycle order; every path stamps a monotone subset of
	// it, so atMs is non-decreasing down the list.
	add("received", t.received)
	add("queued", t.queued)
	add("attached", t.attached)
	add("dequeued", t.dequeued)
	add("solving", t.solving)
	add("persisted", t.persisted)
	add("detached", t.detached)
	add("settled", t.settled)
	if t.memProbed {
		out.CacheProbes = append(out.CacheProbes, ProbeView{Tier: "memory", DurMs: durMs(t.memProbe)})
	}
	if t.diskProbed {
		out.CacheProbes = append(out.CacheProbes, ProbeView{Tier: "disk", DurMs: durMs(t.diskProbe)})
	}
	return out
}
