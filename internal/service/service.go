// Package service implements mpcgraphd, the long-running solve daemon:
// the full registry surface (problems × models × scenario catalog ×
// graph upload in any graphio format) exposed as an HTTP job API.
//
// The daemon is three registry-shaped layers over the public Solve
// entry point:
//
//   - a bounded job queue drained by a fixed worker pool, with per-job
//     context cancellation and deadlines threaded into Solve, so a
//     resident process has admission control instead of unbounded
//     goroutine fan-out;
//   - a content-addressed deterministic result cache: because Solve is
//     a pure function of (instance, problem, model, seed, eps,
//     memory-factor, strict) — bit-identical for every Workers setting
//     — a Report can be replayed from cache with full fidelity. The
//     key is a digest of the canonical instance bytes plus the
//     Workers-invariant solve options (see CacheKey), so the same
//     logical instance hits the cache whether it arrived as a catalog
//     scenario, an uploaded edge list, or a MatrixMarket file. The
//     cache is tiered: an in-memory LRU (L1) over an optional
//     persistent disk store (L2, -cache-dir) that writes entries
//     atomically and survives crashes — a restarted daemon serves
//     previously computed results without recomputation (store.go,
//     codec.go). A resolve memo maps each request's instance spec to
//     the instance digest, so a repeated request is keyed without
//     rebuilding or re-hashing its graph (memo.go). The same
//     determinism argument powers single-flight coalescing: concurrent
//     submissions of one cache key share one computation (flight.go);
//   - job lifecycle and operational endpoints: submit, poll, cancel,
//     list, per-round TraceEvent streaming as NDJSON or SSE, /healthz,
//     and Prometheus-style /metrics (queue depth, in-flight gauge,
//     cache hit/miss/eviction counters).
//
// Everything dispatches through the registries — the algorithm table,
// the scenario catalog, the format table — so a new (Problem, Model)
// pair, scenario or format appears in the service automatically, with
// no service change. See docs/service.md for the wire API.
//
// This package records wall-clock job timestamps (the per-phase job
// timings, uptime); those are operational metadata only and never
// enter a Report's audited costs or the cache key.
package service

import (
	"context"
	"net/http"
	"sync"
	"time"

	"mpcgraph"
	"mpcgraph/internal/obs"
)

// Config sizes the daemon. The zero value is usable: every field has a
// documented default applied by New.
type Config struct {
	// Workers is the number of concurrent solve workers draining the job
	// queue (default 2). Each running job additionally fans out across
	// cores according to its own per-job Workers option; results are
	// bit-identical either way, so this knob trades latency against
	// throughput only.
	Workers int
	// QueueDepth bounds the number of queued (admitted but not yet
	// running) jobs (default 64). A full queue rejects submissions with
	// HTTP 429 rather than buffering without bound.
	QueueDepth int
	// CacheEntries bounds the memory tier of the result cache and,
	// separately, the resolve memo (default 1024 entries each; < 0
	// disables both).
	CacheEntries int
	// MaxJobsRetained bounds the number of finished jobs kept for
	// GET /v1/jobs inspection (default 4096). The oldest terminal jobs
	// are evicted first; queued and running jobs are never evicted.
	MaxJobsRetained int
	// DefaultJobWorkers is the per-job Workers option applied when a
	// request leaves workers at 0 (default 0 = all cores). Results are
	// Workers-invariant, so this changes scheduling only — never
	// payloads, costs or cache keys.
	DefaultJobWorkers int
	// CacheDir, when non-empty, enables the persistent result-cache tier
	// (L2): one file per cache key under this directory, written
	// atomically and recovered on restart. Empty disables persistence;
	// the in-memory LRU then stands alone.
	CacheDir string
	// DiskEntries bounds the persistent tier (default 65536 entries;
	// <= 0 keeps the default). The oldest entries by access time are
	// evicted when the bound is exceeded.
	DiskEntries int
	// Failpoints arms fault-injection points for crash testing, in the
	// same comma-separated syntax as the MPCGRAPHD_FAILPOINTS
	// environment variable (see failpoint.go). Empty disables them all;
	// production deployments leave this empty.
	Failpoints string
	// MaxBatchJobs bounds the number of jobs one POST /v1/batches may
	// expand to (default 4096). A request whose explicit job list or
	// cross-product exceeds it is rejected with 413 before any job is
	// created — the admission-control guard against hostile sweep specs.
	MaxBatchJobs int
	// MaxBatchesRetained bounds the number of finished batches kept for
	// GET /v1/batches inspection (default 256). The oldest fully
	// terminal batches are evicted first; live batches never are.
	MaxBatchesRetained int
	// Logger receives the daemon's structured event stream (job
	// lifecycle, HTTP access at debug level, drain). Nil disables
	// logging; mpcgraphd wires one from -log-level/-log-format.
	Logger *obs.Logger
}

// withDefaults resolves the documented defaults.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	if c.MaxJobsRetained <= 0 {
		c.MaxJobsRetained = 4096
	}
	if c.DiskEntries <= 0 {
		c.DiskEntries = 65536
	}
	if c.MaxBatchJobs <= 0 {
		c.MaxBatchJobs = 4096
	}
	if c.MaxBatchesRetained <= 0 {
		c.MaxBatchesRetained = 256
	}
	return c
}

// Server is one daemon instance: the job table, the queue, the worker
// pool and the result cache behind an http.Handler. Create with New,
// serve Handler, and stop with Drain.
type Server struct {
	cfg   Config
	cache *tieredCache
	memo  *lru[instanceInfo] // resolve memo: instance spec -> instance record (memo.go)
	fp    *failpoints
	tel   *telemetry
	start time.Time
	// solve computes a flight's Report: mpcgraph.Solve, replaced only by
	// tests that feed the result check a tampered Report.
	solve func(ctx context.Context, in mpcgraph.Instance, p mpcgraph.Problem, opts mpcgraph.Options) (*mpcgraph.Report, error)

	mu          sync.Mutex
	jobs        map[string]*Job
	order       []string           // job ids in submission order (pagination, eviction)
	flights     map[string]*flight // in-progress computations by cache key
	batches     map[string]*Batch
	batchOrder  []string // batch ids in submission order (listing, eviction)
	nextID      uint64
	nextBatchID uint64
	nextReqID   uint64 // HTTP request ids for log correlation
	batchJobs   uint64 // jobs ever admitted through POST /v1/batches
	inflight    int
	solves      uint64 // Solve calls actually made (excludes cache hits and coalesced riders)
	coalesces   uint64 // submissions that rode an existing flight
	draining    bool

	queue chan *Job
	// quit is closed by Drain. Workers select on it next to the queue:
	// once it closes they finish the backlog already admitted and exit.
	// Batch feeders select on it in their blocking queue sends, so a
	// drain can never leave a feeder wedged against full admission.
	quit    chan struct{}
	wg      sync.WaitGroup // worker goroutines
	feeders sync.WaitGroup // batch feeder goroutines
}

// New constructs a Server and starts its worker pool. It fails only on
// an unusable cache directory or a malformed failpoint spec; a damaged
// cache dir contents is recovered from, never fatal (see openDiskStore).
func New(cfg Config) (*Server, error) {
	s, err := build(cfg)
	if err != nil {
		return nil, err
	}
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// build assembles a Server without starting workers; tests use it to
// construct a fully inert daemon they drive by hand.
func build(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	fp, err := parseFailpoints(cfg.Failpoints)
	if err != nil {
		return nil, err
	}
	tel := newTelemetry(cfg.Logger)
	var disk *diskStore
	if cfg.CacheDir != "" {
		if disk, err = openDiskStore(cfg.CacheDir, cfg.DiskEntries, fp); err != nil {
			return nil, err
		}
		// The store times its own reads and writes; the hook keeps the
		// obs dependency out of the store's construction path.
		disk.observe = func(op string, d time.Duration) {
			tel.diskOp.With(op).Observe(d)
		}
	}
	return &Server{
		cfg:     cfg,
		cache:   &tieredCache{mem: newLRU[*result](cfg.CacheEntries), disk: disk},
		memo:    newLRU[instanceInfo](cfg.CacheEntries),
		fp:      fp,
		tel:     tel,
		start:   time.Now(),
		solve:   mpcgraph.Solve,
		jobs:    make(map[string]*Job),
		flights: make(map[string]*flight),
		batches: make(map[string]*Batch),
		queue:   make(chan *Job, cfg.QueueDepth),
		quit:    make(chan struct{}),
	}, nil
}

// Handler returns the daemon's HTTP API, wrapped in the telemetry
// middleware (per-route latency histogram, request-id log
// correlation). See docs/service.md.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/jobs/{id}/solution", s.handleSolution)
	mux.HandleFunc("POST /v1/batches", s.handleBatchSubmit)
	mux.HandleFunc("GET /v1/batches", s.handleBatchList)
	mux.HandleFunc("GET /v1/batches/{id}", s.handleBatchGet)
	mux.HandleFunc("DELETE /v1/batches/{id}", s.handleBatchCancel)
	mux.HandleFunc("GET /v1/batches/{id}/stream", s.handleBatchStream)
	mux.HandleFunc("GET /v1/catalog", s.handleCatalog)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s.instrument(mux)
}

// Drain gracefully stops the server: new submissions are rejected with
// 503, queued and running jobs are given until deadline to finish, and
// any still running after that are canceled. Drain returns when every
// worker and every batch feeder has exited. It is the SIGTERM path of
// mpcgraphd.
func (s *Server) Drain(deadline time.Duration) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return
	}
	s.draining = true
	// The queue channel itself is never closed: workers and feeders
	// observe the drain through quit, so a racing feeder send can never
	// panic on a closed channel.
	close(s.quit)
	s.mu.Unlock()
	s.tel.log.Info(context.Background(), "daemon.drain.start",
		obs.F("deadlineMs", durMs(deadline)))

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		s.feeders.Wait()
		close(done)
	}()
	var timeout <-chan time.Time
	if deadline > 0 {
		t := time.NewTimer(deadline)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case <-done:
	case <-timeout:
		// Deadline passed: cancel everything still live and wait for the
		// workers to observe it. Cancellation is checked between metered
		// rounds, so this converges quickly.
		s.cancelAllJobs()
		<-done
	}
	// A feeder's queue send can win its race against quit, parking one
	// last job in the queue after the workers exited. Nothing will ever
	// run it — cancel any such straggler so every admitted job is
	// terminal when Drain returns.
	s.cancelAllJobs()
	s.tel.log.Info(context.Background(), "daemon.drain.done")
}

// cancelAllJobs cancels every retained non-terminal job; cancelJob is a
// no-op on terminal ones.
func (s *Server) cancelAllJobs() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range s.order {
		s.jobs[id].cancelJob("server draining")
	}
}

// Draining reports whether Drain has started.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// worker drains the queue until Drain signals quit, then finishes the
// backlog admitted before the drain and exits.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case job := <-s.queue:
			s.runJob(job)
		case <-s.quit:
			for {
				select {
				case job := <-s.queue:
					s.runJob(job)
				default:
					return
				}
			}
		}
	}
}

// runJob executes one dequeued job, maintaining the inflight gauge and
// the queue-wait histogram.
func (s *Server) runJob(job *Job) {
	if wait, ok := job.stampDequeued(); ok {
		s.tel.queueWait.With().Observe(wait)
	}
	s.mu.Lock()
	s.inflight++
	s.mu.Unlock()
	job.run(s)
	s.mu.Lock()
	s.inflight--
	s.mu.Unlock()
}

// snapshotCounts returns (queued, inflight) for health and metrics.
func (s *Server) snapshotCounts() (queued, inflight int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue), s.inflight
}

// evictTerminalLocked drops the oldest terminal jobs beyond the
// retention bound. Called with s.mu held after every submission.
func (s *Server) evictTerminalLocked() {
	excess := len(s.order) - s.cfg.MaxJobsRetained
	if excess <= 0 {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		if excess > 0 && s.jobs[id].terminal() {
			delete(s.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}
