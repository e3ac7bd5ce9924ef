package service

import (
	"bytes"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"mpcgraph"
	"mpcgraph/internal/graphio"
	"mpcgraph/internal/model"
	"mpcgraph/internal/registry"
	"mpcgraph/internal/scenario"
)

// JobRequest is the POST /v1/jobs body. Exactly one of Scenario and
// Graph supplies the instance; Problem is required, Model defaults to
// "mpc". See docs/service.md for the full wire contract.
type JobRequest struct {
	// Problem is the kebab-case problem name (see GET /v1/catalog).
	Problem string `json:"problem"`
	// Model is "mpc" (default) or "congested-clique".
	Model string `json:"model,omitempty"`
	// Scenario generates the instance from the workload catalog.
	Scenario *ScenarioRequest `json:"scenario,omitempty"`
	// Graph uploads the instance in any supported graphio format.
	Graph *GraphRequest `json:"graph,omitempty"`
	// Options are the solve options; zero values select the documented
	// defaults.
	Options OptionsRequest `json:"options,omitempty"`
	// TimeoutMs is a per-job deadline in milliseconds from submission
	// (0 = none), bounding queue wait plus execution. A job exceeding
	// it is canceled between metered rounds.
	TimeoutMs int64 `json:"timeoutMs,omitempty"`
	// NoCache forces a cold run: the deterministic result cache is
	// neither consulted nor trusted for this job, but the fresh result
	// still refreshes it.
	NoCache bool `json:"noCache,omitempty"`
}

// ScenarioRequest names a catalog scenario, mirroring `mpcgraph gen`.
type ScenarioRequest struct {
	Name   string             `json:"name"`
	N      int                `json:"n,omitempty"`
	Seed   uint64             `json:"seed,omitempty"`
	Params map[string]float64 `json:"params,omitempty"`
}

// GraphRequest uploads an instance. Content carries the file bytes in
// the named format (any graphio format name; gzip payloads are detected
// from their magic bytes); Base64 marks Content as base64-encoded, the
// transport for compressed uploads.
type GraphRequest struct {
	Format  string `json:"format"`
	Content string `json:"content"`
	Base64  bool   `json:"base64,omitempty"`
}

// OptionsRequest mirrors the Workers-invariant mpcgraph.Options plus
// the scheduling-only Workers knob.
type OptionsRequest struct {
	Seed         uint64  `json:"seed,omitempty"`
	Eps          float64 `json:"eps,omitempty"`
	MemoryFactor float64 `json:"memoryFactor,omitempty"`
	Strict       bool    `json:"strict,omitempty"`
	// Workers bounds the job's in-process fan-out (0 = the server's
	// default). It never changes results, costs or the cache key.
	Workers int `json:"workers,omitempty"`
}

// resolvePair validates the problem/model names and that the pair is
// registered — the cheap half of resolve, shared by batch expansion so
// a malformed sweep cell rejects the whole batch before any job record
// exists.
func (req *JobRequest) resolvePair() (mpcgraph.Problem, mpcgraph.Model, error) {
	var (
		problem mpcgraph.Problem
		mod     mpcgraph.Model
	)
	if req.Problem == "" {
		return problem, mod, fmt.Errorf("service: request needs a problem (see GET /v1/catalog)")
	}
	problem, err := registry.ParseProblem(req.Problem)
	if err != nil {
		return problem, mod, err
	}
	modelName := req.Model
	if modelName == "" {
		modelName = mpcgraph.ModelMPC.String()
	}
	mod, err = model.ParseModel(modelName)
	if err != nil {
		return problem, mod, err
	}
	if _, registered := registry.Lookup(problem, mod); !registered {
		return problem, mod, fmt.Errorf("%w: %s/%s", mpcgraph.ErrUnsupported, problem, mod)
	}
	return problem, mod, nil
}

// resolvedRequest is a validated JobRequest: the (problem, model) pair,
// the solve options and the instance spec — the resolve memo's key (see
// memo.go) — with what build needs to materialize the instance.
// Resolving builds nothing.
type resolvedRequest struct {
	problem mpcgraph.Problem
	model   mpcgraph.Model
	opts    mpcgraph.Options
	spec    string

	// Exactly one instance source: a resolved scenario, or an upload's
	// format and bytes — the content as sent (text) or its base64
	// decoding (raw).
	scenario *scenario.Resolved
	format   graphio.Format
	text     string
	raw      []byte
}

// resolve validates the request without materializing its instance:
// every check that needs no graph, in the order the errors surface.
func (req *JobRequest) resolve(cfg Config) (*resolvedRequest, error) {
	problem, mod, err := req.resolvePair()
	if err != nil {
		return nil, err
	}
	r := &resolvedRequest{problem: problem, model: mod}
	switch {
	case req.Scenario != nil && req.Graph != nil:
		return nil, fmt.Errorf("service: scenario and graph are mutually exclusive")
	case req.Scenario != nil:
		if req.Scenario.Name == "" {
			return nil, fmt.Errorf("service: scenario needs a name (see GET /v1/catalog)")
		}
		r.scenario, err = scenario.Resolve(req.Scenario.Name, req.Scenario.N, req.Scenario.Seed, req.Scenario.Params)
		if err != nil {
			return nil, err
		}
		r.spec = scenarioSpec(r.scenario)
	case req.Graph != nil:
		if err := req.Graph.decode(r); err != nil {
			return nil, err
		}
		r.spec = uploadSpec(r.format, r.text, r.raw)
	default:
		return nil, fmt.Errorf("service: request needs an instance: scenario or graph")
	}

	r.opts = mpcgraph.Options{
		Seed:         req.Options.Seed,
		Eps:          req.Options.Eps,
		MemoryFactor: req.Options.MemoryFactor,
		Strict:       req.Options.Strict,
		Workers:      req.Options.Workers,
		Model:        mod,
	}
	if r.opts.Workers == 0 {
		r.opts.Workers = cfg.DefaultJobWorkers
	}
	return r, nil
}

// build materializes the instance: it generates the scenario or parses
// the upload through the graphio layer.
func (r *resolvedRequest) build() (mpcgraph.Instance, error) {
	if r.scenario != nil {
		in, err := r.scenario.Generate()
		if err != nil {
			return nil, err
		}
		if in.WG != nil {
			return in.WG, nil
		}
		return in.G, nil
	}
	var body io.Reader = strings.NewReader(r.text)
	if r.raw != nil {
		body = bytes.NewReader(r.raw)
	}
	rd, err := graphio.NewReader(body)
	if err != nil {
		return nil, err
	}
	d, err := graphio.Read(rd, r.format)
	if err != nil {
		return nil, err
	}
	if d.WG != nil {
		return d.WG, nil
	}
	return d.G, nil
}

// source describes the instance origin for job views.
func (r *resolvedRequest) source(info instanceInfo) string {
	if r.scenario != nil {
		return fmt.Sprintf("scenario %s (n=%d seed=%d)", r.scenario.Scenario.Name, info.n, r.scenario.Seed)
	}
	return fmt.Sprintf("upload (%s, n=%d m=%d)", r.format, info.n, info.m)
}

// decode validates an upload's format and installs it and the upload's
// bytes on r.
func (g *GraphRequest) decode(r *resolvedRequest) error {
	if g.Format == "" {
		return fmt.Errorf("service: graph upload needs a format (one of the graphio format names)")
	}
	f, err := graphio.ParseFormat(g.Format)
	if err != nil {
		return err
	}
	r.format = f
	if !g.Base64 {
		r.text = g.Content
		return nil
	}
	if r.raw, err = base64.StdEncoding.DecodeString(g.Content); err != nil {
		return fmt.Errorf("service: graph content is not valid base64: %v", err)
	}
	return nil
}

// requestErrorStatus maps resolution failures onto HTTP statuses,
// mirroring the CLI's sentinel-to-exit-code table: unknown names are
// client errors (400), structurally valid but unservable requests are
// 422.
func requestErrorStatus(err error) int {
	switch {
	case errors.Is(err, mpcgraph.ErrUnknownProblem), errors.Is(err, mpcgraph.ErrUnknownModel):
		return 400
	case errors.Is(err, mpcgraph.ErrUnsupported), errors.Is(err, mpcgraph.ErrNeedWeightedGraph):
		return 422
	}
	return 400
}

// JobView is the wire rendering of a job (GET /v1/jobs/{id} and the
// elements of GET /v1/jobs). Timestamps are RFC 3339; they and
// report.wallMs are the only fields that vary between identical runs.
type JobView struct {
	ID       string   `json:"id"`
	State    JobState `json:"state"`
	Problem  string   `json:"problem"`
	Model    string   `json:"model"`
	Source   string   `json:"source"`
	CacheKey string   `json:"cacheKey"`
	CacheHit bool     `json:"cacheHit"`
	// CacheTier is where a cacheHit was served from: "memory" (L1 LRU)
	// or "disk" (the persistent tier, i.e. a restart survivor or an L1
	// eviction); "none" for computed results.
	CacheTier CacheTier `json:"cacheTier"`
	// Coalesced marks a job that rode another job's identical in-flight
	// computation instead of occupying a queue slot itself. Like cache
	// hits, coalesced jobs carry no trace of their own.
	Coalesced bool `json:"coalesced,omitempty"`
	// Batch is the id of the batch this job was expanded from, when it
	// was admitted through POST /v1/batches.
	Batch      string `json:"batch,omitempty"`
	Error      string `json:"error,omitempty"`
	CreatedAt  string `json:"createdAt"`
	StartedAt  string `json:"startedAt,omitempty"`
	FinishedAt string `json:"finishedAt,omitempty"`
	TraceLen   int    `json:"traceLen"`
	// Timings is the per-phase lifecycle timing block: monotonic
	// millisecond offsets from submission for each phase the job went
	// through, ordered, plus cache-probe durations. Like the
	// timestamps, it varies between identical runs and is operational
	// metadata only.
	Timings *TimingsView `json:"timings,omitempty"`
	// Report is the result's wire view with its SolutionHash set; the
	// full solution is served by GET /v1/jobs/{id}/solution.
	Report *registry.ReportView `json:"report,omitempty"`
}

// ReportView and StageView name registry's report view in this
// package's API; the perfbench module compiles against these names.
type (
	ReportView = registry.ReportView
	StageView  = registry.StageView
)

// view snapshots the job for the wire.
func (j *Job) view() *JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := &JobView{
		ID:         j.ID,
		State:      j.state,
		Problem:    j.problem.String(),
		Model:      j.model.String(),
		Source:     j.source,
		CacheKey:   j.cacheKey,
		CacheHit:   j.cacheHit,
		CacheTier:  j.cacheTier,
		Coalesced:  j.coalesced,
		Batch:      j.batchID,
		Error:      j.err,
		CreatedAt:  wireTime(j.timings.received),
		StartedAt:  wireTime(j.startedLocked()),
		FinishedAt: wireTime(j.timings.settled),
		TraceLen:   len(j.trace),
		Timings:    j.timings.view(),
	}
	if j.res != nil {
		v.Report = registry.NewReportView(j.res.rep, j.n, j.m)
		v.Report.SolutionHash = j.res.hash
	}
	return v
}

// startedLocked is the stamp the view reports as startedAt: when the
// job's flight began computing; for a job that settled without
// computing, its cache hit, or its admission when it failed or
// completed otherwise; nothing for a job canceled before it ran.
// Callers hold j.mu.
func (j *Job) startedLocked() time.Time {
	switch {
	case !j.timings.solving.IsZero():
		return j.timings.solving
	case j.state != StateDone && j.state != StateFailed:
		return time.Time{}
	case j.cacheHit:
		return j.timings.settled
	}
	return j.timings.received
}

// wireTime renders a wall-clock stamp for a view, "" when unset.
func wireTime(at time.Time) string {
	if at.IsZero() {
		return ""
	}
	return at.UTC().Format("2006-01-02T15:04:05.000Z")
}
