package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"mpcgraph"
	"mpcgraph/internal/graphio"
	"mpcgraph/internal/registry"
	"mpcgraph/internal/scenario"
)

// writeJSON renders one JSON body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// The status line is already on the wire; an encode failure means
	// the client went away, and there is no second response to send.
	_ = enc.Encode(v)
}

// errorBody is the uniform error rendering.
type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// handleSubmit is POST /v1/jobs: admit one job (or serve it from the
// deterministic result cache). 201 with the job view on success; 400/
// 422 for bad requests, 429 when the queue is full, 503 while draining.
// The 429 and 503 rejections carry a Retry-After header (seconds) — the
// server-side half of the retry convention in docs/service.md: clients
// treat exactly these two statuses as retryable and honor the hint.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := decodeJobRequest(r.Body, r.ContentLength)
	if err != nil {
		writeError(w, 400, fmt.Errorf("service: bad request body: %v", err))
		return
	}
	job, status, err := s.submit(req)
	if err != nil {
		switch status {
		case 429:
			// A full queue usually clears within a solve; a draining
			// server never recovers, but the client may be retrying
			// against a load balancer that will route elsewhere.
			w.Header().Set("Retry-After", "1")
		case 503:
			w.Header().Set("Retry-After", "5")
		}
		if job != nil {
			// Queue-full rejections retain the job; include its view so
			// the client can see the canceled record.
			writeJSON(w, status, job.view())
			return
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, 201, job.view())
}

// handleList is GET /v1/jobs: newest-last page of job views.
// Query: state=<JobState> filters; after=<id> starts the page after
// that id; limit=<n> caps the page (default 100, max 1000).
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := 100
	if raw := q.Get("limit"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 {
			writeError(w, 400, fmt.Errorf("service: bad limit %q", raw))
			return
		}
		limit = min(v, 1000)
	}
	stateFilter := JobState(q.Get("state"))
	after := q.Get("after")

	s.mu.Lock()
	ids := make([]string, len(s.order))
	copy(ids, s.order)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()

	type listBody struct {
		Jobs []*JobView `json:"jobs"`
		Next string     `json:"next,omitempty"`
	}
	var out listBody
	started := after == ""
	for _, j := range jobs {
		if !started {
			started = j.ID == after
			continue
		}
		view := j.view()
		if stateFilter != "" && view.State != stateFilter {
			continue
		}
		if len(out.Jobs) == limit {
			out.Next = out.Jobs[limit-1].ID
			break
		}
		out.Jobs = append(out.Jobs, view)
	}
	if !started {
		// The cursor job no longer exists (evicted or never valid). An
		// empty page here would read as "pagination complete" and
		// silently drop every newer job — fail loudly instead.
		writeError(w, 400, fmt.Errorf("service: unknown cursor %q (the job may have been evicted; restart the listing)", after))
		return
	}
	writeJSON(w, 200, out)
}

// handleGet is GET /v1/jobs/{id}.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, 404, fmt.Errorf("service: no job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, 200, job.view())
}

// handleCancel is DELETE /v1/jobs/{id}: cancel a queued or running job.
// Terminal jobs return 409 with their unchanged view.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, 404, fmt.Errorf("service: no job %q", r.PathValue("id")))
		return
	}
	if !job.cancelJob("canceled by client") {
		writeJSON(w, 409, job.view())
		return
	}
	writeJSON(w, 200, job.view())
}

// handleSolution is GET /v1/jobs/{id}/solution: the full solution
// payload as text, exactly as `mpcgraph solve -solution` renders it.
func (s *Server) handleSolution(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, 404, fmt.Errorf("service: no job %q", r.PathValue("id")))
		return
	}
	job.mu.Lock()
	res := job.res
	job.mu.Unlock()
	if res == nil {
		writeError(w, 409, fmt.Errorf("service: job %s has no result (state %s)", job.ID, job.view().State))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	// The status line is already on the wire; a write failure means the
	// client went away, and there is no second response to send.
	_ = registry.RenderSolution(w, res.rep)
}

// traceEventView is the wire shape of one streamed TraceEvent.
type traceEventView struct {
	Round          int   `json:"round"`
	LiveWords      int64 `json:"liveWords"`
	ActiveVertices int   `json:"activeVertices"`
}

// traceEndView terminates a trace stream.
type traceEndView struct {
	Done    bool     `json:"done"`
	State   JobState `json:"state"`
	Dropped int      `json:"dropped,omitempty"`
}

// handleTrace is GET /v1/jobs/{id}/trace: stream the job's per-round
// TraceEvents — buffered events replayed first, then live events as the
// run produces them — until the job reaches a terminal state or the
// client disconnects. The default framing is NDJSON (one JSON object
// per line); an Accept header containing "text/event-stream" selects
// SSE framing ("event: trace" / "event: done"). Cache hits have no
// trace: the stream ends immediately after the terminal marker.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, 404, fmt.Errorf("service: no job %q", r.PathValue("id")))
		return
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(200)
	// flush pushes what was written to the client. The stream is flushed
	// once per drained snapshot of the buffer, before blocking on the
	// next change or with the terminal marker, not once per event.
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	// Push the headers out before blocking on the first event, so a
	// follower connected to a queued job sees the stream open.
	flush()

	// emit writes one line or SSE frame.
	emit := func(event string, v any) bool {
		data, err := json.Marshal(v)
		if err != nil {
			return false
		}
		if sse {
			_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
		} else {
			_, err = fmt.Fprintf(w, "%s\n", data)
		}
		return err == nil
	}

	next := 0
	for {
		job.mu.Lock()
		events := job.trace[next:]
		state := job.state
		dropped := job.traceDropped
		changed := job.changed
		job.mu.Unlock()

		for _, ev := range events {
			if !emit("trace", traceEventView{Round: ev.Round, LiveWords: ev.LiveWords, ActiveVertices: ev.ActiveVertices}) {
				return
			}
			next++
		}
		if state == StateDone || state == StateFailed || state == StateCanceled {
			// Drain any events appended between the snapshot and the
			// terminal transition before closing the stream.
			job.mu.Lock()
			tail := job.trace[next:]
			dropped = job.traceDropped
			job.mu.Unlock()
			for _, ev := range tail {
				if !emit("trace", traceEventView{Round: ev.Round, LiveWords: ev.LiveWords, ActiveVertices: ev.ActiveVertices}) {
					return
				}
			}
			if emit("done", traceEndView{Done: true, State: state, Dropped: dropped}) {
				flush()
			}
			return
		}
		flush()
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

// catalogBody is GET /v1/catalog: every registry the daemon dispatches
// on, generated from the registries themselves so new entries appear
// with no service change.
type catalogBody struct {
	Algorithms []string          `json:"algorithms"`
	Problems   []string          `json:"problems"`
	Models     []string          `json:"models"`
	Scenarios  []catalogScenario `json:"scenarios"`
	Formats    []catalogFormat   `json:"formats"`
}

type catalogScenario struct {
	Name     string             `json:"name"`
	Doc      string             `json:"doc"`
	Weighted bool               `json:"weighted,omitempty"`
	DefaultN int                `json:"defaultN"`
	Params   map[string]float64 `json:"params,omitempty"`
}

type catalogFormat struct {
	Name       string   `json:"name"`
	Extensions []string `json:"extensions"`
	Weighted   bool     `json:"weighted"`
	Unweighted bool     `json:"unweighted"`
}

func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	var body catalogBody
	for _, pair := range registry.Pairs() {
		body.Algorithms = append(body.Algorithms, pair.String())
	}
	for _, p := range registry.Problems() {
		body.Problems = append(body.Problems, p.String())
	}
	body.Models = []string{mpcgraph.ModelMPC.String(), mpcgraph.ModelCongestedClique.String()}
	for _, name := range scenario.Names() {
		sc, _ := scenario.Lookup(name)
		entry := catalogScenario{Name: sc.Name, Doc: sc.Doc, Weighted: sc.Weighted, DefaultN: sc.DefaultN}
		if len(sc.Params) > 0 {
			entry.Params = make(map[string]float64, len(sc.Params))
			for _, p := range sc.Params {
				entry.Params[p.Key] = p.Default
			}
		}
		body.Scenarios = append(body.Scenarios, entry)
	}
	for _, f := range graphio.Formats() {
		body.Formats = append(body.Formats, catalogFormat{
			Name:       f.String(),
			Extensions: f.Extensions(),
			Weighted:   f.Weighted(),
			Unweighted: f.Unweighted(),
		})
	}
	writeJSON(w, 200, body)
}
