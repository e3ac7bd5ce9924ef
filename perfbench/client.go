package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"mpcgraph/internal/obs"
	"mpcgraph/internal/service"
)

// client speaks the daemon's job API.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 8,
		DisableCompression:  true,
	}}}
}

// close drops the idle keep-alive connections so a draining daemon is
// not held open by them.
func (c *client) close() { c.hc.CloseIdleConnections() }

// submitResult is one POST /v1/jobs.
type submitResult struct {
	View   *service.JobView
	Status int
	Took   time.Duration // request sent to response decoded
}

// submit posts one pre-encoded job request.
func (c *client) submit(body []byte) (submitResult, error) {
	start := time.Now()
	resp, err := c.hc.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return submitResult{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	res := submitResult{Status: resp.StatusCode, Took: time.Since(start)}
	if err != nil {
		return res, err
	}
	if resp.StatusCode != http.StatusCreated {
		return res, fmt.Errorf("POST /v1/jobs: status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	res.View = new(service.JobView)
	if err := json.Unmarshal(raw, res.View); err != nil {
		return res, fmt.Errorf("POST /v1/jobs: decoding view: %v", err)
	}
	return res, nil
}

// awaitSettled follows the job's NDJSON trace stream until its terminal
// marker and returns the terminal state. The stream ends when the job
// settles, so no polling interval quantises the latency.
func (c *client) awaitSettled(id string) (service.JobState, error) {
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + id + "/trace")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET trace %s: status %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if !bytes.HasPrefix(line, []byte(`{"done"`)) {
			continue
		}
		var end struct {
			Done  bool             `json:"done"`
			State service.JobState `json:"state"`
		}
		if err := json.Unmarshal(line, &end); err != nil {
			return "", fmt.Errorf("trace %s: terminal marker: %v", id, err)
		}
		return end.State, nil
	}
	if err := sc.Err(); err != nil {
		return "", fmt.Errorf("trace %s: %v", id, err)
	}
	return "", fmt.Errorf("trace %s: stream ended without a terminal marker", id)
}

// job fetches one job view.
func (c *client) job(id string) (*service.JobView, error) {
	raw, err := c.get("/v1/jobs/" + id)
	if err != nil {
		return nil, err
	}
	v := new(service.JobView)
	if err := json.Unmarshal(raw, v); err != nil {
		return nil, fmt.Errorf("job %s: decoding view: %v", id, err)
	}
	return v, nil
}

// solution fetches a job's full solution text.
func (c *client) solution(id string) ([]byte, error) {
	return c.get("/v1/jobs/" + id + "/solution")
}

func (c *client) get(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, nil
}

// histSum is one histogram child's running sum (seconds) and count.
type histSum struct {
	Sum   float64
	Count uint64
}

// meanMsSince is the mean in milliseconds of the observations made
// between before and h; 0 when there were none.
func (h histSum) meanMsSince(before histSum) float64 {
	n := h.Count - before.Count
	if n == 0 {
		return 0
	}
	return (h.Sum - before.Sum) * 1000 / float64(n)
}

// scrape is the part of /metrics the benchmark reads.
type scrape struct {
	Solves, Coalesced  float64
	HitsMem, HitsDisk  float64
	HeapInuse          float64 // bytes
	GCCycles, GCPauseS float64
	Solve              map[string]histSum // "problem/model"
	DiskOp             map[string]histSum // "read", "write"
}

// metrics scrapes and parses /metrics.
func (c *client) metrics() (scrape, error) {
	raw, err := c.get("/metrics")
	if err != nil {
		return scrape{}, err
	}
	return parseScrape(raw)
}

func parseScrape(raw []byte) (scrape, error) {
	e, err := obs.ParseExposition(bytes.NewReader(raw))
	if err != nil {
		return scrape{}, err
	}
	var s scrape
	for _, f := range []struct {
		dst    *float64
		name   string
		labels []string
	}{
		{&s.Solves, "mpcgraphd_solves_total", nil},
		{&s.Coalesced, "mpcgraphd_coalesced_total", nil},
		{&s.HitsMem, "mpcgraphd_cache_hits_total", []string{"tier", "memory"}},
		{&s.HitsDisk, "mpcgraphd_cache_hits_total", []string{"tier", "disk"}},
		{&s.HeapInuse, "go_heap_inuse_bytes", nil},
		{&s.GCCycles, "go_gc_cycles_total", nil},
		{&s.GCPauseS, "go_gc_pause_seconds_total", nil},
	} {
		v, ok := e.Value(f.name, f.labels...)
		if !ok {
			return scrape{}, fmt.Errorf("/metrics: no %s%v", f.name, f.labels)
		}
		*f.dst = v
	}
	s.Solve = map[string]histSum{}
	s.DiskOp = map[string]histSum{}
	hists := e.Histograms()
	for _, h := range hists["mpcgraphd_solve_seconds"] {
		s.Solve[h.Labels["problem"]+"/"+h.Labels["model"]] = histSum{h.Sum, h.Count}
	}
	for _, h := range hists["mpcgraphd_disk_op_seconds"] {
		s.DiskOp[h.Labels["op"]] = histSum{h.Sum, h.Count}
	}
	return s, nil
}
