// Command servicesmoke is the `make service-smoke` harness: it boots a
// real mpcgraphd binary on an ephemeral port (with a persistent cache
// directory), submits one job per registered problem over HTTP,
// re-submits each and verifies the deterministic result cache returned
// a hit whose job view is bit-identical to the cold run (volatile
// fields aside), checks the /metrics counters and the disk-tier health
// report, round-trips the same jobs once more as one POST /v1/batches
// (server-side dedup must serve every member from the memory cache
// tier with zero new solves, and the NDJSON stream must replay every
// completion), then sends SIGTERM and requires a clean graceful exit,
// as it does of fresh daemons signaled the moment their listen line
// appears. Finally it boots a deliberately saturated daemon (one
// stalled worker, queue depth 1) and verifies the backpressure
// convention: overload produces HTTP 429 with a Retry-After header.
// It exercises exactly the production path: the shipped binary, a real
// TCP port, real signals. Crash-recovery of the disk tier has its own,
// deeper harness — see internal/tools/chaossmoke (`make chaos-smoke`).
//
// Usage: servicesmoke -bin <path-to-mpcgraphd>
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"mpcgraph/internal/obs"
)

func main() {
	bin := flag.String("bin", "", "path to the mpcgraphd binary")
	flag.Parse()
	if *bin == "" {
		fmt.Fprintln(os.Stderr, "servicesmoke: -bin is required")
		os.Exit(2)
	}
	if err := run(*bin); err != nil {
		fmt.Fprintln(os.Stderr, "servicesmoke:", err)
		os.Exit(1)
	}
	fmt.Println("service-smoke OK")
}

// jobSpec is one cold-run/cache-hit probe.
type jobSpec struct {
	problem  string
	model    string
	scenario string
}

// specs covers every problem, both models where registered, and the
// weighted path.
var specs = []jobSpec{
	{"mis", "mpc", "gnp"},
	{"mis", "congested-clique", "gnp"},
	{"maximal-matching", "mpc", "rmat"},
	{"approx-matching", "congested-clique", "chung-lu"},
	{"one-plus-eps-matching", "mpc", "ring-of-cliques"},
	{"vertex-cover", "congested-clique", "high-girth"},
	{"weighted-matching", "mpc", "weighted-gnp"},
}

// startDaemon boots bin with args, waits for the "listening on" line,
// and returns the base URL plus the running process.
func startDaemon(bin string, env []string, args ...string) (string, *exec.Cmd, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), env...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return "", nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return "", nil, err
	}

	// The daemon's first stdout line carries the bound address.
	sc := bufio.NewScanner(stdout)
	var base string
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "listening on "); i >= 0 {
			base = strings.TrimSpace(line[i+len("listening on "):])
			break
		}
	}
	if base == "" {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return "", nil, fmt.Errorf("daemon never printed its address")
	}
	go io.Copy(io.Discard, stdout) // keep the pipe drained
	return base, cmd, nil
}

func run(bin string) error {
	cacheDir, err := os.MkdirTemp("", "servicesmoke-cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(cacheDir)

	base, cmd, err := startDaemon(bin, nil, "-workers", "2", "-cache-dir", cacheDir)
	if err != nil {
		return err
	}
	defer func() {
		if cmd.ProcessState == nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
	}()

	for _, spec := range specs {
		cold, err := submitAndWait(base, spec)
		if err != nil {
			return fmt.Errorf("%s/%s cold: %w", spec.problem, spec.model, err)
		}
		if cacheHit(cold) {
			return fmt.Errorf("%s/%s: cold run claimed a cache hit", spec.problem, spec.model)
		}
		hit, err := submitAndWait(base, spec)
		if err != nil {
			return fmt.Errorf("%s/%s hit: %w", spec.problem, spec.model, err)
		}
		if !cacheHit(hit) {
			return fmt.Errorf("%s/%s: re-submit missed the cache", spec.problem, spec.model)
		}
		a, b := canonical(cold), canonical(hit)
		if !bytes.Equal(a, b) {
			return fmt.Errorf("%s/%s: cache hit not bit-identical to cold run:\n cold: %s\n hit:  %s",
				spec.problem, spec.model, a, b)
		}
		// Every terminal view must carry an ordered lifecycle timings
		// block; the cold run's must show the full leader path.
		if err := checkTimings(cold, "received", "queued", "dequeued", "solving", "persisted", "settled"); err != nil {
			return fmt.Errorf("%s/%s cold timings: %w", spec.problem, spec.model, err)
		}
		if err := checkTimings(hit, "received", "settled"); err != nil {
			return fmt.Errorf("%s/%s hit timings: %w", spec.problem, spec.model, err)
		}
		fmt.Printf("  %-22s %-17s cold+hit bit-identical (rounds=%v)\n",
			spec.problem, spec.model, cold["report"].(map[string]any)["rounds"])
	}

	metrics, err := get(base + "/metrics")
	if err != nil {
		return err
	}
	// Exposition-format invariants over the whole scrape: every series
	// under a HELP/TYPE header, histogram buckets cumulative-monotone,
	// le="+Inf" present and equal to _count.
	exp, err := obs.ParseExposition(bytes.NewReader(metrics))
	if err != nil {
		return fmt.Errorf("/metrics does not parse as text exposition: %w", err)
	}
	if problems := obs.ValidateExposition(exp); len(problems) > 0 {
		msgs := make([]string, len(problems))
		for i, p := range problems {
			msgs[i] = p.Error()
		}
		return fmt.Errorf("/metrics violates exposition invariants:\n  %s", strings.Join(msgs, "\n  "))
	}
	for _, family := range []string{
		"mpcgraphd_http_request_seconds", "mpcgraphd_queue_wait_seconds",
		"mpcgraphd_solve_seconds", "mpcgraphd_job_e2e_seconds",
		"mpcgraphd_disk_op_seconds", "mpcgraphd_cache_probe_seconds",
	} {
		if exp.Type[family] != "histogram" {
			return fmt.Errorf("/metrics family %s missing or not a histogram after traffic", family)
		}
	}
	fmt.Printf("  metrics: exposition invariants hold (%d samples)\n", len(exp.Samples))
	if !strings.Contains(string(metrics), fmt.Sprintf(`mpcgraphd_cache_hits_total{tier="memory"} %d`, len(specs))) {
		return fmt.Errorf("metrics do not report %d memory-tier cache hits:\n%s", len(specs), metrics)
	}
	if !strings.Contains(string(metrics), fmt.Sprintf("mpcgraphd_jobs_submitted_total %d", 2*len(specs))) {
		return fmt.Errorf("metrics do not report %d submissions", 2*len(specs))
	}
	if !strings.Contains(string(metrics), fmt.Sprintf("mpcgraphd_cache_disk_writes_total %d", len(specs))) {
		return fmt.Errorf("metrics do not report %d disk-tier writes:\n%s", len(specs), metrics)
	}
	health, err := get(base + "/healthz")
	if err != nil {
		return err
	}
	if !strings.Contains(string(health), `"status": "ok"`) {
		return fmt.Errorf("healthz not ok: %s", health)
	}
	if !strings.Contains(string(health), `"cacheDisk": "ok"`) {
		return fmt.Errorf("healthz does not report a healthy disk tier: %s", health)
	}

	if err := checkBatch(base); err != nil {
		return err
	}

	// Graceful drain: SIGTERM must produce a zero exit.
	if err := terminate(cmd); err != nil {
		return err
	}
	if err := checkStartupSigterm(bin); err != nil {
		return err
	}
	return checkBackpressure(bin)
}

// terminate sends SIGTERM and requires a graceful drain: exit 0 within
// 60s.
func terminate(cmd *exec.Cmd) error {
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			return fmt.Errorf("daemon exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(60 * time.Second):
		_ = cmd.Process.Kill()
		return fmt.Errorf("daemon did not drain within 60s of SIGTERM")
	}
	return nil
}

// checkStartupSigterm SIGTERMs fresh daemons the moment their listen
// line appears. The signal handler must already be installed by then,
// so each daemon drains and exits 0 instead of dying of the signal.
func checkStartupSigterm(bin string) error {
	const boots = 5
	for i := 0; i < boots; i++ {
		_, cmd, err := startDaemon(bin, nil)
		if err != nil {
			return err
		}
		if err := terminate(cmd); err != nil {
			return fmt.Errorf("SIGTERM at startup (boot %d): %w", i+1, err)
		}
	}
	fmt.Printf("  startup: SIGTERM on the listen line drains (%d boots)\n", boots)
	return nil
}

// checkBatch round-trips POST /v1/batches on the production binary:
// the batch resubmits exactly the jobs the per-problem probes already
// solved, so server-side dedup must serve every member from the memory
// cache tier and enqueue zero new solves — pinned by the dedup block
// of the batch view and an unchanged mpcgraphd_solves_total. The
// NDJSON stream of the settled batch must replay one line per member
// plus the final done marker.
func checkBatch(base string) error {
	solvesBefore, err := metricValue(base, "mpcgraphd_solves_total")
	if err != nil {
		return err
	}

	var jobs []string
	for _, spec := range specs {
		jobs = append(jobs, fmt.Sprintf(`{
			"problem": %q, "model": %q,
			"scenario": {"name": %q, "n": 500, "seed": 7},
			"options": {"seed": 7}
		}`, spec.problem, spec.model, spec.scenario))
	}
	body := `{"jobs": [` + strings.Join(jobs, ",") + `]}`
	resp, err := http.Post(base+"/v1/batches", "application/json", strings.NewReader(body))
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != 201 {
		return fmt.Errorf("batch submit: %s: %s", resp.Status, data)
	}
	var view map[string]any
	if err := json.Unmarshal(data, &view); err != nil {
		return err
	}
	id, _ := view["id"].(string)

	deadline := time.Now().Add(60 * time.Second)
	for {
		if state, _ := view["state"].(string); state == "done" {
			break
		}
		if !time.Now().Before(deadline) {
			return fmt.Errorf("batch %s did not settle", id)
		}
		time.Sleep(20 * time.Millisecond)
		data, err := get(base + "/v1/batches/" + id)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &view); err != nil {
			return err
		}
	}

	counts, _ := view["counts"].(map[string]any)
	if done, _ := counts["done"].(float64); int(done) != len(specs) {
		return fmt.Errorf("batch %s: %v of %d members done: %s", id, done, len(specs), data)
	}
	dedup, _ := view["dedup"].(map[string]any)
	hits, _ := dedup["cacheHits"].(map[string]any)
	if mem, _ := hits["memory"].(float64); int(mem) != len(specs) {
		return fmt.Errorf("batch %s: %v memory-tier hits, want %d: %s", id, mem, len(specs), data)
	}
	if enq, _ := dedup["enqueued"].(float64); enq != 0 {
		return fmt.Errorf("batch %s: enqueued %v jobs, want 0 (all cached): %s", id, enq, data)
	}

	solvesAfter, err := metricValue(base, "mpcgraphd_solves_total")
	if err != nil {
		return err
	}
	if solvesAfter != solvesBefore {
		return fmt.Errorf("fully cached batch performed %v new solves, want 0", solvesAfter-solvesBefore)
	}

	stream, err := get(base + "/v1/batches/" + id + "/stream")
	if err != nil {
		return err
	}
	lines := strings.Split(strings.TrimSpace(string(stream)), "\n")
	if len(lines) != len(specs)+1 {
		return fmt.Errorf("batch stream replayed %d lines, want %d members + done marker", len(lines), len(specs))
	}
	var marker struct {
		Done bool `json:"done"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &marker); err != nil || !marker.Done {
		return fmt.Errorf("batch stream's last line is not the done marker: %s", lines[len(lines)-1])
	}

	fmt.Printf("  batch: %d members all memory-tier hits, 0 new solves, stream replay intact\n", len(specs))
	return nil
}

// metricValue scrapes one counter/gauge from /metrics.
func metricValue(base, name string) (float64, error) {
	data, err := get(base + "/metrics")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, found := strings.CutPrefix(line, name+" "); found {
			var v float64
			if _, err := fmt.Sscanf(rest, "%f", &v); err != nil {
				return 0, fmt.Errorf("metric %s: bad value %q", name, rest)
			}
			return v, nil
		}
	}
	return 0, fmt.Errorf("metric %s not found", name)
}

// checkBackpressure pins the overload convention against a saturated
// daemon: one worker stalled by a failpoint, queue depth 1, so the
// third identical-shape submission must be rejected with 429 and a
// Retry-After hint.
func checkBackpressure(bin string) error {
	base, cmd, err := startDaemon(bin, []string{"MPCGRAPHD_FAILPOINTS=solve-stall"},
		"-workers", "1", "-queue", "1")
	if err != nil {
		return err
	}
	defer func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}()

	saw429 := false
	for i := 0; i < 4; i++ {
		body := fmt.Sprintf(`{
			"problem": "mis", "noCache": true,
			"scenario": {"name": "gnp", "n": %d, "seed": 7},
			"options": {"seed": 7}
		}`, 200+i)
		resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			return err
		}
		data, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		switch resp.StatusCode {
		case 201:
		case 429:
			saw429 = true
			if ra := resp.Header.Get("Retry-After"); ra == "" {
				return fmt.Errorf("429 rejection carries no Retry-After header")
			}
			var view map[string]any
			if err := json.Unmarshal(data, &view); err != nil {
				return fmt.Errorf("429 body is not a job view: %s", data)
			}
			if state, _ := view["state"].(string); state != "canceled" {
				return fmt.Errorf("429-rejected job state %q, want canceled", state)
			}
		default:
			return fmt.Errorf("saturated submit %d: %s: %s", i, resp.Status, data)
		}
	}
	if !saw429 {
		return fmt.Errorf("4 submissions against workers=1/queue=1 stalled daemon never hit 429")
	}
	fmt.Println("  backpressure: 429 + Retry-After on saturated daemon")
	return nil
}

// submitAndWait posts one job and polls it to a terminal state,
// returning the job view as a generic map (so field comparison covers
// every wire field, including ones this tool does not know about).
func submitAndWait(base string, spec jobSpec) (map[string]any, error) {
	body := fmt.Sprintf(`{
		"problem": %q, "model": %q,
		"scenario": {"name": %q, "n": 500, "seed": 7},
		"options": {"seed": 7}
	}`, spec.problem, spec.model, spec.scenario)
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != 201 {
		return nil, fmt.Errorf("submit: %s: %s", resp.Status, data)
	}
	var view map[string]any
	if err := json.Unmarshal(data, &view); err != nil {
		return nil, err
	}
	id, _ := view["id"].(string)
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		state, _ := view["state"].(string)
		switch state {
		case "done":
			return view, nil
		case "failed", "canceled":
			return nil, fmt.Errorf("job %s %s: %v", id, state, view["error"])
		}
		time.Sleep(20 * time.Millisecond)
		data, err := get(base + "/v1/jobs/" + id)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(data, &view); err != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("job %s did not finish", id)
}

func cacheHit(view map[string]any) bool {
	hit, _ := view["cacheHit"].(bool)
	return hit
}

// timingsOrder is the canonical lifecycle phase order; every timings
// block must list a subset of it, in order, with non-decreasing atMs.
var timingsOrder = map[string]int{
	"received": 0, "queued": 1, "attached": 2, "dequeued": 3,
	"solving": 4, "persisted": 5, "detached": 6, "settled": 7,
}

// checkTimings asserts the terminal view carries an ordered timings
// block containing at least the given phases.
func checkTimings(view map[string]any, wantPhases ...string) error {
	timings, ok := view["timings"].(map[string]any)
	if !ok {
		return fmt.Errorf("no timings block in view: %v", view)
	}
	phases, ok := timings["phases"].([]any)
	if !ok || len(phases) == 0 {
		return fmt.Errorf("timings block has no phases: %v", timings)
	}
	prevIdx, prevAt := -1, -1.0
	seen := map[string]bool{}
	for _, raw := range phases {
		p, _ := raw.(map[string]any)
		name, _ := p["phase"].(string)
		at, _ := p["atMs"].(float64)
		idx, known := timingsOrder[name]
		if !known {
			return fmt.Errorf("unknown phase %q", name)
		}
		if idx <= prevIdx {
			return fmt.Errorf("phase %q out of lifecycle order in %v", name, phases)
		}
		if at < prevAt {
			return fmt.Errorf("phase %q atMs %v decreased (prev %v)", name, at, prevAt)
		}
		seen[name] = true
		prevIdx, prevAt = idx, at
	}
	for _, want := range wantPhases {
		if !seen[want] {
			return fmt.Errorf("phase %q missing from %v", want, phases)
		}
	}
	return nil
}

// canonical renders a job view with the volatile fields (identity,
// timestamps, wall time, cache/trace bookkeeping) removed; everything
// left must be bit-identical between a cold run and its cache hit.
func canonical(view map[string]any) []byte {
	c := make(map[string]any, len(view))
	for k, v := range view {
		switch k {
		case "id", "cacheHit", "cacheTier", "coalesced", "createdAt", "startedAt", "finishedAt", "traceLen", "source", "timings":
			continue
		}
		c[k] = v
	}
	if rep, ok := c["report"].(map[string]any); ok {
		r := make(map[string]any, len(rep))
		for k, v := range rep {
			if k == "wallMs" {
				continue
			}
			r[k] = v
		}
		c["report"] = r
	}
	out, _ := json.Marshal(c)
	return out
}

func get(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != 200 {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, data)
	}
	return data, nil
}
