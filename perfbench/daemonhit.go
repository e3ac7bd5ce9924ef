package main

import (
	"bytes"
	"compress/gzip"
	"encoding/base64"
	"fmt"
	"path/filepath"
	"time"

	"mpcgraph"
	"mpcgraph/internal/graphio"
	"mpcgraph/internal/service"
)

// hitSource is a scenario behind daemon-hit requests. Only seeded
// recipes appear: the seed-independent ones (ring-of-cliques, ring,
// grid, complete) would collapse two requests onto one cache key.
type hitSource struct {
	Scenario string
	N        int
}

// hitScenarios are the scenario requests' recipes, each requested with
// three seeds; a hit regenerates the instance and hashes it.
var hitScenarios = []hitSource{
	{"rmat", 1 << 16}, {"chung-lu", 1 << 16}, {"preferential", 1 << 17}, {"gnp", 1 << 17},
}

// hitUploads are the upload requests: format label and source recipe; a
// hit decodes and parses the body and hashes the instance.
var hitUploads = []struct {
	Format string // el, mm-gz (base64 gzip MatrixMarket) or wel
	hitSource
}{
	{"el", hitSource{"gnp", 1 << 16}},
	{"mm-gz", hitSource{"chung-lu", 1 << 16}},
	{"wel", hitSource{"weighted-powerlaw", 1 << 15}},
}

const (
	// hitScenarioReqs and hitUploadReqs give the 3 : 2 request share.
	hitScenarioReqs = 12
	hitUploadReqs   = 8
	// hitPasses is P: each daemon lifetime serves P passes over the K
	// requests, the first from disk and the rest from memory.
	hitPasses = 3
	// hitRate is daemon-hit's nominal throughput on the reference host,
	// in ops per second; it sizes the op budget.
	hitRate = 18.0
)

// hitRequest is one distinct daemon-hit request, encoded once.
type hitRequest struct {
	Kind    string // "scenario" or "upload"
	Format  string // upload format label
	Source  hitSource
	Seed    uint64
	Problem mpcgraph.Problem
	Body    []byte
	Upload  *service.GraphRequest // uploads only, for the parse probe
}

// hitRequests builds the K distinct requests, interleaving scenarios
// and uploads (S U S U S) so every part of a pass has the same mix, and
// alternating a cheap cold problem between MIS and maximal matching.
func hitRequests(rc *runCtx) ([]hitRequest, error) {
	var scen, up []hitRequest
	for j := 0; j < hitScenarioReqs; j++ {
		scen = append(scen, hitRequest{Kind: "scenario", Source: hitScenarios[j%len(hitScenarios)],
			Seed: subSeed(rc.seed, "hit-scenario", j)})
	}
	for j := 0; j < hitUploadReqs; j++ {
		u := hitUploads[j%len(hitUploads)]
		up = append(up, hitRequest{Kind: "upload", Format: u.Format, Source: u.hitSource,
			Seed: subSeed(rc.seed, "hit-upload", j)})
	}
	var reqs []hitRequest
	for len(scen)+len(up) > 0 {
		for _, s := range "SUSUS" {
			if s == 'S' && len(scen) > 0 {
				reqs, scen = append(reqs, scen[0]), scen[1:]
			} else if s == 'U' && len(up) > 0 {
				reqs, up = append(reqs, up[0]), up[1:]
			}
		}
	}
	for k := range reqs {
		r := &reqs[k]
		r.Problem = mpcgraph.ProblemMIS
		if k%2 == 1 {
			r.Problem = mpcgraph.ProblemMaximalMatching
		}
		req := service.JobRequest{Problem: r.Problem.String()}
		if r.Kind == "scenario" {
			req.Scenario = &service.ScenarioRequest{Name: r.Source.Scenario, N: r.Source.N, Seed: r.Seed}
		} else {
			g, err := uploadOf(r)
			if err != nil {
				return nil, err
			}
			r.Upload, req.Graph = g, g
		}
		r.Body = encode(req)
	}
	return reqs, nil
}

// hitWarmRequests are the warm-up requests: small, and on keys no
// window op uses.
func hitWarmRequests(rc *runCtx) [][]byte {
	var out [][]byte
	for j := 0; j < 2; j++ {
		out = append(out, encode(service.JobRequest{Problem: mpcgraph.ProblemMIS.String(),
			Scenario: &service.ScenarioRequest{Name: "gnp", N: 1 << 12, Seed: subSeed(rc.seed, "hit-warm", j)}}))
	}
	return out
}

// uploadOf renders an upload request's file in its format.
func uploadOf(r *hitRequest) (*service.GraphRequest, error) {
	in, err := mpcgraph.GenerateScenario(r.Source.Scenario, r.Source.N, r.Seed, nil)
	if err != nil {
		return nil, err
	}
	d := &graphio.Data{G: graphOf(in)}
	if wg, ok := in.(*mpcgraph.WeightedGraph); ok {
		d.WG = wg
	}
	var buf bytes.Buffer
	switch r.Format {
	case "el":
		err = graphio.Write(&buf, d, graphio.FormatEdgeList)
		return &service.GraphRequest{Format: "el", Content: buf.String()}, err
	case "wel":
		err = graphio.Write(&buf, d, graphio.FormatWeightedEdgeList)
		return &service.GraphRequest{Format: "wel", Content: buf.String()}, err
	case "mm-gz":
		zw := gzip.NewWriter(&buf)
		if err := graphio.Write(zw, d, graphio.FormatMatrixMarket); err != nil {
			return nil, err
		}
		if err := zw.Close(); err != nil {
			return nil, err
		}
		return &service.GraphRequest{Format: "mm", Content: base64.StdEncoding.EncodeToString(buf.Bytes()), Base64: true}, nil
	}
	return nil, fmt.Errorf("unknown upload format %q", r.Format)
}

// hitOp is one daemon-hit op: one POST that a cache hit settles.
type hitOp struct {
	Req, Pass int
	Res       opResult
	Took      time.Duration // the POST
	Unphased  time.Duration // the POST minus the job's settled offset
	View      *service.JobView
	Rejected  int
	Err       error
}

// hitWindowResult is a daemon-hit window: several daemon lifetimes on
// one filled cache dir, folded together.
type hitWindowResult struct {
	ops       []hitOp
	wall, cpu time.Duration
	peaks     []float64 // VmHWM at the end of each lifetime, MiB
	heaps     []float64 // heap in use at the end of each lifetime, bytes
	acc       scrape    // summed /metrics deltas
}

// hitEnv is a filled cache dir and the cold-fill reports to compare
// hits with.
type hitEnv struct {
	dir  string
	refs []*service.ReportView
}

func runDaemonHit(rc *runCtx) (*outcome, error) {
	reqs, err := hitRequests(rc)
	if err != nil {
		return nil, err
	}
	warm := hitWarmRequests(rc)
	if err := daemonHostWarmup(rc); err != nil {
		return nil, err
	}
	o := &outcome{}
	var env *hitEnv
	for r := 0; r < setupReps; r++ {
		var took time.Duration
		if env, took, err = hitSetup(rc, reqs, warm, r, r == setupReps-1); err != nil {
			return nil, err
		}
		o.SetupRuns = append(o.SetupRuns, took)
	}

	lifetimes := max(1, int(float64(rc.opBudget(hitRate))/float64(len(reqs)*hitPasses)+0.5))
	w, err := hitWindow(rc, reqs, warm, env, lifetimes, "window", nil)
	if err != nil {
		return nil, err
	}
	summarize(o, results(w.ops))
	o.Wall, o.CPU, o.PeakRSSMiB = w.wall, w.cpu, median(w.peaks)
	byGroup := map[string][]float64{}
	for _, op := range w.ops {
		if !op.Res.Failed {
			g := reqs[op.Req].Kind + "/" + string(op.View.CacheTier)
			byGroup[g] = append(byGroup[g], ms(op.Res.Lat))
		}
	}
	rc.noteMedians("request", []string{"scenario/disk", "scenario/memory", "upload/disk", "upload/memory"}, byGroup)

	if rc.traced {
		tr := newTracer()
		tw, err := hitWindow(rc, reqs, warm, env, tracedBudget(lifetimes), "traced", tr)
		if err != nil {
			return nil, err
		}
		o.addTracedWindow(results(tw.ops))
		hitLayers(rc, reqs, tw)
		if err := rc.writeSpans(tr); err != nil {
			return nil, err
		}
	}
	return o, nil
}

func (op hitOp) result() opResult { return op.Res }

// hitSetup cold-fills a fresh cache dir with a first daemon, drains it,
// boots the measured daemon on the dir (its startup scan) and warms it
// up, then drains that one too: every window lifetime boots its own. It
// returns the set-up time without the benchmark's reference validation,
// which runs only when validate is set.
func hitSetup(rc *runCtx, reqs []hitRequest, warm [][]byte, r int, validate bool) (*hitEnv, time.Duration, error) {
	env := &hitEnv{dir: filepath.Join(rc.tmp, fmt.Sprintf("hit-cache-%d", r))}
	start := time.Now()
	fd, fcl, err := bootDaemon(rc, env.dir, fmt.Sprintf("hit-fill-%d", r))
	if err != nil {
		return nil, 0, err
	}
	defer fd.kill()
	bodies := make([][]byte, 0, len(reqs)+len(warm))
	for _, q := range reqs {
		bodies = append(bodies, q.Body)
	}
	bodies = append(bodies, warm...)
	views := make([]*service.JobView, len(bodies))
	err = parallel(rc.ctx, len(bodies), func(k int) (err error) {
		if views[k], err = coldFill(fcl, bodies[k]); err != nil {
			return fmt.Errorf("daemon-hit cold fill of request %d: %v", k, err)
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	took := time.Since(start)
	for k := range reqs {
		env.refs = append(env.refs, views[k].Report)
	}
	if validate {
		hitValidateFill(rc, fcl, reqs, views)
	}

	start = time.Now()
	stopDaemon(rc, fd, fcl)
	d, cl, err := bootDaemon(rc, env.dir, fmt.Sprintf("hit-daemon-%d", r))
	if err != nil {
		return nil, 0, err
	}
	defer d.kill()
	err = hitWarmup(cl, warm)
	took += time.Since(start)
	stopDaemon(rc, d, cl)
	return env, took, err
}

// coldFill submits one request to the fill daemon and waits for its
// fresh solve to settle.
func coldFill(cl *client, body []byte) (*service.JobView, error) {
	res, err := cl.submit(body)
	if err != nil {
		return nil, err
	}
	if _, err := cl.awaitSettled(res.View.ID); err != nil {
		return nil, err
	}
	v, err := cl.job(res.View.ID)
	if err != nil {
		return nil, err
	}
	if err := checkState(v); err != nil {
		return nil, err
	}
	if v.CacheHit {
		return nil, fmt.Errorf("job %s hit the cache of a fresh dir (duplicate key?)", v.ID)
	}
	return v, nil
}

// hitWarmup submits each warm-up request twice: a disk hit, then a
// memory hit.
func hitWarmup(cl *client, warm [][]byte) error {
	for _, body := range warm {
		for _, tier := range []service.CacheTier{service.TierDisk, service.TierMemory} {
			res, err := cl.submit(body)
			if err != nil {
				return err
			}
			if res.View.CacheTier != tier {
				return fmt.Errorf("warm-up job %s served from %q, want %q", res.View.ID, res.View.CacheTier, tier)
			}
		}
	}
	return nil
}

// hitValidateFill validates each cold-fill solution on an instance the
// benchmark generates in-process from the request's source scenario.
func hitValidateFill(rc *runCtx, cl *client, reqs []hitRequest, views []*service.JobView) {
	for k, q := range reqs {
		in, err := mpcgraph.GenerateScenario(q.Source.Scenario, q.Source.N, q.Seed, nil)
		var text []byte
		if err == nil {
			text, err = cl.solution(views[k].ID)
		}
		if err == nil {
			err = checkSolution(q.Problem, in, text, views[k].Report)
		}
		if err != nil {
			rc.fail("daemon-hit cold fill of request %d (%s %s): %v", k, q.Kind, q.Source.Scenario, err)
		}
	}
}

// hitWindow runs the given number of daemon lifetimes on the filled dir.
// Each boots a measured daemon (startup scan), warms it up, serves
// hitPasses passes over the requests with the closed loop, checks the
// op-class invariants on its /metrics deltas, and drains. Only the
// passes count as window time.
func hitWindow(rc *runCtx, reqs []hitRequest, warm [][]byte, env *hitEnv, lifetimes int, label string, tr *tracer) (*hitWindowResult, error) {
	perLife := len(reqs) * hitPasses
	w := &hitWindowResult{ops: make([]hitOp, lifetimes*perLife)}
	for life := 0; life < lifetimes; life++ {
		if err := hitLifetime(rc, reqs, warm, env, w, life, perLife, label, tr); err != nil {
			return nil, err
		}
	}
	w.acc.HeapInuse = median(w.heaps)
	return w, nil
}

func hitLifetime(rc *runCtx, reqs []hitRequest, warm [][]byte, env *hitEnv, w *hitWindowResult, life, perLife int, label string, tr *tracer) error {
	d, cl, err := bootDaemon(rc, env.dir, fmt.Sprintf("hit-%s-%d", label, life))
	if err != nil {
		return err
	}
	defer d.kill()
	if err := hitWarmup(cl, warm); err != nil {
		return err
	}
	before, err := probeDaemon(d, cl)
	if err != nil {
		return err
	}
	base := life * perLife
	w.wall += closedLoop(rc.ctx, perLife, func(j int) {
		k := j % len(reqs)
		w.ops[base+j] = hitRun(cl, tr, base+j, k, j/len(reqs), reqs[k].Body, env.refs[k])
	})
	after, err := probeDaemon(d, cl)
	if err != nil {
		return err
	}
	peak, err := procPeakRSS(d.Pid())
	if err != nil {
		return err
	}
	w.cpu += after.cpu - before.cpu
	w.peaks = append(w.peaks, kibToMiB(peak))
	w.heaps = append(w.heaps, after.m.HeapInuse)
	sumScrape(&w.acc, before.m, after.m)

	rejected := 0
	for j := base; j < base+perLife; j++ {
		op := w.ops[j]
		rejected += op.Rejected
		if op.Res.Failed {
			rc.fail("daemon-hit op %d (request %d, pass %d): %v", j, op.Req, op.Pass, op.Err)
		}
	}
	b, a := before.m, after.m
	k := float64(len(reqs))
	for _, inv := range []struct {
		what      string
		got, want float64
	}{
		{"solves delta", a.Solves - b.Solves, 0},
		{"coalesced delta", a.Coalesced - b.Coalesced, 0},
		{"disk hits delta", a.HitsDisk - b.HitsDisk, k},
		{"memory hits delta", a.HitsMem - b.HitsMem, k * (hitPasses - 1)},
		{"429/503 rejections", float64(rejected), 0},
	} {
		if inv.got != inv.want {
			rc.fail("daemon-hit invariant (lifetime %d): %s = %v, want %v", life, inv.what, inv.got, inv.want)
		}
	}
	stopDaemon(rc, d, cl)
	return nil
}

// hitRun is one op: the POST of a request the cache holds. The first
// pass must be served from disk and later passes from memory, with the
// cold-fill job's solution and costs.
func hitRun(cl *client, tr *tracer, i, k, pass int, body []byte, ref *service.ReportView) hitOp {
	op := hitOp{Req: k, Pass: pass}
	start := time.Now()
	res, err := cl.submit(body)
	op.Took, op.View = res.Took, res.View
	tr.add(i, 0, "http.submit", start, start.Add(res.Took))
	want := service.TierMemory
	if pass == 0 {
		want = service.TierDisk
	}
	switch {
	case err != nil:
		op.Rejected = rejectedStatus(res.Status)
	case checkState(res.View) != nil:
		err = checkState(res.View)
	case !res.View.CacheHit || res.View.CacheTier != want:
		err = fmt.Errorf("job %s: cacheHit=%v tier %q, want a %s hit", res.View.ID, res.View.CacheHit, res.View.CacheTier, want)
	default:
		err = checkHit(res.View.Report, ref)
	}
	op.Res.Lat = time.Since(start)
	if err != nil {
		op.Res.Failed, op.Err = true, err
		return op
	}
	settled, _ := phaseAt(res.View, "settled")
	op.Unphased = op.Took - settled
	return op
}

// hitLayers derives the daemon-hit per-layer metrics from the traced
// window and times the resolve steps in-process on the same requests.
func hitLayers(rc *runCtx, reqs []hitRequest, w *hitWindowResult) {
	submit := map[string][]time.Duration{}
	unphased := map[string][]time.Duration{}
	probes := map[string][]time.Duration{}
	rejected := 0
	for _, op := range w.ops {
		rejected += op.Rejected
		if op.Res.Failed {
			continue
		}
		kind := reqs[op.Req].Kind
		submit[kind] = append(submit[kind], op.Took)
		unphased[kind] = append(unphased[kind], op.Unphased)
		for _, t := range cacheTiers {
			if p, ok := probeDur(op.View, t); ok {
				probes[t] = append(probes[t], p)
			}
		}
	}
	daemonLayers(rc, scrape{}, w.acc, len(w.ops), rejected)
	for _, kind := range requestKinds {
		rc.setLayer("http.submit_ms."+kind, median(msOf(submit[kind])))
		rc.setLayer("daemon.unphased_ms."+kind, median(msOf(unphased[kind])))
	}
	for _, t := range cacheTiers {
		rc.setLayer("daemon.probe_us."+t, median(msOf(probes[t]))*1000)
	}

	gen := []float64{}
	parse := map[string][]float64{}
	key := map[string][]float64{}
	for k, q := range reqs {
		var in mpcgraph.Instance
		var took float64
		var err error
		if q.Kind == "scenario" {
			took, err = timeMedian(func() (err error) {
				in, err = mpcgraph.GenerateScenario(q.Source.Scenario, q.Source.N, q.Seed, nil)
				return err
			})
			gen = append(gen, took)
		} else {
			took, err = timeMedian(func() (err error) {
				in, err = parseUpload(q.Upload)
				return err
			})
			parse[q.Format] = append(parse[q.Format], took)
		}
		if err == nil {
			took, err = timeMedian(func() error {
				_, err := service.CacheKey(in, q.Problem, mpcgraph.ModelMPC, mpcgraph.Options{})
				return err
			})
			key[q.Kind] = append(key[q.Kind], took)
		}
		if err != nil {
			rc.fail("daemon-hit request %d: resolve probe: %v", k, err)
		}
	}
	rc.setLayer("scenario.generate_ms.scenario", median(gen))
	for _, f := range uploadFormats {
		rc.setLayer("resolve.parse_ms."+f, median(parse[f]))
	}
	for _, kind := range requestKinds {
		rc.setLayer("service.cachekey_ms."+kind, median(key[kind]))
	}
}

// parseUpload is what the daemon does with an upload body before
// hashing it: decode the transport, detect gzip, parse the format.
func parseUpload(g *service.GraphRequest) (mpcgraph.Instance, error) {
	f, err := graphio.ParseFormat(g.Format)
	if err != nil {
		return nil, err
	}
	raw := []byte(g.Content)
	if g.Base64 {
		if raw, err = base64.StdEncoding.DecodeString(g.Content); err != nil {
			return nil, err
		}
	}
	r, err := graphio.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	d, err := graphio.Read(r, f)
	if err != nil {
		return nil, err
	}
	return instanceOf(d), nil
}
