package main

import (
	"fmt"
	"path/filepath"
	"time"

	"mpcgraph"
	"mpcgraph/internal/service"
)

// coldClass is one op class of daemon-cold: a scenario request whose
// options.seed is new for every op, so every job misses both cache
// tiers and runs the metered simulation.
type coldClass struct {
	Name     string
	Scenario string
	N        int
	Problem  mpcgraph.Problem
	Model    mpcgraph.Model
}

var coldClasses = []coldClass{
	{"approx-mpc", "gnp", 1 << 13, mpcgraph.ProblemApproxMatching, mpcgraph.ModelMPC},
	{"approx-clique", "rmat", 1 << 13, mpcgraph.ProblemApproxMatching, mpcgraph.ModelCongestedClique},
	{"one-plus-eps", "bipartite", 1 << 13, mpcgraph.ProblemOnePlusEpsMatching, mpcgraph.ModelMPC},
	{"one-plus-eps-clique", "bipartite", 1 << 13, mpcgraph.ProblemOnePlusEpsMatching, mpcgraph.ModelCongestedClique},
	{"weighted", "weighted-powerlaw", 1 << 14, mpcgraph.ProblemWeightedMatching, mpcgraph.ModelMPC},
}

// coldRate is daemon-cold's nominal throughput on the reference host,
// in ops per second; it sizes the op budget.
const coldRate = 5.0

// riderEvery makes one op in riderEvery a leader followed at once by an
// identical submission that rides its flight. Since riderEvery and the
// class count are coprime, the rider's class rotates.
const riderEvery = 6

// coldGenSeed is a class's scenario seed: fixed per run, so the
// benchmark rebuilds each class instance once to validate every job of it.
func coldGenSeed(rc *runCtx, c int) uint64 { return subSeed(rc.seed, "cold-gen", c) }

// coldBody is the request of one daemon-cold op.
func coldBody(rc *runCtx, c int, optSeed uint64) []byte {
	cc := coldClasses[c]
	return encode(service.JobRequest{
		Problem:  cc.Problem.String(),
		Model:    cc.Model.String(),
		Scenario: &service.ScenarioRequest{Name: cc.Scenario, N: cc.N, Seed: coldGenSeed(rc, c)},
		Options:  service.OptionsRequest{Seed: optSeed},
	})
}

// coldOp is one daemon-cold op: a leader job and, one time in six, a
// rider.
type coldOp struct {
	Class      int
	OptSeed    uint64
	Res        opResult
	Admitted   int // jobs the daemon accepted: the leader, and the rider if any
	Rejected   int
	Leader     *service.JobView // final views
	RiderView  *service.JobView
	SubmitTook time.Duration // leader POST
	Unphased   time.Duration // leader POST minus the phases its view accounts for
	SettleWait time.Duration // leader POST return until its trace stream ended
	Err        error
}

// coldWindowResult is one daemon-cold window.
type coldWindowResult struct {
	ops           []coldOp
	wall          time.Duration
	before, after probe
	peakKiB       int64
}

func runDaemonCold(rc *runCtx) (*outcome, error) {
	var d *daemon
	var cl *client
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	if err := daemonHostWarmup(rc); err != nil {
		return nil, err
	}
	o := &outcome{}
	for r := 0; r < setupReps; r++ {
		if d != nil {
			stopDaemon(rc, d, cl)
		}
		start := time.Now()
		var err error
		if d, cl, err = coldSetup(rc, r); err != nil {
			return nil, err
		}
		o.SetupRuns = append(o.SetupRuns, time.Since(start))
	}

	budget := rc.opBudget(coldRate)
	w, err := coldWindow(rc, d, cl, budget, "cold-op", nil)
	if err != nil {
		return nil, err
	}
	stopDaemon(rc, d, cl)
	summarize(o, results(w.ops))
	o.Wall, o.CPU, o.PeakRSSMiB = w.wall, w.after.cpu-w.before.cpu, kibToMiB(w.peakKiB)
	byClass := map[string][]float64{}
	var names []string
	for _, cc := range coldClasses {
		names = append(names, cc.Name)
	}
	for _, op := range w.ops {
		if !op.Res.Failed {
			byClass[coldClasses[op.Class].Name] = append(byClass[coldClasses[op.Class].Name], ms(op.Res.Lat))
		}
	}
	rc.noteMedians("class", names, byClass)

	if rc.traced {
		if d, cl, err = coldSetup(rc, setupReps); err != nil {
			return nil, err
		}
		tr := newTracer()
		tw, err := coldWindow(rc, d, cl, tracedBudget(budget), "cold-op-traced", tr)
		if err != nil {
			return nil, err
		}
		stopDaemon(rc, d, cl)
		o.addTracedWindow(results(tw.ops))
		coldLayers(rc, tw)
		if err := rc.writeSpans(tr); err != nil {
			return nil, err
		}
	}
	return o, nil
}

func (op coldOp) result() opResult { return op.Res }

// coldSetup boots a daemon on a fresh cache dir and warms it up with one
// job per class, on keys no window op uses.
func coldSetup(rc *runCtx, r int) (*daemon, *client, error) {
	d, cl, err := bootDaemon(rc, filepath.Join(rc.tmp, fmt.Sprintf("cold-cache-%d", r)), fmt.Sprintf("cold-daemon-%d", r))
	if err != nil {
		return nil, nil, err
	}
	err = parallel(rc.ctx, len(coldClasses), func(c int) error {
		seed := subSeed(rc.seed, "cold-warm", r*len(coldClasses)+c)
		if op := coldRun(cl, nil, c, c, seed, coldBody(rc, c, seed), false); op.Res.Failed {
			return fmt.Errorf("daemon-cold warm-up (class %s): %v", coldClasses[c].Name, op.Err)
		}
		return nil
	})
	if err != nil {
		d.kill()
		return nil, nil, err
	}
	return d, cl, nil
}

// coldWindow runs the op budget on a warmed daemon, then checks the op
// class invariants on the /metrics deltas and validates every job's
// full solution against its instance.
func coldWindow(rc *runCtx, d *daemon, cl *client, budget int, label string, tr *tracer) (*coldWindowResult, error) {
	bodies := make([][]byte, budget)
	seeds := make([]uint64, budget)
	seen := map[uint64]bool{}
	for i := range bodies {
		seeds[i] = subSeed(rc.seed, label, i)
		if seen[seeds[i]] {
			return nil, fmt.Errorf("daemon-cold: option seed collision at op %d", i)
		}
		seen[seeds[i]] = true
		bodies[i] = coldBody(rc, i%len(coldClasses), seeds[i])
	}
	w := &coldWindowResult{ops: make([]coldOp, budget)}
	var err error
	if w.before, err = probeDaemon(d, cl); err != nil {
		return nil, err
	}
	w.wall = closedLoop(rc.ctx, budget, func(i int) {
		w.ops[i] = coldRun(cl, tr, i, i%len(coldClasses), seeds[i], bodies[i], i%riderEvery == riderEvery-1)
	})
	if w.after, err = probeDaemon(d, cl); err != nil {
		return nil, err
	}
	if w.peakKiB, err = procPeakRSS(d.Pid()); err != nil {
		return nil, err
	}

	leaders, riders, rejected := 0, 0, 0
	for i, op := range w.ops {
		rejected += op.Rejected
		if op.Admitted > 0 {
			leaders++
			riders += op.Admitted - 1
		}
		if op.Res.Failed {
			rc.fail("daemon-cold op %d (%s): %v", i, coldClasses[op.Class].Name, op.Err)
		}
	}
	b, a := w.before.m, w.after.m
	for _, inv := range []struct {
		what      string
		got, want float64
	}{
		{"solves delta", a.Solves - b.Solves, float64(leaders)},
		{"coalesced delta", a.Coalesced - b.Coalesced, float64(riders)},
		{"cache hits delta", a.HitsMem + a.HitsDisk - b.HitsMem - b.HitsDisk, 0},
		{"429/503 rejections", float64(rejected), 0},
	} {
		if inv.got != inv.want {
			rc.fail("daemon-cold invariant: %s = %v, want %v", inv.what, inv.got, inv.want)
		}
	}
	coldValidate(rc, cl, w.ops)
	return w, nil
}

// coldRun is one op: submit the leader (and a rider), follow each trace
// stream to its end, and fetch the settled views.
func coldRun(cl *client, tr *tracer, i, c int, seed uint64, body []byte, rider bool) coldOp {
	op := coldOp{Class: c, OptSeed: seed}
	root := tr.reserve(i, 0, "op")
	start := time.Now()
	err := func() error {
		lead, err := cl.submit(body)
		posted := start.Add(lead.Took)
		tr.add(i, root, "http.submit", start, posted)
		if err != nil {
			op.Rejected += rejectedStatus(lead.Status)
			return err
		}
		op.Admitted++
		op.SubmitTook = lead.Took
		op.Unphased = lead.Took - lastPhase(lead.View)
		var rid submitResult
		if rider {
			t := time.Now()
			rid, err = cl.submit(body)
			tr.add(i, root, "http.submit", t, t.Add(rid.Took))
			if err != nil {
				op.Rejected += rejectedStatus(rid.Status)
				return err
			}
			op.Admitted++
		}
		if _, err := cl.awaitSettled(lead.View.ID); err != nil {
			return err
		}
		op.SettleWait = time.Since(posted)
		tr.add(i, root, "http.settle_wait", posted, posted.Add(op.SettleWait))
		if rider {
			t := time.Now()
			if _, err := cl.awaitSettled(rid.View.ID); err != nil {
				return err
			}
			tr.add(i, root, "http.settle_wait", t, time.Now())
		}
		t := time.Now()
		if op.Leader, err = cl.job(lead.View.ID); err != nil {
			return err
		}
		if rider {
			if op.RiderView, err = cl.job(rid.View.ID); err != nil {
				return err
			}
		}
		tr.add(i, root, "http.get_view", t, time.Now())
		if err := checkState(op.Leader); err != nil {
			return err
		}
		if op.Leader.CacheHit || op.Leader.Coalesced {
			return fmt.Errorf("leader %s: cacheHit=%v coalesced=%v, want a fresh solve", op.Leader.ID, op.Leader.CacheHit, op.Leader.Coalesced)
		}
		if rider {
			if err := checkState(op.RiderView); err != nil {
				return err
			}
			if !op.RiderView.Coalesced {
				return fmt.Errorf("rider %s did not coalesce (cacheTier %s)", op.RiderView.ID, op.RiderView.CacheTier)
			}
			if op.RiderView.Report.SolutionHash != op.Leader.Report.SolutionHash {
				return fmt.Errorf("rider %s solution %s, leader %s", op.RiderView.ID, op.RiderView.Report.SolutionHash, op.Leader.Report.SolutionHash)
			}
		}
		return nil
	}()
	op.Res.Lat = time.Since(start)
	tr.fill(root, start, start.Add(op.Res.Lat))
	if err != nil {
		op.Res.Failed, op.Err = true, err
		op.Leader, op.RiderView = nil, nil
	}
	return op
}

// rejectedStatus counts a 429 or 503 refusal.
func rejectedStatus(status int) int {
	if status == 429 || status == 503 {
		return 1
	}
	return 0
}

// coldValidate fetches every job's full solution and validates it on an
// instance the benchmark generates in-process from the same scenario.
func coldValidate(rc *runCtx, cl *client, ops []coldOp) {
	for c, cc := range coldClasses {
		in, err := mpcgraph.GenerateScenario(cc.Scenario, cc.N, coldGenSeed(rc, c), nil)
		if err != nil {
			rc.fail("class %s: reference instance: %v", cc.Name, err)
			continue
		}
		for i := range ops {
			op := &ops[i]
			if op.Class != c || op.Leader == nil {
				continue
			}
			for _, v := range []*service.JobView{op.Leader, op.RiderView} {
				if v == nil {
					continue
				}
				text, err := cl.solution(v.ID)
				if err == nil {
					err = checkSolution(cc.Problem, in, text, v.Report)
				}
				if err != nil {
					op.Res.Failed = true
					rc.fail("daemon-cold op %d (%s) job %s: %v", i, cc.Name, v.ID, err)
				}
			}
		}
	}
}

// coldLayers derives the daemon-cold per-layer metrics from the traced
// window's views and /metrics deltas, plus in-process Solve, generation
// and cache-key timings on each class instance.
func coldLayers(rc *runCtx, w *coldWindowResult) {
	b, a := w.before.m, w.after.m
	var submit, unphased, settle, queue, probeMem, probeDisk []time.Duration
	rejected := 0
	for _, op := range w.ops {
		rejected += op.Rejected
		if op.Leader == nil {
			continue
		}
		submit = append(submit, op.SubmitTook)
		unphased = append(unphased, op.Unphased)
		settle = append(settle, op.SettleWait)
		q, ok1 := phaseAt(op.Leader, "queued")
		dq, ok2 := phaseAt(op.Leader, "dequeued")
		if ok1 && ok2 {
			queue = append(queue, dq-q)
		}
		if p, ok := probeDur(op.Leader, "memory"); ok {
			probeMem = append(probeMem, p)
		}
		if p, ok := probeDur(op.Leader, "disk"); ok {
			probeDisk = append(probeDisk, p)
		}
	}
	daemonLayers(rc, b, a, len(w.ops), rejected)
	rc.setLayer("http.submit_ms.scenario", median(msOf(submit)))
	rc.setLayer("daemon.unphased_ms.scenario", median(msOf(unphased)))
	rc.setLayer("http.settle_wait_ms", median(msOf(settle)))
	rc.setLayer("daemon.queue_wait_ms", median(msOf(queue)))
	rc.setLayer("daemon.probe_us.memory", median(msOf(probeMem))*1000)
	rc.setLayer("daemon.probe_us.disk", median(msOf(probeDisk))*1000)

	var gen, key []float64
	for c, cc := range coldClasses {
		pair := cc.Problem.String() + "/" + cc.Model.String()
		rc.setLayer("daemon.solve_ms."+cc.Name, a.Solve[pair].meanMsSince(b.Solve[pair]))

		var in mpcgraph.Instance
		g, err := timeMedian(func() (err error) {
			in, err = mpcgraph.GenerateScenario(cc.Scenario, cc.N, coldGenSeed(rc, c), nil)
			return err
		})
		if err != nil {
			rc.fail("class %s: generate probe: %v", cc.Name, err)
			continue
		}
		gen = append(gen, g)
		opts := mpcgraph.Options{Seed: w.ops[c].OptSeed, Model: cc.Model}
		k, err := timeMedian(func() error {
			_, err := service.CacheKey(in, cc.Problem, cc.Model, opts)
			return err
		})
		if err != nil {
			rc.fail("class %s: cache-key probe: %v", cc.Name, err)
			continue
		}
		key = append(key, k)
		solveLayers(rc, cc.Name, in, cc.Problem, opts)
	}
	rc.setLayer("scenario.generate_ms.scenario", median(gen))
	rc.setLayer("service.cachekey_ms.scenario", median(key))
}

// solveLayers times probeReps traced in-process Solves of one class
// instance.
func solveLayers(rc *runCtx, class string, in mpcgraph.Instance, p mpcgraph.Problem, opts mpcgraph.Options) {
	var solves []solveSample
	for r := 0; r < probeReps; r++ {
		rep, wall, stamps, err := tracedSolve(in, p, opts)
		if err != nil {
			rc.fail("class %s: solve probe: %v", class, err)
			return
		}
		slices, rest := attributeRounds(rep.Stages, stamps, wall)
		solves = append(solves, solveSample{Wall: wall, Rounds: rep.Rounds, Families: familyTimes(slices, rest)})
	}
	recordSolves(rc, class, solves)
}
