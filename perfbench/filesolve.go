package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"mpcgraph"
	"mpcgraph/internal/graph"
	"mpcgraph/internal/graphio"
)

// fileClass is one op class of the file-solve workload: a catalog
// scenario written to disk in one format and solved by a fresh CLI
// process. Together the classes cross every format reader, the gzip
// reader and the CSR builder.
type fileClass struct {
	Name     string
	Scenario string
	N        int
	File     string // the extension selects the format
	Problem  mpcgraph.Problem
	Model    mpcgraph.Model
}

var fileClasses = []fileClass{
	{"el", "rmat", 1 << 17, "rmat.el", mpcgraph.ProblemMIS, mpcgraph.ModelMPC},
	{"mm", "chung-lu", 1 << 17, "chung-lu.mtx", mpcgraph.ProblemMaximalMatching, mpcgraph.ModelMPC},
	{"dimacs-gz", "gnp", 1 << 17, "gnp.dimacs.gz", mpcgraph.ProblemMIS, mpcgraph.ModelCongestedClique},
	{"metis", "chung-lu", 1 << 15, "chung-lu.metis", mpcgraph.ProblemMaximalMatching, mpcgraph.ModelCongestedClique},
	{"wel", "weighted-powerlaw", 1 << 16, "weighted-powerlaw.wel", mpcgraph.ProblemMIS, mpcgraph.ModelMPC},
}

// largestFileClass is the class whose solve processes peak_rss_mib
// reports: rmat with ~970k edges is the largest input.
const largestFileClass = 0

// fileSolveRate is file-solve's nominal throughput on the reference host
// (2 vCPUs), in ops per second; it sizes the op budget.
const fileSolveRate = 8.0

// fileSeeds are the generation and algorithm seeds of each class.
func fileSeeds(rc *runCtx, c int) (gen, algo uint64) {
	return subSeed(rc.seed, "file-gen", c), subSeed(rc.seed, "file-solve", c)
}

// solveArgs is the CLI invocation of one file-solve op.
func solveArgs(rc *runCtx, dir string, c int) []string {
	fc := fileClasses[c]
	_, algo := fileSeeds(rc, c)
	return []string{"solve", "-in", filepath.Join(dir, fc.File), "-problem", fc.Problem.String(),
		"-model", fc.Model.String(), "-seed", strconv.FormatUint(algo, 10), "-json"}
}

// fileOp is one CLI solve of the window.
type fileOp struct {
	Class  int
	Res    opResult
	Report cliReport
	Usage  childUsage
	Replay *fileReplay // traced windows only
}

// fileReplay is the in-process replay of an op through the calls the
// CLI makes, timed per layer.
type fileReplay struct {
	solveSample
	Read, Validate, Render, Total time.Duration
}

func runFileSolve(rc *runCtx) (*outcome, error) {
	// Untimed host warm-up: one full set of files, which also pages the
	// binaries in.
	warm, err := genFiles(rc, "warm")
	if err != nil {
		return nil, err
	}
	_ = os.RemoveAll(warm) // best effort: the run's temp dir goes at exit anyway
	o := &outcome{}
	var dir string
	for r := 0; r < setupReps; r++ {
		if dir != "" {
			_ = os.RemoveAll(dir) // only the last set-up's files are used
		}
		start := time.Now()
		d, err := genFiles(rc, fmt.Sprintf("setup-%d", r))
		if err != nil {
			return nil, err
		}
		if err := fileWarmup(rc, d); err != nil {
			return nil, err
		}
		o.SetupRuns = append(o.SetupRuns, time.Since(start))
		dir = d
	}

	budget := rc.opBudget(fileSolveRate)
	ops, wall := fileWindow(rc, dir, budget, nil)
	fileCheck(rc, ops)
	o.Wall = wall
	summarize(o, results(ops))
	var rss []float64
	byClass := map[string][]float64{}
	var names []string
	for _, fc := range fileClasses {
		names = append(names, fc.Name)
	}
	for _, op := range ops {
		o.CPU += op.Usage.CPU
		if op.Res.Failed {
			continue
		}
		byClass[fileClasses[op.Class].Name] = append(byClass[fileClasses[op.Class].Name], ms(op.Res.Lat))
		if op.Class == largestFileClass {
			rss = append(rss, kibToMiB(op.Usage.MaxRSSKiB))
		}
	}
	o.PeakRSSMiB = median(rss)
	rc.noteMedians("class", names, byClass)

	if rc.traced {
		tr := newTracer()
		traced, _ := fileWindow(rc, dir, tracedBudget(budget), tr)
		fileCheck(rc, traced)
		o.addTracedWindow(results(traced))
		fileLayers(rc, dir, traced)
		if err := rc.writeSpans(tr); err != nil {
			return nil, err
		}
	}
	return o, nil
}

func (op fileOp) result() opResult { return op.Res }

// genFiles writes the five class files with `mpcgraph gen`, two at a
// time, into a fresh directory.
func genFiles(rc *runCtx, name string) (string, error) {
	dir := filepath.Join(rc.tmp, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, parallel(rc.ctx, len(fileClasses), func(c int) error {
		fc := fileClasses[c]
		gen, _ := fileSeeds(rc, c)
		_, err := runCLI(rc.ctx, rc.binPath("mpcgraph"), []string{"gen", "-scenario", fc.Scenario,
			"-n", strconv.Itoa(fc.N), "-seed", strconv.FormatUint(gen, 10), "-out", filepath.Join(dir, fc.File)}, rc.env)
		return err
	})
}

// fileWarmup solves each class once, as the untimed-by-the-window start
// of every set-up.
func fileWarmup(rc *runCtx, dir string) error {
	return parallel(rc.ctx, len(fileClasses), func(c int) error {
		_, err := runCLI(rc.ctx, rc.binPath("mpcgraph"), solveArgs(rc, dir, c), rc.env)
		return err
	})
}

// fileWindow runs the op budget: op i solves class i mod 5 in a fresh
// CLI process. With a tracer, each op is then replayed in-process.
func fileWindow(rc *runCtx, dir string, budget int, tr *tracer) ([]fileOp, time.Duration) {
	ops := make([]fileOp, budget)
	wall := closedLoop(rc.ctx, budget, func(i int) {
		c := i % len(fileClasses)
		op := &ops[i]
		op.Class = c
		root := tr.reserve(i, 0, "op")
		start := time.Now()
		run, err := runCLI(rc.ctx, rc.binPath("mpcgraph"), solveArgs(rc, dir, c), rc.env)
		if err == nil {
			err = json.Unmarshal(run.Stdout, &op.Report)
		}
		if err == nil && !op.Report.Valid {
			err = fmt.Errorf("report not marked valid")
		}
		op.Res.Lat = time.Since(start)
		op.Usage = run.Usage
		tr.add(i, root, "cli.exec", start, start.Add(op.Res.Lat))
		if err != nil {
			op.Res.Failed = true
			rc.fail("file-solve op %d (%s): %v", i, fileClasses[c].Name, err)
		}
		if tr != nil {
			if op.Replay, err = fileReplayOp(rc, tr, i, root, dir, c); err != nil {
				op.Res.Failed = true
				rc.fail("file-solve op %d (%s) replay: %v", i, fileClasses[c].Name, err)
			}
		}
		tr.fill(root, start, time.Now())
	})
	return ops, wall
}

// fileReplayOp repeats one op in-process through the public calls the
// CLI makes — read, Solve with a round-stamping Trace, validate, render
// — recording a span for each.
func fileReplayOp(rc *runCtx, tr *tracer, i, root int, dir string, c int) (*fileReplay, error) {
	fc := fileClasses[c]
	_, algo := fileSeeds(rc, c)
	rp := &fileReplay{}
	replay := tr.reserve(i, root, "replay")
	t0 := time.Now()
	d, err := graphio.ReadFile(filepath.Join(dir, fc.File))
	t1 := time.Now()
	tr.add(i, replay, "graphio.read", t0, t1)
	if err != nil {
		return nil, err
	}
	in := instanceOf(d)
	solveSpan := tr.reserve(i, replay, "solve")
	rep, wall, stamps, err := tracedSolve(in, fc.Problem, mpcgraph.Options{Seed: algo, Model: fc.Model})
	t2 := t1.Add(wall)
	tr.fill(solveSpan, t1, t2)
	if err != nil {
		return nil, err
	}
	slices, rest := attributeRounds(rep.Stages, stamps, wall)
	for _, s := range slices {
		tr.add(i, solveSpan, "solve.stage."+s.Family, t1.Add(s.Start), t1.Add(s.End))
	}
	t3 := time.Now()
	ok := validPayload(d.G, rep)
	t4 := time.Now()
	tr.add(i, replay, "cli.validate", t3, t4)
	if !ok {
		return nil, fmt.Errorf("replayed %s output failed validation", fc.Problem)
	}
	_, err = json.Marshal(referenceCLIReport(in, rep))
	t5 := time.Now()
	tr.add(i, replay, "cli.render", t4, t5)
	tr.fill(replay, t0, t5)
	rp.Read, rp.Validate, rp.Render, rp.Total = t1.Sub(t0), t4.Sub(t3), t5.Sub(t4), t5.Sub(t0)
	rp.solveSample = solveSample{Wall: wall, Rounds: rep.Rounds, Families: familyTimes(slices, rest)}
	return rp, err
}

// validPayload is the payload check the CLI runs before printing.
func validPayload(g *mpcgraph.Graph, rep *mpcgraph.Report) bool {
	switch rep.Problem {
	case mpcgraph.ProblemMIS:
		return mpcgraph.IsMaximalIndependentSet(g, rep.InMIS)
	case mpcgraph.ProblemMaximalMatching:
		return mpcgraph.IsMaximalMatching(g, rep.M)
	case mpcgraph.ProblemVertexCover:
		return mpcgraph.IsVertexCover(g, rep.InCover)
	default:
		return mpcgraph.IsMatching(g, rep.M)
	}
}

// instanceOf is the Solve input of parsed graph data.
func instanceOf(d *graphio.Data) mpcgraph.Instance {
	if d.WG != nil {
		return d.WG
	}
	return d.G
}

// fileCheck is the output oracle: each class is generated and solved
// in-process from its scenario, and every CLI report of the class must
// equal that reference bit for bit (wall time aside). Files round-trip
// bit-identically under the determinism contract, so any difference is
// a defect.
func fileCheck(rc *runCtx, ops []fileOp) {
	for c, fc := range fileClasses {
		gen, algo := fileSeeds(rc, c)
		in, err := mpcgraph.GenerateScenario(fc.Scenario, fc.N, gen, nil)
		var rep *mpcgraph.Report
		if err == nil {
			rep, err = mpcgraph.Solve(rc.ctx, in, fc.Problem, mpcgraph.Options{Seed: algo, Model: fc.Model})
		}
		if err != nil {
			rc.fail("class %s: reference solve: %v", fc.Name, err)
			continue
		}
		want := referenceCLIReport(in, rep)
		for i := range ops {
			op := &ops[i]
			if op.Class != c || op.Res.Failed {
				continue
			}
			if err := checkCLIReport(op.Report, want); err != nil {
				op.Res.Failed = true
				rc.fail("file-solve op %d (%s): %v", i, fc.Name, err)
			}
		}
	}
}

// fileLayers derives the file-solve per-layer metrics: medians of the
// replay spans per class, plus in-process timings of the builder, the
// writer and the generator on each class input.
func fileLayers(rc *runCtx, dir string, ops []fileOp) {
	for c, fc := range fileClasses {
		var read, validate, overhead []float64
		var solves []solveSample
		for _, op := range ops {
			if op.Class != c || op.Replay == nil {
				continue
			}
			rp := op.Replay
			read = append(read, ms(rp.Read))
			validate = append(validate, ms(rp.Validate))
			overhead = append(overhead, ms(op.Res.Lat-rp.Total))
			solves = append(solves, rp.solveSample)
		}
		rc.setLayer("graphio.read_ms."+fc.Name, median(read))
		rc.setLayer("cli.validate_ms."+fc.Name, median(validate))
		rc.setLayer("cli.exec_overhead_ms."+fc.Name, median(overhead))
		recordSolves(rc, fc.Name, solves)
		inProcessFileLayers(rc, dir, c)
	}
}

// solveSample is one traced Solve of a class input.
type solveSample struct {
	Wall     time.Duration
	Rounds   int
	Families map[string]time.Duration // host time per stage family
}

// recordSolves records a class's solve layers from repeated Solves of
// one input and seed: median wall, time per round and per declared stage
// family, and the round count, which must repeat exactly.
func recordSolves(rc *runCtx, class string, solves []solveSample) {
	var walls []float64
	fam := map[string][]float64{}
	for i, s := range solves {
		if i > 0 && s.Rounds != solves[0].Rounds {
			rc.fail("class %s: Report.Rounds %d then %d on the same input and seed", class, solves[0].Rounds, s.Rounds)
		}
		walls = append(walls, ms(s.Wall))
		for _, f := range stageFamilies[class] {
			fam[f] = append(fam[f], ms(s.Families[f]))
		}
		for f := range s.Families {
			if _, known := fam[f]; !known {
				rc.note("class %s: undeclared stage family %q", class, f)
			}
		}
	}
	if len(solves) == 0 {
		return
	}
	wall, rounds := median(walls), solves[0].Rounds
	rc.setLayer("solve.wall_ms."+class, wall)
	rc.setLayer("solve.rounds."+class, float64(rounds))
	if rounds > 0 {
		rc.setLayer("solve.round_us."+class, wall*1000/float64(rounds))
	}
	for f, xs := range fam {
		rc.setLayer("solve.stage_ms."+class+"."+f, median(xs))
	}
}

// probeReps is how many times each in-process layer probe runs; the
// median is reported.
const probeReps = 3

// timeMedian runs fn probeReps times and returns the median duration in
// milliseconds, or the first error.
func timeMedian(fn func() error) (float64, error) {
	var xs []float64
	for r := 0; r < probeReps; r++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		xs = append(xs, ms(time.Since(start)))
	}
	return median(xs), nil
}

// buildSink keeps the probed Build result live so it is not optimised away.
var buildSink *graph.Graph

// inProcessFileLayers times the builder, the writer and the generator
// on one class's input.
func inProcessFileLayers(rc *runCtx, dir string, c int) {
	fc := fileClasses[c]
	gen, _ := fileSeeds(rc, c)
	d, err := graphio.ReadFile(filepath.Join(dir, fc.File))
	if err != nil {
		rc.fail("class %s: reading the input for the layer probes: %v", fc.Name, err)
		return
	}
	edges := d.G.EdgeList()
	probes := []struct {
		name string
		fn   func() error
	}{
		{"graph.build_ms.", func() error {
			b := graph.NewBuilderCap(d.G.NumVertices(), len(edges))
			b.AddEdges(edges)
			g, err := b.Build()
			buildSink = g
			return err
		}},
		{"graphio.write_ms.", func() error { return graphio.WriteFile(filepath.Join(rc.tmp, "probe-"+fc.File), d) }},
		{"scenario.generate_ms.", func() error {
			_, err := mpcgraph.GenerateScenario(fc.Scenario, fc.N, gen, nil)
			return err
		}},
	}
	for _, p := range probes {
		v, err := timeMedian(p.fn)
		if err != nil {
			rc.fail("class %s: %s probe: %v", fc.Name, p.name, err)
			continue
		}
		rc.setLayer(p.name+fc.Name, v)
	}
	_ = os.Remove(filepath.Join(rc.tmp, "probe-"+fc.File))
}
