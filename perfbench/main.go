// Command perfbench is the repository's host-cost benchmark. It drives
// the mpcgraph and mpcgraphd binaries built from the checkout through
// one named workload, checks every op's output against a reference it
// derives in-process from the same commit, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) as the
// last line of stdout:
//
//	perfbench -bin DIR -work DIR -workload file-solve -seed 1 -seconds 20 -trace 0
//
// run.sh builds the binaries and calls it; README.md describes the
// workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run: file-solve, daemon-cold or daemon-hit")
		seed     = flag.Uint64("seed", 1, "workload seed: the same seed generates the same inputs")
		seconds  = flag.Int("seconds", 20, "nominal window length; sizes the fixed op budget")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
		bin      = flag.String("bin", "", "directory holding the mpcgraph and mpcgraphd binaries under test")
		work     = flag.String("work", "", "directory for per-run temp dirs and span files")
	)
	flag.Parse()
	wl, ok := workloads[*workload]
	if !ok || *bin == "" || *work == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (file-solve|daemon-cold|daemon-hit), -bin, -work, -seconds >= 1 and -trace 0|1\n")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := os.MkdirAll(filepath.Join(*work, "tmp"), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(filepath.Join(*work, "tmp"), "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	rc := &runCtx{
		ctx:     ctx,
		name:    *workload,
		seed:    *seed,
		seconds: *seconds,
		traced:  *trace == 1,
		bin:     *bin,
		work:    *work,
		tmp:     tmp,
		env:     childEnv(tmp),
	}
	fp := fingerprint(ctx)
	fmt.Printf("host %s\n", mustJSON(fp))

	out, err := wl(rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	res := rc.result(out)
	for _, line := range rc.report(out) {
		fmt.Println(line)
	}
	fmt.Println(mustJSON(res))
	if !res.Correct {
		return 1
	}
	return 0
}

// workloads maps each -workload name to its implementation.
var workloads = map[string]func(*runCtx) (*outcome, error){
	"file-solve":  runFileSolve,
	"daemon-cold": runDaemonCold,
	"daemon-hit":  runDaemonHit,
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of stdout.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcome is what a workload measured in its window.
type outcome struct {
	SetupRuns  []time.Duration // each set-up repetition
	Lat        []float64       // ms, one per op of the window that succeeded
	Ops        int             // ops of the window
	Attempted  int             // ops of every window of the run
	Failed     int
	Wall       time.Duration // window wall time
	CPU        time.Duration // process-under-test CPU over the window
	PeakRSSMiB float64
	// TracedP50 is the op_p50_ms of the traced window a traced run
	// measures after the untraced one, for trace.overhead_pct.
	TracedP50 float64
}

// addTracedWindow folds a traced window's ops into the counts: its ops
// are attempted, and can fail, like any other.
func (o *outcome) addTracedWindow(ops []opResult) {
	var traced outcome
	summarize(&traced, ops)
	o.Attempted += traced.Attempted
	o.Failed += traced.Failed
	o.TracedP50 = median(traced.Lat)
}

// endToEnd computes the end-to-end metrics of an outcome.
func endToEnd(o *outcome) map[string]float64 {
	setups := make([]float64, len(o.SetupRuns))
	for i, d := range o.SetupRuns {
		setups[i] = d.Seconds()
	}
	ops := float64(max(1, o.Ops))
	return map[string]float64{
		"setup_s":       median(setups),
		"ops_per_s":     float64(len(o.Lat)) / o.Wall.Seconds(),
		"op_p50_ms":     median(o.Lat),
		"op_tail_ms":    tailOf(o.Lat).Value,
		"cpu_ms_per_op": ms(o.CPU) / ops,
		"peak_rss_mib":  o.PeakRSSMiB,
	}
}

// result assembles the result line. A traced run reports every
// per-layer metric, 0 for layers its workload does not cross.
func (rc *runCtx) result(o *outcome) result {
	res := result{
		Correct:   len(rc.failures) == 0 && o.Failed == 0 && o.Attempted > 0,
		Attempted: o.Attempted,
		Failed:    o.Failed,
		Metrics:   map[string]metricValue{},
	}
	if !rc.traced {
		e := endToEnd(o)
		for _, d := range endToEndDefs {
			res.Metrics[d.Name] = metricValue{finite(e[d.Name]), d.Unit}
		}
		return res
	}
	rc.setLayer("trace.overhead_pct", (o.TracedP50/median(o.Lat)-1)*100)
	for _, d := range layerDefs() {
		res.Metrics[d.Name] = metricValue{finite(rc.layers[d.Name]), d.Unit}
	}
	return res
}

// finite maps the NaN or infinity of an empty sample (every op failed,
// or a layer with no observations) to 0, which JSON can carry.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// report renders the human-readable lines printed before the result.
func (rc *runCtx) report(o *outcome) []string {
	e := endToEnd(o)
	t := tailOf(o.Lat)
	lines := []string{
		fmt.Sprintf("workload %s seed %d traced %v: %d ops attempted, %d failed (op_fail_frac %.4f ratio)",
			rc.name, rc.seed, rc.traced, o.Attempted, o.Failed, float64(o.Failed)/float64(max(1, o.Attempted))),
		fmt.Sprintf("  setup_s        %10.4f s    (median of %d set-ups)", e["setup_s"], len(o.SetupRuns)),
		fmt.Sprintf("  ops_per_s      %10.4f 1/s  (%d ops in %.3f s, 2 clients, closed loop)", e["ops_per_s"], len(o.Lat), o.Wall.Seconds()),
		fmt.Sprintf("  op_p50_ms      %10.4f ms", e["op_p50_ms"]),
		fmt.Sprintf("  op_tail_ms     %10.4f ms   (p%g of %d ops, %d beyond)", t.Value, t.Pct, t.N, t.Beyond),
		fmt.Sprintf("  cpu_ms_per_op  %10.4f ms", e["cpu_ms_per_op"]),
		fmt.Sprintf("  peak_rss_mib   %10.4f MiB", e["peak_rss_mib"]),
	}
	for _, n := range rc.notes {
		lines = append(lines, "  note: "+n)
	}
	for i, f := range rc.failures {
		if i == 20 {
			lines = append(lines, fmt.Sprintf("  ... %d more failures", len(rc.failures)-20))
			break
		}
		lines = append(lines, "  FAIL: "+f)
	}
	if rc.traced {
		names := make([]string, 0, len(rc.layers))
		for n := range rc.layers {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			lines = append(lines, fmt.Sprintf("  layer %-48s %14.4f", n, rc.layers[n]))
		}
	}
	return lines
}

func mustJSON(v any) string {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and maps are encoded
	}
	return string(raw)
}
