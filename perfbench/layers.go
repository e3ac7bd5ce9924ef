package main

import "fmt"

// metricDef declares one metric the benchmark reports.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEndDefs are the metrics a user of the system sees, reported by
// every untraced run. op_fail_frac is printed next to them but is not a
// metric of the result line: it is 0 on every correct run, and the
// result's failed/attempted counts already carry it.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_tail_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"peak_rss_mib", "MiB", "lower"},
}

// stageFamilies declares, per solve class, the stage families its
// algorithm charges rounds to (plus the unmetered remainder). Families
// depend on the algorithm path, not on the seed.
var stageFamilies = map[string][]string{
	"el":                  {"gather-all", unmetered},
	"mm":                  {"filtering", unmetered},
	"dimacs-gz":           {"setup", "prefix", "sparsified", "final-gather", unmetered},
	"metis":               {"filtering", unmetered},
	"wel":                 {"gather-all", unmetered},
	"approx-mpc":          {"invocation", "finish", unmetered},
	"approx-clique":       {"invocation", "finish", unmetered},
	"one-plus-eps":        {"invocation", "boost", "finish", unmetered},
	"one-plus-eps-clique": {"invocation", "boost", "finish", unmetered},
	"weighted":            {"improvement", unmetered},
}

// Request kinds and upload formats of the daemon workloads.
var (
	requestKinds  = []string{"scenario", "upload"}
	uploadFormats = []string{"el", "mm-gz", "wel"}
	cacheTiers    = []string{"memory", "disk"}
)

// layerDefs is every per-layer metric a traced run reports. A layer the
// traced workload does not cross reads 0; README.md maps each metric to
// the workload that measures it and the end-to-end metric it should
// move.
func layerDefs() []metricDef {
	var out []metricDef
	add := func(unit, better, format string, args ...any) {
		out = append(out, metricDef{fmt.Sprintf(format, args...), unit, better})
	}
	for _, c := range fileClasses {
		add("ms", "lower", "graphio.read_ms.%s", c.Name)
		add("ms", "lower", "graph.build_ms.%s", c.Name)
		add("ms", "lower", "graphio.write_ms.%s", c.Name)
		add("ms", "lower", "scenario.generate_ms.%s", c.Name)
		add("ms", "lower", "cli.validate_ms.%s", c.Name)
		add("ms", "lower", "cli.exec_overhead_ms.%s", c.Name)
	}
	var classes []string
	for _, c := range fileClasses {
		classes = append(classes, c.Name)
	}
	for _, c := range coldClasses {
		classes = append(classes, c.Name)
	}
	for _, c := range classes {
		add("ms", "lower", "solve.wall_ms.%s", c)
		add("us", "lower", "solve.round_us.%s", c)
		add("count", "lower", "solve.rounds.%s", c)
		for _, f := range stageFamilies[c] {
			add("ms", "lower", "solve.stage_ms.%s.%s", c, f)
		}
	}
	for _, c := range coldClasses {
		add("ms", "lower", "daemon.solve_ms.%s", c.Name)
	}
	add("ms", "lower", "daemon.persist_ms")
	add("ms", "lower", "daemon.disk_read_ms")
	add("ms", "lower", "daemon.queue_wait_ms")
	add("ms", "lower", "http.settle_wait_ms")
	for _, k := range requestKinds {
		add("ms", "lower", "http.submit_ms.%s", k)
		add("ms", "lower", "daemon.unphased_ms.%s", k)
		add("ms", "lower", "service.cachekey_ms.%s", k)
	}
	add("ms", "lower", "scenario.generate_ms.scenario")
	for _, f := range uploadFormats {
		add("ms", "lower", "resolve.parse_ms.%s", f)
	}
	for _, t := range cacheTiers {
		add("us", "lower", "daemon.probe_us.%s", t)
		add("count", "higher", "daemon.hits.%s", t)
	}
	add("MiB", "lower", "daemon.heap_inuse_mib")
	add("count", "lower", "daemon.gc_cycles_per_op")
	add("ms", "lower", "daemon.gc_pause_ms_per_op")
	add("count", "lower", "daemon.solves")
	add("count", "higher", "daemon.coalesced")
	add("ratio", "higher", "daemon.hit_frac")
	add("count", "lower", "daemon.rejected")
	add("%", "lower", "trace.overhead_pct")
	return out
}
