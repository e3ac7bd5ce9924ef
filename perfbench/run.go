package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the closed loop's concurrency: two clients keep both
// vCPUs of the reference host busy, which steadies the parallel phases
// that one sequential client leaves waiting for the second vCPU.
const clients = 2

// setupReps is how many times each run sets its workload up; setup_s is
// the median.
const setupReps = 3

// runCtx is the state of one benchmark run.
type runCtx struct {
	ctx     context.Context
	name    string
	seed    uint64
	seconds int
	traced  bool
	bin     string // directory of the binaries under test
	work    string // .bench_build/perfbench: span files go here
	tmp     string // this run's temp dir, removed at exit
	env     []string

	mu       sync.Mutex
	failures []string           // failed output checks and invariants
	notes    []string           // informational lines
	layers   map[string]float64 // per-layer metrics of a traced run
}

// fail records a failed check. Any failure makes the run incorrect.
func (rc *runCtx) fail(format string, args ...any) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.failures = append(rc.failures, fmt.Sprintf(format, args...))
}

// note records an informational line for the report.
func (rc *runCtx) note(format string, args ...any) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.notes = append(rc.notes, fmt.Sprintf(format, args...))
}

// setLayer records one per-layer metric.
func (rc *runCtx) setLayer(name string, v float64) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.layers == nil {
		rc.layers = map[string]float64{}
	}
	rc.layers[name] = v
}

// writeSpans writes a traced window's spans next to the build outputs,
// one file per workload and seed.
func (rc *runCtx) writeSpans(tr *tracer) error {
	path := filepath.Join(rc.work, fmt.Sprintf("spans-%s-seed%d.json", rc.name, rc.seed))
	if err := tr.writeSpans(path); err != nil {
		return err
	}
	rc.note("span file %s (%d spans)", path, len(tr.spans))
	return nil
}

// noteMedians records the median op latency of each group, in the order
// names gives, so a shift in one op class is visible next to the totals.
func (rc *runCtx) noteMedians(what string, names []string, groups map[string][]float64) {
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s %.1f", n, median(groups[n]))
	}
	rc.note("%s p50 ms: %s", what, strings.Join(parts, ", "))
}

// binPath is the path of one binary under test.
func (rc *runCtx) binPath(name string) string { return filepath.Join(rc.bin, name) }

// subSeed derives an independent 64-bit seed from the workload seed, a
// purpose label and an index (splitmix64 over an FNV-1a label hash), so
// every input of a run follows from -seed alone.
func subSeed(seed uint64, label string, i int) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range []byte(label) {
		h = (h ^ uint64(b)) * 1099511628211
	}
	x := seed ^ h ^ uint64(i)*0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	// Scenario and option seeds are accepted up to 2^53 so they survive
	// JSON round trips through float64-based tools unchanged.
	return x & (1<<53 - 1)
}

// opBudget is a workload's fixed op count: nominal throughput on the
// reference host times the window length. A fixed count keeps both
// sides of a comparison at the same number of ops, which daemon-hit's
// peak RSS needs (it grows with every retained job).
func (rc *runCtx) opBudget(opsPerSecond float64) int {
	return max(1, int(opsPerSecond*float64(rc.seconds)+0.5))
}

// tracedBudget sizes a traced run's second, traced window: half the
// untraced one, which keeps a traced run within the time limit of one
// run while leaving enough ops for the per-layer medians.
func tracedBudget(n int) int { return max(1, n/2) }

// closedLoop runs ops 0..n-1 on the clients, each client taking the
// next index when its previous op returns. It returns the loop's wall
// time. It stops handing out ops once ctx is done.
func closedLoop(ctx context.Context, n int, op func(i int)) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				op(i)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// opResult is one op of a window.
type opResult struct {
	Lat    time.Duration
	Failed bool
}

// windowOp is an op record of any workload.
type windowOp interface{ result() opResult }

// results extracts the per-op outcomes of a window.
func results[T windowOp](ops []T) []opResult {
	out := make([]opResult, len(ops))
	for i, op := range ops {
		out[i] = op.result()
	}
	return out
}

// parallel runs fn(0..n-1) on the closed loop's clients and returns the
// first error, or the context's.
func parallel(ctx context.Context, n int, fn func(i int) error) error {
	errs := make([]error, n)
	closedLoop(ctx, n, func(i int) { errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// summarize folds per-op results into an outcome's latency and counts.
func summarize(o *outcome, ops []opResult) {
	for _, r := range ops {
		o.Ops++
		o.Attempted++
		if r.Failed {
			o.Failed++
			continue
		}
		o.Lat = append(o.Lat, ms(r.Lat))
	}
}

// fingerprintInfo identifies the host and the code under test.
type fingerprintInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpuModel"`
	GoVersion  string `json:"goVersion"`
	Commit     string `json:"commit"`
	Source     string `json:"sourceSha256"`
}

// fingerprint records the host and the code under test. A benchmark
// checkout need not be a git repository: the commit is read only from a
// .git in the working directory, and the digest of the Go sources the
// binaries were built from is always recorded.
func fingerprint(ctx context.Context) fingerprintInfo {
	fp := fingerprintInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Source:     sourceDigest("."),
	}
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output(); err == nil {
			fp.Commit = strings.TrimSpace(string(out))
		}
	}
	return fp
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes go.mod and every .go file under root outside the
// benchmark and build directories, in path order, and returns the first
// 16 hex digits of the SHA-256.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry just drops out of the digest
		}
		if d.IsDir() && (d.Name() == "perfbench" || d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(raw))
		h.Write(raw)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
