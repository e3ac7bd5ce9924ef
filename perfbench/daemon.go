package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"mpcgraph/internal/service"
)

// bootDaemon starts mpcgraphd with its defaults plus a cache dir, logging
// to a file in the run's temp dir.
func bootDaemon(rc *runCtx, cacheDir, name string) (*daemon, *client, error) {
	d, err := startDaemon(rc.ctx, rc.binPath("mpcgraphd"), []string{"-cache-dir", cacheDir}, rc.env,
		filepath.Join(rc.tmp, name+".log"))
	if err != nil {
		return nil, nil, err
	}
	return d, newClient(d.URL), nil
}

// daemonHostWarmup is the untimed host warm-up of the daemon workloads:
// one boot, health check and drain pages the binary in before any
// set-up is timed. The daemon prints its listen line before it installs
// its SIGTERM handler, so it is drained only once it has answered.
func daemonHostWarmup(rc *runCtx) error {
	d, cl, err := bootDaemon(rc, filepath.Join(rc.tmp, "warm-cache"), "warm-daemon")
	if err != nil {
		return err
	}
	defer d.kill()
	if _, err := cl.get("/healthz"); err != nil {
		return err
	}
	stopDaemon(rc, d, cl)
	return nil
}

// stopDaemon drains a daemon and records a failed drain.
func stopDaemon(rc *runCtx, d *daemon, cl *client) {
	cl.close()
	if err := d.stop(); err != nil {
		rc.fail("%v", err)
	}
}

// probe is a point-in-time reading of a daemon: its /metrics and its CPU
// time.
type probe struct {
	m   scrape
	cpu time.Duration
}

func probeDaemon(d *daemon, cl *client) (probe, error) {
	m, err := cl.metrics()
	if err != nil {
		return probe{}, err
	}
	cpu, err := procCPU(d.Pid())
	if err != nil {
		return probe{}, err
	}
	return probe{m: m, cpu: cpu}, nil
}

// encode renders a job request body once, before any window.
func encode(req service.JobRequest) []byte {
	raw, err := json.Marshal(req)
	if err != nil {
		panic(err) // a JobRequest always encodes
	}
	return raw
}

// lastPhase is the offset of the latest lifecycle stamp in a view: what
// the daemon's phase table accounts for by the time the view was taken.
func lastPhase(v *service.JobView) time.Duration {
	var last float64
	if v != nil && v.Timings != nil {
		for _, p := range v.Timings.Phases {
			last = max(last, p.AtMs)
		}
	}
	return time.Duration(last * float64(time.Millisecond))
}

// phaseAt is the offset of one named phase, and whether it was stamped.
func phaseAt(v *service.JobView, name string) (time.Duration, bool) {
	if v == nil || v.Timings == nil {
		return 0, false
	}
	for _, p := range v.Timings.Phases {
		if p.Phase == name {
			return time.Duration(p.AtMs * float64(time.Millisecond)), true
		}
	}
	return 0, false
}

// probeDur is a view's cache-probe duration on one tier.
func probeDur(v *service.JobView, tier string) (time.Duration, bool) {
	if v == nil || v.Timings == nil {
		return 0, false
	}
	for _, p := range v.Timings.CacheProbes {
		if p.Tier == tier {
			return time.Duration(p.DurMs * float64(time.Millisecond)), true
		}
	}
	return 0, false
}

// daemonLayers records the per-layer metrics both daemon workloads read
// from /metrics deltas: GC cost per op, heap in use at the end, and the
// cache and solve counters.
func daemonLayers(rc *runCtx, before, after scrape, ops, rejected int) {
	n := float64(max(1, ops))
	rc.setLayer("daemon.heap_inuse_mib", bytesToMiB(after.HeapInuse))
	rc.setLayer("daemon.gc_cycles_per_op", (after.GCCycles-before.GCCycles)/n)
	rc.setLayer("daemon.gc_pause_ms_per_op", (after.GCPauseS-before.GCPauseS)*1000/n)
	rc.setLayer("daemon.solves", after.Solves-before.Solves)
	rc.setLayer("daemon.coalesced", after.Coalesced-before.Coalesced)
	hm, hd := after.HitsMem-before.HitsMem, after.HitsDisk-before.HitsDisk
	rc.setLayer("daemon.hits.memory", hm)
	rc.setLayer("daemon.hits.disk", hd)
	rc.setLayer("daemon.hit_frac", (hm+hd)/n)
	rc.setLayer("daemon.rejected", float64(rejected))
	rc.setLayer("daemon.persist_ms", after.DiskOp["write"].meanMsSince(before.DiskOp["write"]))
	rc.setLayer("daemon.disk_read_ms", after.DiskOp["read"].meanMsSince(before.DiskOp["read"]))
}

// sumScrape adds the counter deltas of one daemon lifetime (after minus
// before) to acc, so several lifetimes read as one window.
func sumScrape(acc *scrape, before, after scrape) {
	acc.Solves += after.Solves - before.Solves
	acc.Coalesced += after.Coalesced - before.Coalesced
	acc.HitsMem += after.HitsMem - before.HitsMem
	acc.HitsDisk += after.HitsDisk - before.HitsDisk
	acc.GCCycles += after.GCCycles - before.GCCycles
	acc.GCPauseS += after.GCPauseS - before.GCPauseS
	if acc.DiskOp == nil {
		acc.DiskOp = map[string]histSum{}
	}
	for op, h := range after.DiskOp {
		b := before.DiskOp[op]
		a := acc.DiskOp[op]
		acc.DiskOp[op] = histSum{a.Sum + h.Sum - b.Sum, a.Count + h.Count - b.Count}
	}
}

// msOf converts durations to fractional milliseconds.
func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// checkState reports a job that did not settle done with a report.
func checkState(v *service.JobView) error {
	if v == nil {
		return fmt.Errorf("no job view")
	}
	if v.State != service.StateDone || v.Report == nil {
		return fmt.Errorf("job %s settled %s (error %q)", v.ID, v.State, v.Error)
	}
	return nil
}
