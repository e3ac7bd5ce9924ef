package service

import (
	"context"
	"sync/atomic"
	"testing"

	"mpcgraph"
)

// TestInvalidResultIsNeitherCachedNorServed feeds the daemon's result
// check a tampered vertex cover through the solve seam. The leader and
// the rider coalesced onto its flight both fail with the check's error,
// neither cache tier keeps the result, no solution is served, and a
// resubmission misses both tiers and solves again.
func TestInvalidResultIsNeitherCachedNorServed(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, CacheDir: t.TempDir()})
	var tamper atomic.Bool
	tamper.Store(true)
	release := make(chan struct{})
	// Set before the first submission: the queue hand-off orders this
	// write before the worker's read.
	s.solve = func(ctx context.Context, in mpcgraph.Instance, p mpcgraph.Problem, opts mpcgraph.Options) (*mpcgraph.Report, error) {
		rep, err := mpcgraph.Solve(ctx, in, p, opts)
		if err == nil && tamper.Load() {
			<-release // hold the flight open until the rider has attached
			clear(rep.InCover)
		}
		return rep, err
	}
	req := &JobRequest{
		Problem:  "vertex-cover",
		Scenario: &ScenarioRequest{Name: "gnp", N: 200, Seed: 5},
		Options:  OptionsRequest{Seed: 5},
	}
	submit := func() *JobView {
		resp, data := postJSON(t, ts.URL+"/v1/jobs", req)
		if resp.StatusCode != 201 && resp.StatusCode != 200 {
			t.Fatalf("submit: %s: %s", resp.Status, data)
		}
		return decodeView(t, data)
	}
	leader := submit()
	rider := submit()
	if !rider.Coalesced {
		t.Fatalf("second submission did not coalesce: %+v", rider)
	}
	close(release)

	const want = "registry: vertex-cover/mpc output is not a vertex cover of the instance"
	for _, id := range []string{leader.ID, rider.ID} {
		v := awaitTerminal(t, ts.URL, id)
		if v.State != StateFailed || v.Error != want {
			t.Errorf("job %s: state %s, error %q; want failed with %q", id, v.State, v.Error, want)
		}
		if v.Report != nil {
			t.Errorf("job %s: failed job carries a report", id)
		}
		if resp, _ := getBody(t, ts.URL+"/v1/jobs/"+id+"/solution"); resp.StatusCode != 409 {
			t.Errorf("job %s: GET solution: %s, want 409", id, resp.Status)
		}
	}
	if _, ok := s.cache.memGet(leader.CacheKey); ok {
		t.Error("the invalid result reached the memory tier")
	}
	if _, ok := s.cache.disk.Get(leader.CacheKey); ok {
		t.Error("the invalid result reached the disk tier")
	}

	tamper.Store(false)
	again := awaitTerminal(t, ts.URL, submit().ID)
	if again.State != StateDone || again.CacheHit || again.CacheTier != TierNone {
		t.Fatalf("resubmission: state %s, cacheHit %v, tier %s (%s); want a fresh solve",
			again.State, again.CacheHit, again.CacheTier, again.Error)
	}
	s.mu.Lock()
	solves := s.solves
	s.mu.Unlock()
	if solves != 2 {
		t.Errorf("%d solves, want 2: the failed flight and the resubmission", solves)
	}
	if _, ok := s.cache.memGet(leader.CacheKey); !ok {
		t.Error("the valid result was not cached")
	}
}
