package service

import (
	"fmt"
	"runtime"
	"testing"

	"mpcgraph"
	"mpcgraph/internal/raceflag"
)

func dummyReport(i int) *mpcgraph.Report {
	return &mpcgraph.Report{Rounds: i}
}

// TestResultCacheLRU pins the eviction order, the recency update on Get,
// and the stats counters.
func TestResultCacheLRU(t *testing.T) {
	c := newLRU[*mpcgraph.Report](2)
	c.Put("a", dummyReport(1))
	c.Put("b", dummyReport(2))
	if _, ok := c.Get("a"); !ok { // refresh a: b is now the LRU entry
		t.Fatal("a missing")
	}
	c.Put("c", dummyReport(3)) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction")
	}
	if rep, ok := c.Get("a"); !ok || rep.Rounds != 1 {
		t.Error("a lost or corrupted")
	}
	if rep, ok := c.Get("c"); !ok || rep.Rounds != 3 {
		t.Error("c lost or corrupted")
	}

	// Re-putting an existing key keeps the first report (determinism
	// makes them interchangeable) and does not grow the cache.
	c.Put("c", dummyReport(99))
	if rep, _ := c.Get("c"); rep.Rounds != 3 {
		t.Error("re-put replaced the cached report")
	}

	st := c.Stats()
	if st.Entries != 2 || st.Capacity != 2 || st.Evictions != 1 {
		t.Errorf("stats %+v", st)
	}
	if st.Hits != 4 || st.Misses != 1 {
		t.Errorf("hits/misses %d/%d, want 4/1", st.Hits, st.Misses)
	}
}

// TestResultCacheDisabled: a negative capacity disables caching.
func TestResultCacheDisabled(t *testing.T) {
	c := newLRU[*mpcgraph.Report](-1)
	c.Put("a", dummyReport(1))
	if _, ok := c.Get("a"); ok {
		t.Error("disabled cache stored an entry")
	}
	if st := c.Stats(); st.Entries != 0 || st.Misses != 1 {
		t.Errorf("stats %+v", st)
	}
}

// TestResultCacheBounded: the cache never exceeds its capacity under a
// key churn far beyond it.
func TestResultCacheBounded(t *testing.T) {
	c := newLRU[*mpcgraph.Report](8)
	for i := 0; i < 100; i++ {
		c.Put(fmt.Sprintf("k%d", i), dummyReport(i))
	}
	st := c.Stats()
	if st.Entries != 8 {
		t.Errorf("entries %d, want 8", st.Entries)
	}
	if st.Evictions != 92 {
		t.Errorf("evictions %d, want 92", st.Evictions)
	}
}

// TestJobViewCostDoesNotGrowWithN holds the view of a settled matching
// job to allocations that do not grow with n, in count or in bytes: the
// solution hash is computed once, when the result enters the memory
// tier, so a view formats no payload (hashing a matching used to copy
// its edge list on every view).
func TestJobViewCostDoesNotGrowWithN(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts differ under the race runtime")
	}
	s, ts := newTestServer(t, Config{})
	cost := func(n int) (allocs, bytes float64) {
		v := submitWait(t, ts.URL, &JobRequest{Problem: "maximal-matching", Scenario: &ScenarioRequest{Name: "gnp", N: n, Seed: 1}})
		if v.State != StateDone || v.Report == nil || v.Report.SolutionHash == "" {
			t.Fatalf("n=%d: job %s settled %s without a hashed report", n, v.ID, v.State)
		}
		j, ok := s.lookup(v.ID)
		if !ok {
			t.Fatalf("job %s not retained", v.ID)
		}
		const runs = 50
		allocs = testing.AllocsPerRun(runs, func() { _ = j.view() })
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			_ = j.view()
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	smallAllocs, smallBytes := cost(256)
	largeAllocs, largeBytes := cost(8192)
	if largeAllocs > smallAllocs || largeBytes > smallBytes+256 {
		t.Fatalf("view of a settled matching: %.0f allocs, %.0f B at n=256; %.0f allocs, %.0f B at n=8192",
			smallAllocs, smallBytes, largeAllocs, largeBytes)
	}
}
