package service

import (
	"fmt"
	"testing"

	"mpcgraph"
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
