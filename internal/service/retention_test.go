package service

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"mpcgraph"
	"mpcgraph/internal/graphio"
	"mpcgraph/internal/raceflag"
)

// heapInuseAfterGC returns the heap in use once garbage is collected.
func heapInuseAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// TestHitJobsRetainNoInstance: a retained cache-hit job keeps its
// record, not its graph. After one cold solve of a 2¹⁶-vertex scenario,
// 200 memory hits on the scenario and 200 on an upload of the same
// graph must leave the heap within a few MiB of where the first hit
// left it, where holding one graph per job would add about 2 MiB a job.
// Skipped under race: the race runtime allocates on its own behalf.
func TestHitJobsRetainNoInstance(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("heap accounting differs under the race runtime")
	}
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(5 * time.Second)

	const n, seed = 1 << 16, 12
	scen := &JobRequest{Problem: "mis", Scenario: &ScenarioRequest{Name: "gnp", N: n, Seed: seed},
		Options: OptionsRequest{Seed: seed}}
	in, err := mpcgraph.GenerateScenario("gnp", n, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	var el bytes.Buffer
	if err := graphio.WriteEdgeList(&el, in.(*mpcgraph.Graph)); err != nil {
		t.Fatal(err)
	}
	upload := &JobRequest{Problem: "mis", Graph: &GraphRequest{Format: "el", Content: el.String()},
		Options: OptionsRequest{Seed: seed}}
	in, el = nil, bytes.Buffer{}

	cold, _, err := s.submit(scen)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for !cold.terminal() {
		if time.Now().After(deadline) {
			t.Fatal("cold solve did not finish")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if v := cold.view(); v.State != StateDone {
		t.Fatalf("cold solve: %s (%s)", v.State, v.Error)
	}

	hit := func(req *JobRequest) {
		t.Helper()
		j, _, err := s.submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if v := j.view(); !v.CacheHit || v.CacheTier != TierMemory {
			t.Fatalf("job %s: cacheHit %v tier %q, want a memory hit", v.ID, v.CacheHit, v.CacheTier)
		}
	}
	hit(scen)
	base := heapInuseAfterGC()
	const hits, slack = 200, 8 << 20
	check := func(what string, done int) {
		t.Helper()
		if got := heapInuseAfterGC(); got > base+slack {
			t.Fatalf("after %d %s hits the heap grew by %.1f MiB (slack %d MiB)",
				done, what, float64(got-base)/(1<<20), slack>>20)
		}
	}
	for i := 2; i <= hits; i++ {
		hit(scen)
		if i%50 == 0 {
			check("scenario", i)
		}
	}
	for i := 1; i <= hits; i++ {
		hit(upload)
		if i%50 == 0 {
			check("upload", i)
		}
	}
}
