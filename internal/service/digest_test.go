package service

import (
	"path/filepath"
	"testing"

	"mpcgraph"
	"mpcgraph/internal/raceflag"
)

// Cache-key determinism (the service-cache acceptance criterion,
// extending the solvefile_test.go contract): the content-addressed
// digest depends only on the logical instance, so the same instance
// digests identically whether it was generated in-process or
// round-tripped through every compatible on-disk format — that is what
// lets a scenario submission share cache entries with an equivalent
// file upload.

// formatExts mirrors solvefile_test.go: one representative extension
// per format, including a gzip variant.
var formatExts = map[string]string{
	"el":     ".el",
	"wel":    ".wel",
	"dimacs": ".col",
	"metis":  ".graph",
	"mm":     ".mtx.gz",
}

func compatibleExts(in mpcgraph.Instance) []string {
	if _, weighted := in.(*mpcgraph.WeightedGraph); weighted {
		return []string{formatExts["wel"], formatExts["metis"], formatExts["mm"]}
	}
	return []string{formatExts["el"], formatExts["dimacs"], formatExts["metis"], formatExts["mm"]}
}

// TestInstanceDigestAcrossFormats: for every catalog scenario,
// in-process generation and every compatible format round trip must
// digest identically — and a different seed must not.
func TestInstanceDigestAcrossFormats(t *testing.T) {
	dir := t.TempDir()
	for _, name := range mpcgraph.Scenarios() {
		in, err := mpcgraph.GenerateScenario(name, 200, 31, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := InstanceDigest(in)
		if err != nil {
			t.Fatalf("%s: digest: %v", name, err)
		}
		// Negative control: a different instance must not collide. (A
		// different seed is not a valid control — several catalog recipes
		// are deterministic in n — but a different n always is.)
		other, err := mpcgraph.GenerateScenario(name, 190, 31, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		otherDigest, err := InstanceDigest(other)
		if err != nil {
			t.Fatalf("%s: digest: %v", name, err)
		}
		if otherDigest == want {
			t.Errorf("%s: different n digested identically (%s)", name, want)
		}
		for _, ext := range compatibleExts(in) {
			t.Run(name+"/"+ext, func(t *testing.T) {
				path := filepath.Join(dir, name+ext)
				if err := mpcgraph.WriteInstanceFile(path, in); err != nil {
					t.Fatalf("write: %v", err)
				}
				loaded, err := mpcgraph.ReadInstanceFile(path)
				if err != nil {
					t.Fatalf("read: %v", err)
				}
				got, err := InstanceDigest(loaded)
				if err != nil {
					t.Fatalf("digest: %v", err)
				}
				if got != want {
					t.Errorf("digest changed across %s round trip:\n in-process: %s\n via file:   %s", ext, want, got)
				}
			})
		}
	}
}

// TestCacheKeyInvariants pins what the key must and must not depend on.
func TestCacheKeyInvariants(t *testing.T) {
	in, err := mpcgraph.GenerateScenario("gnp", 200, 31, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := mpcgraph.Options{Seed: 7}
	key := func(opts mpcgraph.Options, p mpcgraph.Problem, m mpcgraph.Model) string {
		t.Helper()
		k, err := CacheKey(in, p, m, opts)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	ref := key(base, mpcgraph.ProblemMIS, mpcgraph.ModelMPC)

	// Workers and Trace are scheduling/observability only — the
	// determinism contract makes results bit-identical across them, so
	// they must not split the cache.
	withWorkers := base
	withWorkers.Workers = 7
	withWorkers.Trace = func(mpcgraph.TraceEvent) {}
	if got := key(withWorkers, mpcgraph.ProblemMIS, mpcgraph.ModelMPC); got != ref {
		t.Errorf("Workers/Trace changed the cache key")
	}

	// Unset options and their documented defaults share a key.
	explicit := base
	explicit.Eps = 0.1
	explicit.MemoryFactor = 16
	if got := key(explicit, mpcgraph.ProblemMIS, mpcgraph.ModelMPC); got != ref {
		t.Errorf("explicit defaults keyed differently from unset options")
	}

	// Everything that does determine the Report must split the key.
	distinct := map[string]string{"ref": ref}
	variants := map[string]func() string{
		"seed": func() string {
			o := base
			o.Seed = 8
			return key(o, mpcgraph.ProblemMIS, mpcgraph.ModelMPC)
		},
		"eps": func() string {
			o := base
			o.Eps = 0.25
			return key(o, mpcgraph.ProblemMIS, mpcgraph.ModelMPC)
		},
		"memoryFactor": func() string {
			o := base
			o.MemoryFactor = 8
			return key(o, mpcgraph.ProblemMIS, mpcgraph.ModelMPC)
		},
		"strict": func() string {
			o := base
			o.Strict = true
			return key(o, mpcgraph.ProblemMIS, mpcgraph.ModelMPC)
		},
		"problem": func() string { return key(base, mpcgraph.ProblemVertexCover, mpcgraph.ModelMPC) },
		"model":   func() string { return key(base, mpcgraph.ProblemMIS, mpcgraph.ModelCongestedClique) },
	}
	for field, mk := range variants {
		got := mk()
		for other, k := range distinct {
			if got == k {
				t.Errorf("varying %s collided with %s", field, other)
			}
		}
		distinct[field] = got
	}
}

// TestInstanceDigestPinned pins the canonical bytes: the hex digests of
// one small unweighted and one small weighted catalog instance. Cache
// keys on disk outlive the code that wrote them, so a refactor of the
// digest must not move these.
func TestInstanceDigestPinned(t *testing.T) {
	for _, tc := range []struct {
		scenario string
		want     string
	}{
		{"gnp", "fb4bc07c6e6094cef3e86b95c2938caf2cc40a702c6dc04669f9aad7f8a01d4f"},
		{"weighted-gnp", "7e7564a8dfacf782fe18b125120dea85fe6047f1b52f8fddd64490617e9a8d2f"},
	} {
		in, err := mpcgraph.GenerateScenario(tc.scenario, 200, 31, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := InstanceDigest(in)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%s n=200 seed=31: digest %s, pinned %s", tc.scenario, got, tc.want)
		}
	}
}

// TestInstanceDigestAllocsCeiling pins the digest to a constant number
// of allocations — the hash state, the one 64 KiB slab the canonical
// bytes stream through, and the hex result — independent of the edge
// count. Skipped under race: the race runtime allocates on its own
// behalf.
func TestInstanceDigestAllocsCeiling(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts differ under the race runtime")
	}
	for _, name := range []string{"gnp", "weighted-gnp"} {
		in, err := mpcgraph.GenerateScenario(name, 1<<12, 7, nil)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := InstanceDigest(in); err != nil {
				t.Fatal(err)
			}
		})
		const ceiling = 8
		if allocs > ceiling {
			t.Errorf("InstanceDigest(%s): %.0f allocs/op, ceiling %d", name, allocs, ceiling)
		}
	}
}
