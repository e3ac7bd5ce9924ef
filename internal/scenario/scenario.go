// Package scenario is the declarative workload catalog behind the
// mpcgraph CLI: a named table of generator recipes, each parameterized
// by (n, seed, params), enumerable exactly like the algorithm registry
// so new workloads appear in `mpcgraph list`, `mpcgraph gen` and the
// round-trip test matrix with no further wiring.
//
// A scenario is a pure function of its inputs: the same (name, n, seed,
// params) triple always materializes the bit-identical instance, on
// every machine and for every Workers setting, because generation flows
// through the deterministic rng.Source and the order-insensitive
// graph.Builder. That is the contract the CLI's cost-reproducibility
// guarantee rests on: solving a scenario generated in-process and
// solving the same scenario round-tripped through any on-disk format
// yield identical Reports.
package scenario

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"mpcgraph/internal/graph"
	"mpcgraph/internal/rng"
)

// Param documents one tunable of a scenario with its default value.
type Param struct {
	// Key is the name accepted by Generate's params map and the CLI's
	// -param flag.
	Key string
	// Default is the value used when the key is absent.
	Default float64
	// Doc is a one-line description shown by `mpcgraph list`.
	Doc string
}

// Scenario is one catalog entry: a named, parameterized generator
// recipe.
type Scenario struct {
	// Name is the stable catalog key (kebab-case).
	Name string
	// Doc is a one-line description shown by `mpcgraph list`.
	Doc string
	// Weighted marks recipes that produce weighted instances (solvable
	// by WeightedMatching, writable only to weight-capable formats).
	Weighted bool
	// DefaultN is the vertex count used when the caller passes n <= 0.
	DefaultN int
	// Params documents the accepted parameter keys in display order.
	Params []Param

	// generate materializes the instance. n is positive and params has
	// every key of Params resolved (defaults applied, no unknown keys).
	generate func(n int, src *rng.Source, p map[string]float64) (*graph.Graph, *graph.Weighted, error)
}

// Instance is a materialized scenario: the graph plus the weighted view
// when the recipe is weighted.
type Instance struct {
	G  *graph.Graph
	WG *graph.Weighted
}

var catalog = map[string]*Scenario{}

// register installs a scenario; duplicates are programming errors.
func register(s Scenario) {
	if _, dup := catalog[s.Name]; dup {
		panic(fmt.Sprintf("scenario: duplicate catalog entry %q", s.Name))
	}
	catalog[s.Name] = &s
}

// Names enumerates the catalog in sorted order — the same table the CLI
// listing, the public mpcgraph.Scenarios and the round-trip tests
// iterate.
func Names() []string {
	out := make([]string, 0, len(catalog))
	for name := range catalog {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Lookup returns the catalog entry for name.
func Lookup(name string) (*Scenario, bool) {
	s, ok := catalog[name]
	return s, ok
}

// Generate materializes the named scenario. n <= 0 selects the
// scenario's default size; params may override any documented key and
// unknown keys are rejected. The result is deterministic in
// (name, n, seed, params).
func Generate(name string, n int, seed uint64, params map[string]float64) (*Instance, error) {
	r, err := Resolve(name, n, seed, params)
	if err != nil {
		return nil, err
	}
	return r.Generate()
}

// Resolved is a scenario request with every default applied: a positive
// n and a value for every documented parameter, nothing else. Generate
// is a pure function of it, so two requests that resolve to equal
// values describe the same instance.
type Resolved struct {
	Scenario *Scenario
	N        int
	Seed     uint64
	Params   map[string]float64
}

// Resolve validates a request for the named scenario without generating
// it: it applies the default n and the parameter defaults and rejects
// unknown or non-finite parameters — every check Generate makes before
// it runs the generator.
func Resolve(name string, n int, seed uint64, params map[string]float64) (*Resolved, error) {
	s, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("scenario: unknown scenario %q (known: %s)", name, strings.Join(Names(), ", "))
	}
	if n <= 0 {
		n = s.DefaultN
	}
	resolved := make(map[string]float64, len(s.Params))
	for _, p := range s.Params {
		resolved[p.Key] = p.Default
	}
	// Overrides apply in sorted key order so that, when several keys are
	// invalid, the reported error is a deterministic function of the
	// input — not of Go's randomized map iteration.
	overrides := make([]string, 0, len(params))
	for key := range params {
		overrides = append(overrides, key)
	}
	sort.Strings(overrides)
	for _, key := range overrides {
		v := params[key]
		if _, ok := resolved[key]; !ok {
			keys := make([]string, 0, len(s.Params))
			for _, p := range s.Params {
				keys = append(keys, p.Key)
			}
			if len(keys) == 0 {
				return nil, fmt.Errorf("scenario: %s takes no parameters, got %q", s.Name, key)
			}
			return nil, fmt.Errorf("scenario: %s has no parameter %q (accepted: %s)", s.Name, key, strings.Join(keys, ", "))
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("scenario: %s parameter %q = %v is not finite", s.Name, key, v)
		}
		resolved[key] = v
	}
	return &Resolved{Scenario: s, N: n, Seed: seed, Params: resolved}, nil
}

// Generate runs the recipe's generator on the resolved request.
func (r *Resolved) Generate() (*Instance, error) {
	s := r.Scenario
	g, wg, err := s.generate(r.N, rng.New(r.Seed), r.Params)
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", s.Name, err)
	}
	if wg != nil {
		return &Instance{G: wg.Graph, WG: wg}, nil
	}
	return &Instance{G: g}, nil
}

// posInt validates a parameter as a positive integer-valued float and
// returns it as int.
func posInt(key string, v float64) (int, error) {
	if v < 1 || v != math.Trunc(v) || v > 1<<31-1 {
		return 0, fmt.Errorf("parameter %q = %v must be a positive integer", key, v)
	}
	return int(v), nil
}
