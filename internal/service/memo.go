package service

import (
	"crypto/sha256"
	"fmt"
	"math"
	"sort"
	"strings"

	"mpcgraph"
	"mpcgraph/internal/graphio"
	"mpcgraph/internal/scenario"
)

// The resolve memo maps a request's instance spec to what the daemon
// must know of the instance without holding it: its digest, n, m and
// weightedness. A repeated request therefore reaches place — memory
// probe, coalescing, disk probe, enqueue — without generating, parsing
// or hashing its graph, and the graph is built only for a leader that
// has to solve it.
//
// The spec is a memo key, never a cache key. It names exactly the
// inputs that determine the instance — a scenario's resolved name, n,
// seed and params, or an upload's format plus the SHA-256 of its
// decoded bytes — so a memo hit is never wrong. Two encodings of one
// graph take two memo entries that point at one digest, and so at one
// cache entry.
//
// The memo is bounded by Config.CacheEntries like the memory result
// tier, but the two hold separate entries. It is not persisted: after a
// restart the first request for each spec builds and hashes its
// instance once more.

// instanceInfo is the resolve memo's value.
type instanceInfo struct {
	digest   string // InstanceDigest
	n, m     int
	weighted bool
}

// scenarioSpec renders a resolved scenario request as its instance
// spec: the name, n and seed, then every parameter in sorted key order
// with its exact float bits — so a request that omits a parameter and
// one that spells out its default share one spec.
func scenarioSpec(r *scenario.Resolved) string {
	keys := make([]string, 0, len(r.Params))
	for k := range r.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "scenario|%s|n=%d|seed=%d", r.Scenario.Name, r.N, r.Seed)
	for _, k := range keys {
		fmt.Fprintf(&b, "|%s=%x", k, math.Float64bits(r.Params[k]))
	}
	return b.String()
}

// uploadSpec renders an upload as its instance spec: the canonical
// format name and the SHA-256 of its bytes, which are text or raw (the
// other one is empty).
func uploadSpec(f graphio.Format, text string, raw []byte) string {
	h := sha256.New()
	h.Write(raw)
	// Text streams through a slab rather than one []byte copy of the
	// whole upload.
	var slab [16 << 10]byte
	for len(text) > 0 {
		n := copy(slab[:], text)
		h.Write(slab[:n])
		text = text[n:]
	}
	return fmt.Sprintf("upload|%s|sha256=%x", f, h.Sum(nil))
}

// resolveInstance returns the instance record of a resolved request,
// from the memo or by building and hashing the instance — which it then
// returns too, so a leader need not build it twice (nil after a memo
// hit). noCache skips the lookup, since the job builds its instance
// anyway, and refreshes the entry. Only successful resolutions enter
// the memo, so every failure repeats with its original error.
func (s *Server) resolveInstance(r *resolvedRequest, noCache bool) (instanceInfo, mpcgraph.Instance, error) {
	if !noCache {
		if info, ok := s.memo.Get(r.spec); ok {
			return info, nil, nil
		}
	}
	in, err := r.build()
	if err != nil {
		return instanceInfo{}, nil, err
	}
	digest, err := InstanceDigest(in)
	if err != nil {
		return instanceInfo{}, nil, err
	}
	_, weighted := in.(*mpcgraph.WeightedGraph)
	info := instanceInfo{digest: digest, n: in.NumVertices(), m: in.NumEdges(), weighted: weighted}
	s.memo.Put(r.spec, info)
	return info, in, nil
}
