package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"mpcgraph"
)

// The deterministic result cache is content-addressed: its key is a
// SHA-256 digest of the canonical instance bytes plus the
// Workers-invariant solve options. Two properties make this sound:
//
//  1. Solve is a pure function of (instance, problem, model, seed, eps,
//     memory-factor, strict). Workers and Trace are excluded from the
//     key because the determinism contract guarantees bit-identical
//     Reports for every Workers setting, and tracing never changes
//     results (it only observes them).
//  2. The canonical instance bytes depend only on the logical graph —
//     vertex count, edge set, weights — not on how it was built. Every
//     reader reconstructs instances through the same order-insensitive
//     graph.Builder, so an instance digests identically whether it was
//     generated in-process from a scenario or round-tripped through any
//     on-disk format (pinned by digest_test.go, extending the
//     solvefile_test.go contract).
//
// The key hashes the instance digest rather than the instance bytes, so
// a request whose digest the resolve memo remembers (memo.go) is keyed
// without its graph.

// instanceDigestVersion tags the canonical byte layout; bump it if the
// layout ever changes so stale keys cannot alias fresh ones.
const instanceDigestVersion = "mpcgraph-instance-v1"

// cacheKeyVersion tags the key layout: v2 hashes the hex instance
// digest where v1 hashed the canonical instance bytes.
const cacheKeyVersion = "mpcgraph-key-v2"

// digestBufSize is the slab the canonical bytes stream through: large
// enough that the per-Write cost of the hash vanishes, small enough to
// stay in cache.
const digestBufSize = 64 << 10

// InstanceDigest returns the hex SHA-256 of the canonical byte
// rendering of in: the version tag, weightedness, n, m, then every
// undirected edge (u < v, lexicographic order) as little-endian int32
// pairs, each followed by its exact float64 weight bits when the
// instance is weighted. The bytes stream into the hash through one
// reused slab.
func InstanceDigest(in mpcgraph.Instance) (string, error) {
	var (
		g *mpcgraph.Graph
		w []float64 // edge weights in ForEachEdge order; nil when unweighted
	)
	switch x := in.(type) {
	case *mpcgraph.WeightedGraph:
		if x == nil {
			return "", fmt.Errorf("service: digest of nil instance")
		}
		g, w = x.Graph, x.W
	case *mpcgraph.Graph:
		if x == nil {
			return "", fmt.Errorf("service: digest of nil instance")
		}
		g = x
	default:
		return "", fmt.Errorf("service: digest of unsupported instance type %T", in)
	}

	h := sha256.New()
	buf := make([]byte, 0, digestBufSize)
	buf = append(buf, instanceDigestVersion...)
	if w != nil {
		buf = append(buf, "weighted"...)
	} else {
		buf = append(buf, "unweighted"...)
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(g.NumVertices()))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(g.NumEdges()))
	// The edge index numbers edges in exactly this (u, v) order, so the
	// k-th edge's weight is w[k].
	k := 0
	for u := int32(0); u < int32(g.NumVertices()); u++ {
		for _, v := range g.Neighbors(u) {
			if v <= u {
				continue
			}
			if len(buf)+16 > cap(buf) {
				h.Write(buf)
				buf = buf[:0]
			}
			buf = binary.LittleEndian.AppendUint32(buf, uint32(u))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
			if w != nil {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(w[k]))
				k++
			}
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// canonicalOptions are the solve options that determine a Report
// bit-for-bit. Workers and Trace are deliberately absent (see the
// package comment); Eps and MemoryFactor are resolved to their
// documented defaults so "unset" and "explicit default" share a key.
type canonicalOptions struct {
	Seed         uint64
	Eps          float64
	MemoryFactor float64
	Strict       bool
}

// canonicalize resolves the documented Solve defaults.
func canonicalize(opts mpcgraph.Options) canonicalOptions {
	c := canonicalOptions{
		Seed:         opts.Seed,
		Eps:          opts.Eps,
		MemoryFactor: opts.MemoryFactor,
		Strict:       opts.Strict,
	}
	if c.Eps <= 0 {
		c.Eps = 0.1
	}
	if c.MemoryFactor <= 0 {
		c.MemoryFactor = 16
	}
	return c
}

// CacheKey returns the content-addressed cache key of one solve: the
// hex SHA-256 over the instance digest (see InstanceDigest), the
// (problem, model) pair, and the canonicalized Workers-invariant
// options.
func CacheKey(in mpcgraph.Instance, p mpcgraph.Problem, m mpcgraph.Model, opts mpcgraph.Options) (string, error) {
	digest, err := InstanceDigest(in)
	if err != nil {
		return "", err
	}
	return cacheKey(digest, p, m, opts), nil
}

// cacheKey is CacheKey from an instance digest.
func cacheKey(digest string, p mpcgraph.Problem, m mpcgraph.Model, opts mpcgraph.Options) string {
	h := sha256.New()
	h.Write([]byte(cacheKeyVersion))
	h.Write([]byte(digest))
	c := canonicalize(opts)
	fmt.Fprintf(h, "|%s|%s|seed=%d|eps=%x|mem=%x|strict=%t",
		p, m, c.Seed, math.Float64bits(c.Eps), math.Float64bits(c.MemoryFactor), c.Strict)
	return hex.EncodeToString(h.Sum(nil))
}
