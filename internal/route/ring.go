package route

// Rendezvous (highest-random-weight) hashing assigns each routing key
// a full preference order over the backend set: every (backend, key)
// pair gets a pseudo-random score and backends are ranked by score.
// The property that matters for the fleet is minimal movement — when a
// backend joins or leaves, only the keys whose top-ranked backend
// changed move (in expectation K/N of them), so the per-backend engine
// caches stay hot across membership churn. Unlike a ring of virtual
// nodes there is no placement table to rebuild and no tuning knob.

import (
	"hash/fnv"
	"sort"
)

// score is the rendezvous weight of backend for key: fnv64a over the
// backend name, a NUL separator, and the key, pushed through a 64-bit
// avalanche finalizer. Raw fnv sums of near-identical strings are
// strongly correlated, which skews the ownership split; the mix step
// (Murmur3's fmix64) restores an even spread for any key shape.
func score(backend, key string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(backend))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(key))
	return mix(h.Sum64())
}

func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Rank returns the backends ordered by descending rendezvous score for
// key — the key's owner first, then its failover order. Ties (which
// need a 64-bit hash collision) break by name so the order is total
// and deterministic. The input slice is not modified.
func Rank(backends []string, key string) []string {
	type scored struct {
		name string
		s    uint64
	}
	ss := make([]scored, len(backends))
	for i, b := range backends {
		ss[i] = scored{b, score(b, key)}
	}
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].s != ss[j].s {
			return ss[i].s > ss[j].s
		}
		return ss[i].name < ss[j].name
	})
	out := make([]string, len(ss))
	for i, sc := range ss {
		out[i] = sc.name
	}
	return out
}
