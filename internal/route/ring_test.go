package route

// Deterministic rendezvous-ring tests: stable ranking, and the key-
// movement bound that justifies the design — membership changes move
// only the keys the changed backend owned (≈ K/N), everything else
// stays put and keeps its hot engine cache.

import (
	"fmt"
	"testing"
)

func testBackends(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://10.0.0.%d:9100", i+1)
	}
	return out
}

func testKeys(n int) []string {
	out := make([]string, n)
	for i := range out {
		// Routing keys are sha256 spec hashes in production; any
		// distinct strings exercise the same code path.
		out[i] = fmt.Sprintf("spec-hash-%04d", i)
	}
	return out
}

func TestRankIsDeterministicPermutation(t *testing.T) {
	backends := testBackends(5)
	for _, key := range testKeys(50) {
		a := Rank(backends, key)
		b := Rank(backends, key)
		if len(a) != len(backends) {
			t.Fatalf("Rank returned %d backends, want %d", len(a), len(backends))
		}
		seen := make(map[string]bool, len(a))
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("Rank not deterministic for %q: %v vs %v", key, a, b)
			}
			seen[a[i]] = true
		}
		if len(seen) != len(backends) {
			t.Fatalf("Rank for %q is not a permutation: %v", key, a)
		}
	}
}

func TestRankSpreadsKeys(t *testing.T) {
	backends := testBackends(4)
	keys := testKeys(2000)
	counts := make(map[string]int)
	for _, key := range keys {
		counts[Rank(backends, key)[0]]++
	}
	// Perfectly uniform would be 500 each; demand every backend gets a
	// real share (the bound is loose — this guards against a degenerate
	// hash, not statistical wobble).
	for _, b := range backends {
		if counts[b] < len(keys)/8 {
			t.Errorf("backend %s owns only %d of %d keys: %v", b, counts[b], len(keys), counts)
		}
	}
}

// TestKeyMovementOnRemoval pins the consistency property: removing one
// backend moves exactly the keys it owned — every other key keeps its
// owner, so at most K/N keys move.
func TestKeyMovementOnRemoval(t *testing.T) {
	backends := testBackends(4)
	keys := testKeys(2000)
	removed := backends[1]
	remaining := append(append([]string(nil), backends[:1]...), backends[2:]...)

	moved := 0
	for _, key := range keys {
		before := Rank(backends, key)[0]
		after := Rank(remaining, key)[0]
		if before != removed && before != after {
			t.Fatalf("key %q moved from surviving backend %s to %s", key, before, after)
		}
		if before == removed {
			moved++
		}
	}
	// The removed backend owned ≈ K/N = 500 keys; allow generous slack.
	if lo, hi := len(keys)/8, len(keys)/2; moved < lo || moved > hi {
		t.Errorf("removal moved %d of %d keys, want roughly K/N=%d (bounds %d..%d)",
			moved, len(keys), len(keys)/len(backends), lo, hi)
	}
}

// TestKeyMovementOnAddition is the dual: a key only moves when the new
// backend is its new owner, so growth steals ≈ K/(N+1) keys and leaves
// the rest pinned.
func TestKeyMovementOnAddition(t *testing.T) {
	backends := testBackends(3)
	keys := testKeys(2000)
	added := "http://10.0.0.9:9100"
	grown := append(append([]string(nil), backends...), added)

	moved := 0
	for _, key := range keys {
		before := Rank(backends, key)[0]
		after := Rank(grown, key)[0]
		if before != after {
			if after != added {
				t.Fatalf("key %q moved to %s, not the added backend", key, after)
			}
			moved++
		}
	}
	if lo, hi := len(keys)/8, len(keys)/2; moved < lo || moved > hi {
		t.Errorf("addition moved %d of %d keys, want roughly K/(N+1)=%d (bounds %d..%d)",
			moved, len(keys), len(keys)/len(grown), lo, hi)
	}
}

// TestFailoverOrderStable: for any key, dropping its owner promotes
// the key's second choice — the failover order is the rank order.
func TestFailoverOrderStable(t *testing.T) {
	backends := testBackends(4)
	for _, key := range testKeys(200) {
		rank := Rank(backends, key)
		without := make([]string, 0, len(backends)-1)
		for _, b := range backends {
			if b != rank[0] {
				without = append(without, b)
			}
		}
		if got := Rank(without, key)[0]; got != rank[1] {
			t.Fatalf("key %q: owner after losing %s is %s, want second choice %s",
				key, rank[0], got, rank[1])
		}
	}
}
