package shard

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// The routing function must agree with the canonical published FNV-1a
// algorithm (stdlib hash/fnv) followed by the fixed splitmix64 mix:
// that is what makes routing deterministic across processes, machines,
// and releases — any two routers with the same shard count agree on
// every id with no coordination.
func TestRouterHashMatchesCanonicalFNV(t *testing.T) {
	for i := 0; i < 500; i++ {
		s := fmt.Sprintf("txn-%d-%c", i*7919, 'a'+byte(i%26))
		h := fnv.New64a()
		h.Write([]byte(s)) //nolint:errcheck // never fails
		if got, want := ringHash(s), mix64(h.Sum64()); got != want {
			t.Fatalf("ringHash(%q) = %#x, stdlib FNV + mix says %#x", s, got, want)
		}
	}
}

// TestRingHashPinnedValues pins the hash byte-for-byte: the ring is
// wire-adjacent (cross-process routers must agree), so the function may
// never silently change.
func TestRingHashPinnedValues(t *testing.T) {
	for _, s := range []string{"", "txn-1", "shard-3-vnode-17"} {
		if got, want := ringHash(s), fnvSplitmix(s); got != want {
			t.Errorf("ringHash(%q) = %#x, want %#x", s, got, want)
		}
	}
	// And one literal anchor so a change to *both* implementations is
	// still caught: FNV-1a("a") = 0xaf63dc4c8601ec8c, mixed.
	if got, want := ringHash("a"), uint64(0x2c0bdbf481420f8); got != want {
		t.Errorf("ringHash(\"a\") = %#x, want %#x", got, want)
	}
}

// fnvSplitmix is an independent re-derivation used only by the test.
func fnvSplitmix(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	z := h
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func TestRouterDeterministicAcrossInstances(t *testing.T) {
	a, err := NewRouter(5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRouter(5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		id := fmt.Sprintf("txn-%d", i)
		if a.Route(id) != b.Route(id) {
			t.Fatalf("routers disagree on %q: %d vs %d", id, a.Route(id), b.Route(id))
		}
	}
}

func TestRouterBalance(t *testing.T) {
	const shards, ids = 4, 1000
	r, err := NewRouter(shards)
	if err != nil {
		t.Fatal(err)
	}
	load := make([]int, shards)
	for i := 0; i < ids; i++ {
		load[r.Route(fmt.Sprintf("txn-%d", i))]++
	}
	min, max := load[0], load[0]
	for _, l := range load[1:] {
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	if min == 0 {
		t.Fatalf("a shard got zero load: %v", load)
	}
	if ratio := float64(max) / float64(min); ratio > 2.0 {
		t.Errorf("max/min shard load ratio = %.2f (> 2.0): %v", ratio, load)
	}
}

// Consistent hashing's defining property: growing N shards to N+1 moves
// at most ~1/(N+1) of the keyspace — only the ids the new shard takes
// over. Anything that rehashed mod-N would move (N-1)/N of them.
func TestRouterRemapFractionOnShardAdd(t *testing.T) {
	const before, ids = 4, 10000
	old, err := NewRouter(before)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := NewRouter(before + 1)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := 0; i < ids; i++ {
		id := fmt.Sprintf("txn-%d", i)
		o, n := old.Route(id), grown.Route(id)
		if o != n {
			if n != before {
				t.Fatalf("id %q moved %d→%d, not to the new shard %d", id, o, n, before)
			}
			moved++
		}
	}
	if frac := float64(moved) / float64(ids); frac > 1.0/float64(before) {
		t.Errorf("remap fraction = %.3f, want <= 1/%d = %.3f", frac, before, 1.0/float64(before))
	}
	if moved == 0 {
		t.Error("no ids moved to the new shard; ring looks broken")
	}
}

func TestRouteKeys(t *testing.T) {
	r, err := NewRouter(4)
	if err != nil {
		t.Fatal(err)
	}
	// No keys: the id's own shard, exactly one participant.
	if got := r.RouteKeys("txn-1", nil); len(got) != 1 || got[0] != r.Route("txn-1") {
		t.Fatalf("RouteKeys(no keys) = %v, want [%d]", got, r.Route("txn-1"))
	}
	// Keys spanning shards: deduplicated, sorted, id itself ignored.
	keys := []string{"k-a", "k-b", "k-c", "k-a"}
	got := r.RouteKeys("txn-2", keys)
	seen := map[int]bool{}
	for i, s := range got {
		if s < 0 || s >= 4 {
			t.Fatalf("shard %d out of range", s)
		}
		if seen[s] {
			t.Fatalf("duplicate shard %d in %v", s, got)
		}
		seen[s] = true
		if i > 0 && got[i-1] > s {
			t.Fatalf("unsorted shard set %v", got)
		}
	}
	for _, k := range keys {
		if !seen[r.Route(k)] {
			t.Fatalf("key %q's shard %d missing from %v", k, r.Route(k), got)
		}
	}
}

func TestRouterRejectsBadConfig(t *testing.T) {
	if _, err := NewRouter(0); err == nil {
		t.Error("NewRouter(0) succeeded")
	}
}
