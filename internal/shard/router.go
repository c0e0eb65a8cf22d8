// Package shard scales the single commit group of the paper's Protocol 2
// out to many: a consistent-hash router maps transactions (or their key
// sets) onto N independent Protocol-2 groups, and a CrossShardCoordinator
// runs transactions that span several groups as a two-layer
// commit-of-commits in the style of Gray & Lamport's Paxos Commit — each
// shard's fault-tolerant group acts as one "resource manager" whose
// prepare verdict is itself a t<n/2 non-blocking consensus decision, so
// cross-shard atomicity inherits the paper's guarantees instead of
// reintroducing classic 2PC blocking.
package shard

import (
	"fmt"
	"sort"
	"strconv"
)

// DefaultVnodes is the number of virtual ring points per shard. 128
// points keeps the max/min shard-load ratio under ~1.5 across realistic
// id populations while the ring stays small enough to build in
// microseconds.
const DefaultVnodes = 128

// ringPoint is one virtual node on the hash ring.
type ringPoint struct {
	hash  uint64
	shard int
}

// Router maps transaction ids and keys onto shards by consistent
// hashing. The mapping depends only on the shard count — not on any
// listing order and not on process identity — so every router over the
// same count agrees, across processes and across restarts. Routers are immutable after construction and safe
// for concurrent use.
type Router struct {
	shards int
	ring   []ringPoint
}

// NewRouter builds a router over the given number of shards with
// DefaultVnodes virtual nodes per shard.
func NewRouter(shards int) (*Router, error) {
	if shards < 1 {
		return nil, fmt.Errorf("shard: shard count must be >= 1, got %d", shards)
	}
	r := &Router{shards: shards, ring: make([]ringPoint, 0, shards*DefaultVnodes)}
	for s := 0; s < shards; s++ {
		base := "shard-" + strconv.Itoa(s) + "-vnode-"
		for v := 0; v < DefaultVnodes; v++ {
			r.ring = append(r.ring, ringPoint{hash: ringHash(base + strconv.Itoa(v)), shard: s})
		}
	}
	sort.Slice(r.ring, func(i, j int) bool {
		if r.ring[i].hash != r.ring[j].hash {
			return r.ring[i].hash < r.ring[j].hash
		}
		// A full 64-bit hash collision between vnode labels is vanishingly
		// rare; break ties by shard so the ring order is still canonical.
		return r.ring[i].shard < r.ring[j].shard
	})
	return r, nil
}

// Shards reports the shard count.
func (r *Router) Shards() int { return r.shards }

// Route maps one id to its shard: the first ring point at or clockwise
// of the id's hash.
func (r *Router) Route(id string) int {
	h := ringHash(id)
	i := sort.Search(len(r.ring), func(i int) bool { return r.ring[i].hash >= h })
	if i == len(r.ring) {
		i = 0
	}
	return r.ring[i].shard
}

// RouteKeys maps a transaction to its participating shard set: the
// shards of its keys, deduplicated and sorted — or, with no keys, the
// single shard its id routes to. The result is never empty.
func (r *Router) RouteKeys(id string, keys []string) []int {
	if len(keys) == 0 {
		return []int{r.Route(id)}
	}
	seen := make(map[int]bool, len(keys))
	out := make([]int, 0, len(keys))
	for _, k := range keys {
		s := r.Route(k)
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Ints(out)
	return out
}

// ringHash positions a string on the ring: FNV-1a 64 followed by the
// splitmix64 finalizer. FNV alone leaves the high bits of similar short
// strings ("shard-3-vnode-17") badly mixed — the ring orders by the full
// 64-bit value, so without the finalizer vnodes cluster and shard loads
// skew by an order of magnitude. Both stages are fixed published
// constants, so the mapping stays deterministic across goroutines,
// processes and restarts; TestRingHashPinnedValues enforces that.
func ringHash(s string) uint64 { return mix64(fnv64a(s)) }

// mix64 is the splitmix64 finalizer (Vigna 2015): full avalanche in
// three multiply-xorshift rounds.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fnv64a is the 64-bit FNV-1a hash, inlined so hashing is
// allocation-free (hash/fnv would allocate a hasher per call).
func fnv64a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}
