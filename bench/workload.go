package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/shard"
)

// Settings shared by every workload (ISSUE "Common settings"). Latency
// under them is tick pacing + processor time + loopback: no message
// delay is injected between nodes.
const (
	clusterN     = 3
	clusterK     = 4
	tickEvery    = time.Millisecond
	reqTimeout   = 2 * time.Second        // per-request deadline handed to the service
	lateAfter    = 250 * time.Millisecond // a reply later than this counts in fail_share (as late, not failed)
	dissentEvery = 5                      // one transaction in five carries a dissenting vote
	crossEvery   = 5                      // one keyed transaction in five spans two shards
	shardCount   = 4
	tenantCount  = 64
	tenantSkew   = 1.2
	openRate     = 60 // offered txns/s of the open-loop workload
	faultCycles  = 6  // daemon incarnations per faults run
)

// workload is one traffic mix and the deployment it is thrown at.
type workload struct {
	name string
	why  string
	// http fronts the service with POST /commit (a spawned commitd when
	// untraced, an in-process listener in the traced twin); otherwise
	// callers invoke Submit directly.
	http bool
	// backend is the cluster transport: "tcp" or "channel".
	backend string
	// sharded deploys shard.New (4 groups, cross log) instead of one group.
	sharded bool
	// callers is the closed-loop client count (connections for http).
	callers int
	// open switches to the open loop at openRate with kill/restart cycles.
	open bool
	// warmup is how many transactions a fresh deployment answers before
	// set-up counts as finished; sized to take roughly 0.7 s.
	warmup int
}

var workloads = []workload{
	{
		name: "http_durable_c2", http: true, backend: "tcp", callers: 2, warmup: 200,
		why: "real commitd over HTTP, TCP transport, WAL on, 2 closed-loop connections: tick wait + HTTP hop + one fsync per decision; control for batching work",
	},
	{
		name: "svc_batched_c32", backend: "channel", callers: 32, warmup: 3000,
		why: "in-process service, 32 closed-loop Submit callers: batch gather, vector agreement, manager stepping and group commit dominate; control for wire/codec changes",
	},
	{
		name: "shard_cross_c16", backend: "channel", sharded: true, callers: 16, warmup: 1500,
		why: "4 shards x n=3 in process, zipf tenants, exactly 20% cross-shard: twelve node goroutines share the cores plus commit-of-commits and a cross-log fsync",
	},
	{
		name: "http_faults_c2", http: true, backend: "channel", callers: 2, open: true, warmup: 200,
		why: "open loop at 60 txns/s through six node-crash + SIGKILL + restart cycles on one WAL directory: orphan rescue, WAL replay and readiness",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// request is one generated transaction. The program under test sees
// only ID, Votes and Keys; Dissent and Cross are the generator's own
// record of what it built, kept for checking the answer.
type request struct {
	ID      string
	Votes   []bool   // nil: every processor votes commit
	Keys    []string // sharded workloads only
	Dissent bool     // one processor votes abort: the only legal answer is ABORT
	Cross   bool     // keys pinned onto two different shards
}

// stream is one caller's deterministic request sequence: the same
// (seed, workload, caller) always yields the same requests, whatever the
// other callers or the system under test do.
type stream struct {
	w      workload
	prefix string
	rng    *rand.Rand
	zipf   *rand.Zipf
	router *shard.Router
	seq    int
	// dissentAt/crossAt are the positions inside the current block of
	// five that dissent / span shards, so the shares are exact, not drawn.
	dissentAt, crossAt int
}

func newStream(w workload, seed int64, caller int) *stream {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(caller)*7919 + 1))
	s := &stream{w: w, rng: rng, prefix: "s" + strconv.FormatInt(seed, 10) + "c" + strconv.Itoa(caller) + "-"}
	if w.sharded {
		s.zipf = rand.NewZipf(rng, tenantSkew, 1, tenantCount-1)
		r, err := shard.NewRouter(shardCount)
		if err != nil {
			panic(err) // shardCount is a positive constant
		}
		s.router = r
	}
	return s
}

func (s *stream) next() request {
	if s.seq%dissentEvery == 0 {
		s.dissentAt = s.rng.Intn(dissentEvery)
	}
	if s.seq%crossEvery == 0 {
		s.crossAt = s.rng.Intn(crossEvery)
	}
	r := request{ID: s.prefix + strconv.Itoa(s.seq)}
	if s.seq%dissentEvery == s.dissentAt {
		r.Dissent = true
		r.Votes = make([]bool, clusterN)
		for i := range r.Votes {
			r.Votes[i] = true
		}
		r.Votes[s.rng.Intn(clusterN)] = false
	}
	if s.w.sharded {
		r.Cross = s.seq%crossEvery == s.crossAt
		r.Keys = s.keys(r.Cross)
	}
	s.seq++
	return r
}

// keys draws a tenant and two of its keys, then pins the second key by
// probing the router client-side: onto the first key's shard for a
// single-shard transaction, onto a different one for a cross-shard one.
func (s *stream) keys(cross bool) []string {
	tenant := int(s.zipf.Uint64())
	key := func() string {
		return "t" + strconv.Itoa(tenant) + "/k" + strconv.Itoa(s.rng.Intn(1<<20))
	}
	first := key()
	want := s.router.Route(first)
	if cross {
		want = (want + 1 + s.rng.Intn(shardCount-1)) % shardCount
	}
	for {
		if k := key(); s.router.Route(k) == want {
			return []string{first, k}
		}
	}
}

// describe is the one-line statement of the load a workload offers.
func (w workload) describe() string {
	if w.open {
		return fmt.Sprintf("open loop %d txns/s over %d connections", openRate, w.callers)
	}
	return fmt.Sprintf("closed loop, %d callers", w.callers)
}
