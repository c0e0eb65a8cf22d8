package watch

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// fakeSource replays a scripted sequence of Stats, repeating the last.
type fakeSource struct {
	mu    sync.Mutex
	seq   []Stats
	calls int
}

func (f *fakeSource) WatchStats(time.Duration) Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	i := f.calls
	if i >= len(f.seq) {
		i = len(f.seq) - 1
	}
	f.calls++
	if len(f.seq) == 0 {
		return Stats{}
	}
	return f.seq[i]
}

func buckets(bounds []float64, counts []uint64) []obs.Bucket {
	out := make([]obs.Bucket, len(bounds)+1)
	var cum uint64
	for i, c := range counts {
		cum += c
		ub := math.Inf(1)
		if i < len(bounds) {
			ub = bounds[i]
		}
		out[i] = obs.Bucket{UpperBound: ub, Count: cum}
	}
	return out[:len(counts)]
}

func TestNodeDownEdgeTriggered(t *testing.T) {
	crashed := Stats{Shards: []ShardSample{{Shard: "0", CrashedNodes: []int{2}}}}
	clean := Stats{Shards: []ShardSample{{Shard: "0"}}}
	src := &fakeSource{seq: []Stats{crashed, crashed, clean, crashed}}
	w := New(src, Config{})

	if got := w.Tick(); len(got) != 1 || got[0].Rule != RuleNodeDown || got[0].Node != 2 {
		t.Fatalf("tick 1: %+v", got)
	}
	if got := w.Tick(); len(got) != 0 {
		t.Fatalf("tick 2 should dedup: %+v", got)
	}
	if got := w.Tick(); len(got) != 0 {
		t.Fatalf("tick 3 (recovered): %+v", got)
	}
	// Crash again after recovery: a second injected fault, a second anomaly.
	if got := w.Tick(); len(got) != 1 || got[0].Rule != RuleNodeDown {
		t.Fatalf("tick 4 should re-trigger: %+v", got)
	}
	if c := w.Counts(); c[RuleNodeDown] != 2 {
		t.Fatalf("counts: %v", c)
	}
}

func TestStallAndInDoubtDedupPerTxn(t *testing.T) {
	st := Stats{
		Shards: []ShardSample{{Shard: "1", Stalled: []TxnAge{
			{Txn: "a", Shard: "1", AgeMs: 900, State: "RUNNING"},
			{Txn: "b", Shard: "1", AgeMs: 1200, State: "QUEUED"},
		}}},
		Cross: []TxnAge{{Txn: "x9", Shard: "", AgeMs: 5000, State: "TIMEOUT"}},
	}
	w := New(&fakeSource{seq: []Stats{st, st}}, Config{})
	first := w.Tick()
	if len(first) != 3 {
		t.Fatalf("want 3 anomalies, got %+v", first)
	}
	if got := w.Tick(); len(got) != 0 {
		t.Fatalf("repeat tick should be silent: %+v", got)
	}
	c := w.Counts()
	if c[RuleTxnStall] != 2 || c[RuleCrossInDoubt] != 1 {
		t.Fatalf("counts: %v", c)
	}
}

func TestSLOBurnTransition(t *testing.T) {
	bounds := []float64{0.01, 0.1, 1}
	mk := func(counts ...uint64) []obs.Bucket { return buckets(bounds, counts) }
	fast := ShardSample{Shard: "0", Latency: mk(100, 0, 0, 0)}
	// +100 observations all in the (0.1, 1] bucket: p99 ≈ 0.99s > 50ms target.
	slow := ShardSample{Shard: "0", Latency: mk(100, 0, 100, 0)}
	slower := ShardSample{Shard: "0", Latency: mk(100, 0, 200, 0)}
	recovered := ShardSample{Shard: "0", Latency: mk(300, 0, 200, 0)}

	src := &fakeSource{seq: []Stats{
		{Shards: []ShardSample{fast}},
		{Shards: []ShardSample{slow}},                                      // burn starts
		{Shards: []ShardSample{slower}},                                    // still burning: no new anomaly
		{Shards: []ShardSample{recovered}},                                 // window healthy again
		{Shards: []ShardSample{{Shard: "0", Latency: mk(300, 0, 300, 0)}}}, // burns again
	}}
	w := New(src, Config{SLOTargetP99: 50 * time.Millisecond})

	if got := w.Tick(); len(got) != 0 {
		t.Fatalf("first tick has no window: %+v", got)
	}
	if got := w.Tick(); len(got) != 1 || got[0].Rule != RuleSLOBurn {
		t.Fatalf("burn not detected: %+v", got)
	}
	if got := w.Tick(); len(got) != 0 {
		t.Fatalf("sustained burn should not re-fire: %+v", got)
	}
	if got := w.Tick(); len(got) != 0 {
		t.Fatalf("recovery is silent: %+v", got)
	}
	if got := w.Tick(); len(got) != 1 {
		t.Fatalf("new burn episode should fire: %+v", got)
	}
}

func TestSLOBurnMinSamplesFloor(t *testing.T) {
	bounds := []float64{0.01, 1}
	s0 := ShardSample{Shard: "0", Latency: buckets(bounds, []uint64{0, 0, 0})}
	s1 := ShardSample{Shard: "0", Latency: buckets(bounds, []uint64{0, 19, 0})}
	s2 := ShardSample{Shard: "0", Latency: buckets(bounds, []uint64{0, 39, 0})}
	src := &fakeSource{seq: []Stats{{Shards: []ShardSample{s0}}, {Shards: []ShardSample{s1}}, {Shards: []ShardSample{s2}}}}
	w := New(src, Config{SLOTargetP99: 50 * time.Millisecond})
	w.Tick()
	if got := w.Tick(); len(got) != 0 {
		t.Fatalf("19 slow samples under the 20-sample floor must stay quiet: %+v", got)
	}
	if got := w.Tick(); len(got) != 1 || got[0].Rule != RuleSLOBurn {
		t.Fatalf("20 slow samples reach the floor and burn: %+v", got)
	}
}

func TestFsyncSpike(t *testing.T) {
	bounds := []float64{0.001, 0.05, 1}
	s0 := ShardSample{Shard: "0", Fsync: buckets(bounds, []uint64{50, 0, 0, 0})}
	s1 := ShardSample{Shard: "0", Fsync: buckets(bounds, []uint64{50, 0, 40, 0})}
	src := &fakeSource{seq: []Stats{{Shards: []ShardSample{s0}}, {Shards: []ShardSample{s1}}}}
	w := New(src, Config{FsyncP99Max: 10 * time.Millisecond})
	w.Tick()
	got := w.Tick()
	if len(got) != 1 || got[0].Rule != RuleFsyncSpike {
		t.Fatalf("fsync spike not detected: %+v", got)
	}
}

func TestRescueStorm(t *testing.T) {
	src := &fakeSource{seq: []Stats{
		{Shards: []ShardSample{{Shard: "0", Rescues: 0}}},
		{Shards: []ShardSample{{Shard: "0", Rescues: 2}}},
		{Shards: []ShardSample{{Shard: "0", Rescues: 12}}},
	}}
	w := New(src, Config{RescueBurst: 5})
	w.Tick()
	if got := w.Tick(); len(got) != 0 {
		t.Fatalf("2 rescues under burst of 5: %+v", got)
	}
	got := w.Tick()
	if len(got) != 1 || got[0].Rule != RuleRescueStorm {
		t.Fatalf("storm not detected: %+v", got)
	}
}

func TestShardImbalance(t *testing.T) {
	mk := func(a, b uint64) Stats {
		return Stats{Shards: []ShardSample{
			{Shard: "0", Submitted: a}, {Shard: "1", Submitted: b},
		}}
	}
	src := &fakeSource{seq: []Stats{mk(0, 0), mk(100, 95), mk(1100, 100)}}
	w := New(src, Config{ImbalanceFactor: 4, ImbalanceMin: 50})
	w.Tick()
	if got := w.Tick(); len(got) != 0 {
		t.Fatalf("balanced tick flagged: %+v", got)
	}
	got := w.Tick()
	if len(got) != 1 || got[0].Rule != RuleShardImbalance || got[0].Shard != "0" {
		t.Fatalf("imbalance not detected: %+v", got)
	}
}

func TestProtocolBlocked(t *testing.T) {
	st := Stats{Blocked: []BlockedReport{{Protocol: "2pc", Txn: "arena-3"}}}
	w := New(&fakeSource{seq: []Stats{st, st}}, Config{})
	got := w.Tick()
	if len(got) != 1 || got[0].Rule != RuleProtocolBlocked || got[0].Txn != "arena-3" {
		t.Fatalf("blocked not detected: %+v", got)
	}
	if got := w.Tick(); len(got) != 0 {
		t.Fatalf("blocked report should dedup: %+v", got)
	}
}

func TestCleanRunZeroAnomalies(t *testing.T) {
	bounds := []float64{0.01, 1}
	mk := func(i uint64) Stats {
		return Stats{Shards: []ShardSample{{
			Shard: "0", Submitted: i * 50, Decided: i * 50,
			Latency: buckets(bounds, []uint64{i * 50, 0, 0}),
		}}}
	}
	src := &fakeSource{seq: []Stats{mk(0), mk(1), mk(2), mk(3), mk(4)}}
	w := New(src, Config{
		SLOTargetP99: 100 * time.Millisecond, FsyncP99Max: 100 * time.Millisecond,
		RescueBurst: 5, ImbalanceFactor: 4, ImbalanceMin: 50,
	})
	for i := 0; i < 5; i++ {
		if got := w.Tick(); len(got) != 0 {
			t.Fatalf("clean tick %d produced anomalies: %+v", i, got)
		}
	}
	h := w.Health()
	if h.Status != "ok" || h.Anomalies != 0 || h.Ticks != 5 {
		t.Fatalf("health: %+v", h)
	}
}

func TestHealthHandlerAndRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	hit := 0
	st := Stats{Shards: []ShardSample{{Shard: "0", CrashedNodes: []int{1}}}}
	w := New(&fakeSource{seq: []Stats{st}}, Config{Registry: reg, OnAnomaly: func(Anomaly) { hit++ }})
	w.Tick()
	if hit != 1 {
		t.Fatalf("OnAnomaly hook not called")
	}

	rec := httptest.NewRecorder()
	w.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/health", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var h Health
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" || h.ByRule[RuleNodeDown] != 1 || len(h.Recent) != 1 {
		t.Fatalf("health doc: %+v", h)
	}

	rec = httptest.NewRecorder()
	w.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/debug/health", nil))
	if rec.Code != 405 {
		t.Fatalf("POST should 405, got %d", rec.Code)
	}
}

func TestStartStop(t *testing.T) {
	st := Stats{Shards: []ShardSample{{Shard: "0"}}}
	src := &fakeSource{seq: []Stats{st}}
	w := New(src, Config{Interval: time.Millisecond})
	w.Start()
	deadline := time.After(2 * time.Second)
	for {
		if w.Health().Ticks >= 3 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("watchdog never ticked")
		case <-time.After(time.Millisecond):
		}
	}
	w.Stop()
	w.Stop() // idempotent
}

func TestQuantileDelta(t *testing.T) {
	bounds := []float64{0.1, 0.2, 0.4}
	prev := buckets(bounds, []uint64{100, 0, 0, 0})
	// Window: 100 obs uniform in (0.1, 0.2].
	cur := buckets(bounds, []uint64{100, 100, 0, 0})
	p50, n := quantileDelta(prev, cur, 0.5)
	if n != 100 {
		t.Fatalf("n=%d", n)
	}
	if p50 < 0.14 || p50 > 0.16 {
		t.Fatalf("p50=%f want ~0.15", p50)
	}
	// All mass in +Inf bucket → reports the last finite bound.
	cur2 := buckets(bounds, []uint64{100, 100, 0, 50})
	p99, _ := quantileDelta(cur, cur2, 0.99)
	if p99 != 0.4 {
		t.Fatalf("p99=%f want 0.4 (lower bound of +Inf bucket)", p99)
	}
	if _, n := quantileDelta(cur, cur, 0.99); n != 0 {
		t.Fatalf("empty window must report zero samples")
	}
}
