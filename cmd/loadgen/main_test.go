package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs/watch"
	"repro/internal/service"
	"repro/internal/shard"
)

// newTarget stands up a real service behind the real HTTP handler and
// returns a host:port address for loadgen to hit.
func newTarget(t *testing.T, cfg service.Config) (*service.Service, string) {
	t.Helper()
	s, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(service.NewHTTPHandler(s))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return s, strings.TrimPrefix(ts.URL, "http://")
}

// TestLoadgenE2EClosedLoopWithCrash is the headline end-to-end run: a
// closed-loop load of 1000+ transactions with mixed commit/abort votes
// against a live 5-node cluster, with one node fail-stopped partway
// through. Every request must reach a terminal state (drive returning at
// all proves no request hung), abort-voted transactions must never
// commit, and neither client nor daemon may observe a safety violation.
func TestLoadgenE2EClosedLoopWithCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-txn end-to-end run in -short mode")
	}
	// A short service-side deadline bounds the run: a transaction whose
	// coordinator is the crash victim resolves TIMEOUT instead of
	// stalling the closed loop for the full client timeout.
	s, addr := newTarget(t, service.Config{
		N: 5, K: 3, Seed: 99,
		TickEvery:      500 * time.Microsecond,
		DefaultTimeout: 5 * time.Second,
	})
	const total = 1000
	var out bytes.Buffer
	err := drive(genConfig{
		addr:          addr,
		mode:          "closed",
		concurrency:   32,
		total:         total,
		abortFraction: 0.3,
		timeout:       60 * time.Second,
		crashNode:     3,
		crashAfter:    total / 4,
		seed:          7,
	}, &out)
	t.Logf("loadgen output:\n%s", out.String())
	if err != nil {
		t.Fatalf("drive: %v", err)
	}

	m := s.Metrics()
	if m.Submitted < total {
		t.Fatalf("only %d submitted", m.Submitted)
	}
	if got := m.Committed + m.Aborted + m.TimedOut; got != m.Submitted {
		t.Fatalf("%d of %d submissions unresolved", m.Submitted-got, m.Submitted)
	}
	if m.Committed == 0 || m.Aborted == 0 {
		t.Fatalf("votes not mixed: %+v", m)
	}
	if m.SafetyViolations != 0 {
		t.Fatalf("daemon safety violations: %d", m.SafetyViolations)
	}
	if len(m.Crashed) != 1 || m.Crashed[0] != 3 {
		t.Fatalf("crash not injected: %v", m.Crashed)
	}
	for _, want := range []string{"throughput:", "p50 ms", "crashed=[3]"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// TestLoadgenOpenLoop exercises the rate-paced mode briefly.
func TestLoadgenOpenLoop(t *testing.T) {
	s, addr := newTarget(t, service.Config{N: 3, K: 3, Seed: 11})
	var out bytes.Buffer
	err := drive(genConfig{
		addr:          addr,
		mode:          "open",
		rate:          300,
		total:         60,
		duration:      20 * time.Second, // backstop; total ends the run first
		abortFraction: 0.5,
		timeout:       30 * time.Second,
		crashNode:     -1,
		seed:          3,
	}, &out)
	if err != nil {
		t.Fatalf("drive: %v\n%s", err, out.String())
	}
	m := s.Metrics()
	if m.Submitted == 0 || m.Committed == 0 || m.Aborted == 0 {
		t.Fatalf("open-loop metrics = %+v", m)
	}
}

// TestLoadgenRetriesOverload: against a deliberately tiny admission
// queue, closed-loop workers hit 429s, honor the retry hint, and still
// finish the run.
func TestLoadgenRetriesOverload(t *testing.T) {
	s, addr := newTarget(t, service.Config{
		N: 3, K: 3, Seed: 13,
		QueueDepth: 2, MaxInFlight: 2, BatchMax: 1,
		RetryHint: 5 * time.Millisecond,
	})
	var out bytes.Buffer
	err := drive(genConfig{
		addr:          addr,
		mode:          "closed",
		concurrency:   12,
		total:         60,
		abortFraction: 0,
		timeout:       30 * time.Second,
		crashNode:     -1,
		seed:          5,
	}, &out)
	if err != nil {
		t.Fatalf("drive: %v\n%s", err, out.String())
	}
	if m := s.Metrics(); m.Committed != 60 {
		t.Fatalf("metrics = %+v\n%s", m, out.String())
	}
	if !strings.Contains(out.String(), "overload retries") {
		t.Fatalf("report missing retry count:\n%s", out.String())
	}
}

// TestLoadgenJSONOutput: -json emits exactly one decodable summary
// object with consistent counts instead of the table report.
func TestLoadgenJSONOutput(t *testing.T) {
	s, addr := newTarget(t, service.Config{N: 3, K: 3, Seed: 17})
	var out bytes.Buffer
	err := drive(genConfig{
		addr:          addr,
		mode:          "closed",
		concurrency:   8,
		total:         40,
		abortFraction: 0.5,
		timeout:       30 * time.Second,
		crashNode:     -1,
		seed:          9,
		jsonOut:       true,
	}, &out)
	if err != nil {
		t.Fatalf("drive: %v\n%s", err, out.String())
	}
	var sum SummaryJSON
	dec := json.NewDecoder(bytes.NewReader(out.Bytes()))
	if err := dec.Decode(&sum); err != nil {
		t.Fatalf("decode: %v\n%s", err, out.String())
	}
	if dec.More() {
		t.Fatalf("more than one JSON document:\n%s", out.String())
	}
	if sum.Completed != 40 || sum.ThroughputTPS <= 0 {
		t.Fatalf("summary = %+v", sum)
	}
	var fromOutcomes uint64
	for st, o := range sum.Outcomes {
		if o.Count > 0 && o.P50Ms <= 0 {
			t.Errorf("outcome %s has count %d but p50 %v", st, o.Count, o.P50Ms)
		}
		if o.P50Ms > o.P99Ms {
			t.Errorf("outcome %s percentiles not monotone: %+v", st, o)
		}
		fromOutcomes += o.Count
	}
	if fromOutcomes != sum.Completed {
		t.Fatalf("outcome counts %d != completed %d", fromOutcomes, sum.Completed)
	}
	if m := s.Metrics(); sum.Daemon.Submitted != m.Submitted {
		t.Fatalf("daemon snapshot stale: %d vs %d", sum.Daemon.Submitted, m.Submitted)
	}
}

// TestLoadgenWatchdogReport: against a daemon that exposes
// /debug/health, the end-of-run report carries the watchdog's status and
// anomaly counts, and the -json summary embeds the health document. The
// other end-to-end tests cover the opposite path: their targets have no
// /debug/health, and the report must simply omit the section.
func TestLoadgenWatchdogReport(t *testing.T) {
	s, err := service.New(service.Config{N: 3, K: 3, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	wd := watch.New(s, watch.Config{})
	wd.Tick() // at least one evaluation so ticks > 0 in the report
	mux := http.NewServeMux()
	mux.Handle("/debug/health", wd.Handler())
	mux.Handle("/", service.NewHTTPHandler(s))
	ts := httptest.NewServer(mux)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	addr := strings.TrimPrefix(ts.URL, "http://")

	base := genConfig{
		addr:          addr,
		mode:          "closed",
		concurrency:   4,
		total:         30,
		abortFraction: 0.5,
		timeout:       30 * time.Second,
		crashNode:     -1,
		seed:          5,
	}
	var out bytes.Buffer
	if err := drive(base, &out); err != nil {
		t.Fatalf("drive: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "watchdog: status=ok") {
		t.Fatalf("report lacks the watchdog line:\n%s", out.String())
	}

	out.Reset()
	base.jsonOut = true
	if err := drive(base, &out); err != nil {
		t.Fatalf("drive -json: %v\n%s", err, out.String())
	}
	var sum SummaryJSON
	if err := json.Unmarshal(out.Bytes(), &sum); err != nil {
		t.Fatalf("decode: %v\n%s", err, out.String())
	}
	if sum.Watchdog == nil || sum.Watchdog.Ticks == 0 {
		t.Fatalf("json summary lacks watchdog health: %+v", sum.Watchdog)
	}
	if sum.Watchdog.Status != "ok" || sum.Watchdog.Anomalies != 0 {
		t.Fatalf("clean run reported anomalies: %+v", sum.Watchdog)
	}
}

// TestLoadgenBatchedOccupancy: the summary carries the run's batch
// occupancy histogram and a daemon-side decision rate, in both the JSON
// and the table output.
func TestLoadgenBatchedOccupancy(t *testing.T) {
	s, addr := newTarget(t, service.Config{
		N: 3, K: 3, Seed: 31,
		TickEvery:   500 * time.Microsecond,
		BatchMax:    16,
		MaxInFlight: 256,
	})
	var out bytes.Buffer
	err := drive(genConfig{
		addr:          addr,
		mode:          "closed",
		concurrency:   16,
		total:         80,
		abortFraction: 0.25,
		timeout:       30 * time.Second,
		crashNode:     -1,
		seed:          13,
		jsonOut:       true,
	}, &out)
	if err != nil {
		t.Fatalf("drive: %v\n%s", err, out.String())
	}
	var sum SummaryJSON
	if err := json.Unmarshal(out.Bytes(), &sum); err != nil {
		t.Fatalf("decode: %v\n%s", err, out.String())
	}
	if sum.DecisionsPerSec <= 0 {
		t.Fatalf("decisions/sec = %v", sum.DecisionsPerSec)
	}
	if sum.BatchesDecided == 0 {
		t.Fatal("no batches decided against a batched daemon")
	}
	bo := sum.BatchOccupancy
	if bo == nil || bo.Count == 0 {
		t.Fatalf("batch occupancy missing: %+v", bo)
	}
	if bo.Mean < 1 || bo.Sum != float64(sum.Completed) {
		t.Fatalf("occupancy mean=%v sum=%v completed=%d", bo.Mean, bo.Sum, sum.Completed)
	}
	if m := s.Metrics(); m.BatchesDecided != sum.BatchesDecided {
		t.Fatalf("batches decided: daemon %d, summary %d", m.BatchesDecided, sum.BatchesDecided)
	}

	// The table report renders the occupancy block from the same summary.
	var text bytes.Buffer
	report(&text, genConfig{mode: "closed"}, sum, time.Second)
	for _, want := range []string{"decisions:", "batch occupancy:", "occupancy <="} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("report missing %q:\n%s", want, text.String())
		}
	}
}

func TestLoadgenFlagValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-total", "0"}, &out); err == nil {
		t.Fatal("no stop condition accepted")
	}
	if err := run([]string{"-abort-fraction", "1.5"}, &out); err == nil {
		t.Fatal("bad abort fraction accepted")
	}
	if err := run([]string{"-mode", "sideways", "-total", "1", "-addr", "127.0.0.1:1"}, &out); err == nil {
		t.Fatal("bad mode accepted")
	}
	if err := run([]string{"-total", "1", "-cross-fraction", "0.5"}, &out); err == nil {
		t.Fatal("cross fraction without tenants accepted")
	}
	if err := run([]string{"-total", "1", "-tenants", "4", "-cross-fraction", "2"}, &out); err == nil {
		t.Fatal("bad cross fraction accepted")
	}
	if err := run([]string{"-total", "1", "-hot-shard", "0"}, &out); err == nil {
		t.Fatal("hot shard without tenants accepted")
	}
	if err := run([]string{"-total", "1", "-tenants", "4", "-keys-per-txn", "0"}, &out); err == nil {
		t.Fatal("zero keys per txn accepted")
	}
}

// TestLoadgenUnreachableDaemon: with nobody listening, the run fails
// fast with a diagnosis naming the address and the /readyz wait, not a
// bare dial error.
func TestLoadgenUnreachableDaemon(t *testing.T) {
	// Reserve a port and close it so the address is guaranteed dead.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() //nolint:errcheck

	var out bytes.Buffer
	err = drive(genConfig{
		addr:      addr,
		mode:      "closed",
		total:     1,
		timeout:   time.Second,
		readyWait: 300 * time.Millisecond,
		crashNode: -1,
	}, &out)
	if err == nil {
		t.Fatal("unreachable daemon did not fail the run")
	}
	for _, want := range []string{"unreachable", addr, "/readyz", "daemon running"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

// newShardedTarget stands up a sharded coordinator behind the sharded
// HTTP handler.
func newShardedTarget(t *testing.T, cfg shard.Config) (*shard.Coordinator, string) {
	t.Helper()
	c, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(shard.NewHTTPHandler(c))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := c.Close(ctx); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return c, strings.TrimPrefix(ts.URL, "http://")
}

// TestLoadgenShardedMultiTenant drives the keyed workload at a sharded
// daemon: the cross fraction materializes as cross-shard transactions,
// the summary carries the per-shard and cross-vs-single split, and no
// safety violation surfaces on either side.
func TestLoadgenShardedMultiTenant(t *testing.T) {
	c, addr := newShardedTarget(t, shard.Config{
		Shards: 3,
		Group: service.Config{
			N: 3, K: 3, Seed: 21,
			TickEvery:      500 * time.Microsecond,
			DefaultTimeout: 10 * time.Second,
		},
	})
	const total = 150
	var out bytes.Buffer
	err := drive(genConfig{
		addr:          addr,
		mode:          "closed",
		concurrency:   16,
		total:         total,
		abortFraction: 0.2,
		timeout:       60 * time.Second,
		crashNode:     -1,
		seed:          7,
		tenants:       16,
		tenantSkew:    1.3,
		keysPerTxn:    2,
		crossFraction: 0.3,
		hotShard:      -1,
		jsonOut:       true,
	}, &out)
	if err != nil {
		t.Fatalf("drive: %v\n%s", err, out.String())
	}
	var sum SummaryJSON
	if err := json.Unmarshal(out.Bytes(), &sum); err != nil {
		t.Fatalf("decode: %v\n%s", err, out.String())
	}
	if sum.Shards != 3 || sum.Completed != total {
		t.Fatalf("summary = shards %d completed %d", sum.Shards, sum.Completed)
	}
	if sum.CrossShard == nil || sum.SingleShard == nil {
		t.Fatal("cross/single split missing")
	}
	// With 150 txns at 30% cross fraction, both classes must show up.
	if sum.CrossShard.Count == 0 || sum.SingleShard.Count == 0 {
		t.Fatalf("cross=%d single=%d", sum.CrossShard.Count, sum.SingleShard.Count)
	}
	if sum.CrossShard.Count+sum.SingleShard.Count != total {
		t.Fatalf("split %d+%d != %d", sum.CrossShard.Count, sum.SingleShard.Count, total)
	}
	if len(sum.PerShard) == 0 {
		t.Fatal("per-shard latency missing")
	}
	if sum.DaemonSharded == nil || sum.DaemonSharded.Cross.Submitted == 0 {
		t.Fatalf("daemon cross metrics = %+v", sum.DaemonSharded)
	}
	m := c.Metrics()
	if m.Cross.Submitted != uint64(sum.CrossShard.Count) {
		t.Fatalf("daemon saw %d cross txns, client %d", m.Cross.Submitted, sum.CrossShard.Count)
	}
	if m.Aggregate.SafetyViolations != 0 || sum.ClientViolations != 0 {
		t.Fatalf("violations: daemon=%d client=%d", m.Aggregate.SafetyViolations, sum.ClientViolations)
	}

	// The text report renders the sharded tables too.
	var text bytes.Buffer
	report(&text, genConfig{mode: "closed"}, sum, time.Second)
	for _, want := range []string{"per-shard latency:", "cross-shard:", "single-shard:", "daemon cross layer:"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("report missing %q:\n%s", want, text.String())
		}
	}
}

// TestLoadgenHotShard: with -hot-shard every transaction lands on the
// pinned shard and none cross shards.
func TestLoadgenHotShard(t *testing.T) {
	c, addr := newShardedTarget(t, shard.Config{
		Shards: 3,
		Group: service.Config{
			N: 3, K: 3, Seed: 23,
			TickEvery:      500 * time.Microsecond,
			DefaultTimeout: 10 * time.Second,
		},
	})
	const total = 40
	var out bytes.Buffer
	err := drive(genConfig{
		addr:          addr,
		mode:          "closed",
		concurrency:   8,
		total:         total,
		abortFraction: 0,
		timeout:       60 * time.Second,
		crashNode:     -1,
		seed:          5,
		tenants:       8,
		keysPerTxn:    2,
		hotShard:      1,
	}, &out)
	if err != nil {
		t.Fatalf("drive: %v\n%s", err, out.String())
	}
	m := c.Metrics()
	if m.Cross.Submitted != 0 {
		t.Fatalf("hot-shard run produced %d cross txns", m.Cross.Submitted)
	}
	if got := m.PerShard[1].Submitted; got != total {
		t.Fatalf("hot shard saw %d of %d txns", got, total)
	}
	for _, sh := range []int{0, 2} {
		if got := m.PerShard[sh].Submitted; got != 0 {
			t.Fatalf("cold shard %d saw %d txns", sh, got)
		}
	}
}

// TestLoadgenShardFlagsAgainstUnshardedDaemon: shard-shaping flags are
// rejected up front when the daemon runs a single group.
func TestLoadgenShardFlagsAgainstUnshardedDaemon(t *testing.T) {
	_, addr := newTarget(t, service.Config{N: 3, K: 3, Seed: 29})
	var out bytes.Buffer
	err := drive(genConfig{
		addr: addr, mode: "closed", total: 1, timeout: 10 * time.Second,
		crashNode: -1, tenants: 4, crossFraction: 0.5,
	}, &out)
	if err == nil || !strings.Contains(err.Error(), "needs a sharded daemon") {
		t.Fatalf("cross-fraction against 1 shard: err = %v", err)
	}
	err = drive(genConfig{
		addr: addr, mode: "closed", total: 1, timeout: 10 * time.Second,
		crashNode: -1, tenants: 4, hotShard: 2,
	}, &out)
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("hot-shard against 1 shard: err = %v", err)
	}
}

// TestKeygenShaping checks the workload shaper against the router
// directly: cross txns span >=2 shards, non-cross txns stay on one, and
// hot-shard pins everything.
func TestKeygenShaping(t *testing.T) {
	router, err := shard.NewRouter(4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))

	kg := &keygen{cfg: genConfig{tenants: 8, keysPerTxn: 3, crossFraction: 0.5, hotShard: -1}, router: router}
	var crossSeen, singleSeen bool
	for i := 0; i < 200; i++ {
		keys, cross, err := kg.keys(rng, nil)
		if err != nil {
			t.Fatal(err)
		}
		shards := router.RouteKeys("x", keys)
		if cross {
			crossSeen = true
			if len(shards) < 2 {
				t.Fatalf("cross txn keys %v route to %v", keys, shards)
			}
		} else {
			singleSeen = true
			if len(shards) != 1 {
				t.Fatalf("single txn keys %v route to %v", keys, shards)
			}
		}
	}
	if !crossSeen || !singleSeen {
		t.Fatalf("shaping never produced both classes: cross=%v single=%v", crossSeen, singleSeen)
	}

	hot := &keygen{cfg: genConfig{tenants: 8, keysPerTxn: 2, hotShard: 2}, router: router}
	for i := 0; i < 50; i++ {
		keys, _, err := hot.keys(rng, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if router.Route(k) != 2 {
				t.Fatalf("hot-shard key %q routes to %d", k, router.Route(k))
			}
		}
	}
}
