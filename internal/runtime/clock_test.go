package runtime_test

// The runtime's two promises, checked on machines that only count: a node
// runs its machine when something arrives and otherwise once per TickEvery
// (no spin), and a node of a cluster ticks no faster than its slowest live
// peer. The schedules here are wall time and a sleep — nothing reads a
// message: content-oblivious.

import (
	"context"
	goruntime "runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/types"
)

// counter counts its ticks and what they brought, and can be made slow
// (stall) or wedged (block) inside Step. It has Step alone, so a node
// refuses it; arrivals and chatter add Deliver.
type counter struct {
	id       types.ProcID
	ticks    atomic.Int64
	received atomic.Int64
	stall    time.Duration
	block    chan struct{} // non-nil: every Step waits for it to close
}

func (c *counter) ID() types.ProcID              { return c.id }
func (c *counter) Clock() int                    { return int(c.ticks.Load()) }
func (c *counter) Decision() (types.Value, bool) { return 0, false }
func (c *counter) Halted() bool                  { return false }
func (c *counter) Step(received []types.Message, _ types.Rand) []types.Message {
	c.ticks.Add(1)
	c.received.Add(int64(len(received)))
	if c.block != nil {
		<-c.block
	}
	time.Sleep(c.stall)
	return nil
}

// arrivals adds Deliver: it counts the deliveries, and answers one that
// brings nothing (a Wake) with a message to its right-hand peer.
type arrivals struct {
	counter
	n          int
	deliveries atomic.Int64
}

func (a *arrivals) Deliver(received []types.Message, _ types.Rand) []types.Message {
	a.received.Add(int64(len(received)))
	a.deliveries.Add(1)
	if len(received) == 0 {
		return []types.Message{{From: a.id, To: types.ProcID((int(a.id) + 1) % a.n), Payload: ping{}}}
	}
	return nil
}

type ping struct{}

func (ping) Kind() string { return "test.ping" }

// startCluster runs machines as a persistent cluster until the test ends.
func startCluster(t *testing.T, machines []types.Machine, tick time.Duration, reg *obs.Registry) *runtime.Cluster {
	t.Helper()
	c, err := runtime.NewCluster(machines, nil, runtime.ClusterOptions{
		TickEvery: tick, Seed: 1, Persistent: true, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start(context.Background())
	t.Cleanup(func() {
		c.Stop()
		if err := c.Wait(); err != nil {
			t.Errorf("cluster wait: %v", err)
		}
	})
	return c
}

func newArrivals(n int) ([]*arrivals, []types.Machine) {
	as := make([]*arrivals, n)
	ms := make([]types.Machine, n)
	for p := range as {
		as[p] = &arrivals{counter: counter{id: types.ProcID(p)}, n: n}
		ms[p] = as[p]
	}
	return as, ms
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestClusterRunsOneGoroutinePerNodeContentOblivious: each node keeps its
// own ticker and gate, so a running cluster is its nodes' goroutines and
// nothing else — no clock beside them.
func TestClusterRunsOneGoroutinePerNodeContentOblivious(t *testing.T) {
	_, ms := newArrivals(3)
	// An earlier test's node closes Done just before its goroutine returns,
	// so count once the number has held still for a few milliseconds.
	before := goruntime.NumGoroutine()
	for prev := -1; prev != before; {
		prev = before
		time.Sleep(5 * time.Millisecond)
		before = goruntime.NumGoroutine()
	}
	startCluster(t, ms, time.Millisecond, nil)
	time.Sleep(20 * time.Millisecond)
	if got := goruntime.NumGoroutine() - before; got != len(ms) {
		t.Errorf("a running %d-node cluster added %d goroutines, want %d", len(ms), got, len(ms))
	}
}

// TestIdleClusterTicksAndNothingElseContentOblivious: with nothing to
// deliver a node runs its machine once per TickEvery — never more (no
// spin), and the step counter counts exactly those runs.
func TestIdleClusterTicksAndNothingElseContentOblivious(t *testing.T) {
	const tick = 2 * time.Millisecond
	as, ms := newArrivals(3)
	reg := obs.NewRegistry()
	start := time.Now()
	startCluster(t, ms, tick, reg)
	time.Sleep(200 * time.Millisecond)
	var ticks [3]int64
	for p, a := range as {
		ticks[p] = a.ticks.Load()
	}
	periods := int64(time.Since(start)/tick) + 1
	for p, a := range as {
		if got := a.deliveries.Load(); got != 0 {
			t.Errorf("node %d: %d deliveries with nothing sent", p, got)
		}
		// A busy box may lose periods; it can never add any.
		if ticks[p] > periods || ticks[p] < periods/4 {
			t.Errorf("node %d: %d ticks in %d periods", p, ticks[p], periods)
		}
		steps := reg.CounterVec("runtime_node_steps_total", "", "node").With(strconv.Itoa(p)).Value()
		if now := a.ticks.Load(); int64(steps) < ticks[p] || int64(steps) > now {
			t.Errorf("node %d: runtime_node_steps_total = %d, machine ran %d..%d times", p, steps, ticks[p], now)
		}
	}
}

// TestArrivalAndWakeRunTheMachineAtOnceContentOblivious: the clock is an
// hour away, so whatever runs, runs because something arrived. Wake runs
// node 0, whose answer reaches node 1 and runs it; a wake of node 1 runs
// it again, and its answer runs node 2.
func TestArrivalAndWakeRunTheMachineAtOnceContentOblivious(t *testing.T) {
	as, ms := newArrivals(3)
	c := startCluster(t, ms, time.Hour, nil)
	c.Node(0).Wake()
	waitFor(t, "node 0's message to arrive at node 1", func() bool { return as[1].received.Load() == 1 })
	c.Node(1).Wake()
	waitFor(t, "node 1's answer to arrive at node 2", func() bool { return as[2].received.Load() == 1 })
	time.Sleep(20 * time.Millisecond)
	if d, r := as[0].deliveries.Load(), as[0].received.Load(); d != 1 || r != 0 {
		t.Errorf("node 0: %d deliveries, %d messages; want the one wake", d, r)
	}
	for p, a := range as {
		if a.ticks.Load() != 0 {
			t.Errorf("node %d ticked %d times an hour early", p, a.ticks.Load())
		}
	}
	if d, r := as[1].deliveries.Load(), as[1].received.Load(); d != 2 || r != 1 {
		t.Errorf("node 1: %d deliveries, %d messages; want one arrival and one wake", d, r)
	}
	if d, r := as[2].deliveries.Load(), as[2].received.Load(); d != 1 || r != 1 {
		t.Errorf("node 2: %d deliveries, %d messages; want the one arrival", d, r)
	}
}

// TestSlowNodeHoldsThePeersClocksContentOblivious: node 0 spends three
// periods in every Step. Its peers' clocks keep its pace instead of running
// three times as fast and counting it late.
func TestSlowNodeHoldsThePeersClocksContentOblivious(t *testing.T) {
	const tick = 2 * time.Millisecond
	as, ms := newArrivals(3)
	as[0].stall = 3 * tick
	startCluster(t, ms, tick, nil)
	waitFor(t, "the slow node's 20th tick", func() bool { return as[0].ticks.Load() >= 20 })
	slow := as[0].ticks.Load()
	for p := 1; p < 3; p++ {
		// A peer may hold the tick the slow node has yet to take, no more.
		if got := as[p].ticks.Load(); got > slow+2 {
			t.Errorf("node %d is at tick %d, the slow node at %d", p, got, slow)
		}
	}
}

// TestCrashedNodeNeverHoldsTheClockContentOblivious: a crashed node is not
// slow, it is gone: its peers reach tick 2K — time out on it — within 2K
// periods plus slack, not 2K times the skip bound.
func TestCrashedNodeNeverHoldsTheClockContentOblivious(t *testing.T) {
	const (
		tick = 5 * time.Millisecond
		twoK = 8
	)
	as, ms := newArrivals(3)
	as[0].block = make(chan struct{}) // were it still counted, it would hold every tick
	defer close(as[0].block)
	c := startCluster(t, ms, tick, nil)
	waitFor(t, "node 0 to wedge in its first tick", func() bool { return as[0].ticks.Load() == 1 })
	c.Crash(0)
	start, from := time.Now(), as[1].ticks.Load()
	waitFor(t, "tick 2K after the crash", func() bool { return as[1].ticks.Load() >= from+twoK })
	if took := time.Since(start); took > 2*twoK*tick {
		t.Errorf("2K ticks after the crash took %v, want about %v: the crashed node held the clock", took, twoK*tick)
	}
}

// TestWedgedNodeHoldsTheClockOnlyToTheSkipBoundContentOblivious: a node
// stuck in Step but not crashed cannot be told from a slow one, so it
// stretches its peers' ticks — by the skip bound, not for ever.
func TestWedgedNodeHoldsTheClockOnlyToTheSkipBoundContentOblivious(t *testing.T) {
	const tick = 2 * time.Millisecond
	as, ms := newArrivals(3)
	as[0].block = make(chan struct{})
	defer close(as[0].block)
	startCluster(t, ms, tick, nil)
	waitFor(t, "node 0 to wedge in its first tick", func() bool { return as[0].ticks.Load() == 1 })
	start, from := time.Now(), as[1].ticks.Load()
	time.Sleep(150 * time.Millisecond)
	got, periods := as[1].ticks.Load()-from, int64(time.Since(start)/tick)
	// One tick per skip bound + 1 periods: no more (it is held), and — with
	// a factor of four for a busy box — no fewer (it is not frozen).
	if most := periods/(runtime.MaxClockSkips+1) + 2; got > most {
		t.Errorf("%d ticks in %d periods beside a wedged node, want at most %d", got, periods, most)
	}
	if least := periods / (runtime.MaxClockSkips + 1) / 4; got < least {
		t.Errorf("%d ticks in %d periods beside a wedged node, want at least %d", got, periods, least)
	}
}
