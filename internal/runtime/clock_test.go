package runtime_test

// The runtime's three promises, checked on machines that only count: a
// node runs its machine when something arrives and otherwise once per
// TickEvery (no spin), it takes the ticks it owes and none before, and a
// node of a cluster ticks no faster than its slowest live peer — inside a
// group driver because it ticks with them, over supplied transports
// because its loop's gate holds it. The schedules here are wall time and a
// sleep — nothing reads a message: content-oblivious.

import (
	"context"
	goruntime "runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/transport"
	"repro/internal/types"
)

// counter counts its ticks and what they brought, and can be made slow
// (stall), wedged (block) or late once (pause) inside Step. It has Step
// alone, so a node refuses it; arrivals and chatter add Deliver.
type counter struct {
	id       types.ProcID
	ticks    atomic.Int64
	received atomic.Int64
	stall    time.Duration
	block    chan struct{} // non-nil: every Step waits for it to close
	// The first Step sleeps pause and then calls resumed, if set; every
	// Step calls onTick with its tick.
	pause   time.Duration
	resumed func()
	onTick  func(tick int64)
}

func (c *counter) ID() types.ProcID              { return c.id }
func (c *counter) Clock() int                    { return int(c.ticks.Load()) }
func (c *counter) Decision() (types.Value, bool) { return 0, false }
func (c *counter) Halted() bool                  { return false }
func (c *counter) Step(received []types.Message, _ types.Rand) []types.Message {
	tick := c.ticks.Add(1)
	c.received.Add(int64(len(received)))
	if c.onTick != nil {
		c.onTick(tick)
	}
	if tick == 1 && c.pause > 0 {
		time.Sleep(c.pause)
		if c.resumed != nil {
			c.resumed()
		}
	}
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

// startCluster runs machines as a persistent cluster until the test ends,
// over the hub it builds for itself, driven: one driver steps them all.
func startCluster(t *testing.T, machines []types.Machine, tick time.Duration, reg *obs.Registry) *runtime.Cluster {
	t.Helper()
	return startShaped(t, machines, tick, reg, false)
}

// startShaped is startCluster, or, supplied, the cluster over hub endpoints
// it is handed: then each node runs its own loop, gated by its peers.
func startShaped(t *testing.T, machines []types.Machine, tick time.Duration, reg *obs.Registry, supplied bool) *runtime.Cluster {
	t.Helper()
	c := newCluster(t, machines, tick, reg, supplied)
	if !supplied {
		c.Drive()
	}
	startGroups(t, c)
	return c
}

// newCluster builds the persistent cluster startShaped starts, and leaves
// its shape to the start.
func newCluster(t *testing.T, machines []types.Machine, tick time.Duration, reg *obs.Registry, supplied bool) *runtime.Cluster {
	t.Helper()
	var trs []transport.Transport
	if supplied {
		hub := transport.NewHub(len(machines), transport.HubOptions{Registry: reg})
		for p := range machines {
			trs = append(trs, hub.Endpoint(types.ProcID(p)))
		}
	}
	c, err := runtime.NewCluster(machines, trs, runtime.ClusterOptions{
		TickEvery: tick, Seed: 1, Persistent: true, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// startGroups starts clusters together, and stops and joins them when the
// test ends.
func startGroups(t *testing.T, clusters ...*runtime.Cluster) {
	t.Helper()
	runtime.StartGroups(context.Background(), clusters...)
	t.Cleanup(func() {
		for _, c := range clusters {
			c.Stop()
			if err := c.Wait(); err != nil {
				t.Errorf("cluster wait: %v", err)
			}
		}
	})
}

// shapes are the two ways a cluster hosts its nodes.
var shapes = []struct {
	name     string
	supplied bool
}{{"driver", false}, {"per-node", true}}

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

// settledGoroutines counts the goroutines once the number has held still
// for a few milliseconds: an earlier cluster's loop closes its channels
// just before its goroutine returns.
func settledGoroutines() int {
	n := goruntime.NumGoroutine()
	for prev := -1; prev != n; {
		prev = n
		time.Sleep(5 * time.Millisecond)
		n = goruntime.NumGoroutine()
	}
	return n
}

// TestClusterRunsOneGoroutinePerLoopContentOblivious: a running cluster is
// its loops' goroutines and nothing else — no clock beside them. A driven
// group is one driver; over supplied transports it is one loop per node.
func TestClusterRunsOneGoroutinePerLoopContentOblivious(t *testing.T) {
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			_, ms := newArrivals(3)
			before := settledGoroutines()
			startShaped(t, ms, time.Millisecond, nil, shape.supplied)
			want := 1
			if shape.supplied {
				want = len(ms)
			}
			if got := settledGoroutines() - before; got != want {
				t.Errorf("a running %d-node cluster added %d goroutines, want %d", len(ms), got, want)
			}
		})
	}
}

// TestFewerGroupsThanProcsRunPerNodeContentOblivious: at two Ps, one
// cluster over its own hub would leave a core idle on one driver, so its
// nodes run their own loops. Two clusters started together are two groups
// at two Ps: one driver goroutine each. A cluster started later, alone, is
// counted alone — per-node loops — and the running clusters keep their
// shape: a driven group's frames never pass a node's channel, a per-node
// group's do.
func TestFewerGroupsThanProcsRunPerNodeContentOblivious(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(2))
	type group struct {
		name    string
		as      []*arrivals
		c       *runtime.Cluster
		reg     *obs.Registry
		perNode bool
	}
	groups := make([]*group, 4)
	for i, name := range []string{"first alone", "pair 1", "pair 2", "later alone"} {
		g := &group{name: name, reg: obs.NewRegistry(), perNode: i == 0 || i == 3}
		var ms []types.Machine
		g.as, ms = newArrivals(3)
		g.c = newCluster(t, ms, time.Millisecond, g.reg, false)
		groups[i] = g
	}
	before := settledGoroutines()
	for _, step := range []struct {
		start []*group
		added int
	}{
		{groups[:1], 3},         // one loop per node
		{groups[1:3], 3 + 2},    // one driver each
		{groups[3:], 3 + 2 + 3}, // one loop per node, the others unchanged
	} {
		var cs []*runtime.Cluster
		for _, g := range step.start {
			cs = append(cs, g.c)
		}
		startGroups(t, cs...)
		if got := settledGoroutines() - before; got != step.added {
			t.Fatalf("after starting %q: %d goroutines added, want %d", step.start[0].name, got, step.added)
		}
	}
	// A Wake of node 0 sends one frame to node 1, through node 1's channel
	// only in a per-node group.
	for _, g := range groups {
		g.c.Node(0).Wake()
	}
	for _, g := range groups {
		waitFor(t, g.name+"'s frame to arrive", func() bool { return g.as[1].received.Load() == 1 })
		want := uint64(0)
		if g.perNode {
			want = 1
		}
		if got := g.reg.CounterVec("runtime_node_channel_handoffs_total", "", "node").With("1").Value(); got != want {
			t.Errorf("%s: node 1 took %d frames from its channel, want %d", g.name, got, want)
		}
	}
}

// TestIdleClusterTicksAndNothingElseContentOblivious: with nothing to
// deliver a node runs its machine once per TickEvery — never more (no
// spin), and the step counter counts exactly those runs.
func TestIdleClusterTicksAndNothingElseContentOblivious(t *testing.T) {
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			const tick = 2 * time.Millisecond
			as, ms := newArrivals(3)
			reg := obs.NewRegistry()
			start := time.Now()
			startShaped(t, ms, tick, reg, shape.supplied)
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
		})
	}
}

// TestArrivalAndWakeRunTheMachineAtOnceContentOblivious: the clock is an
// hour away, so whatever runs, runs because something arrived. Wake runs
// node 0, whose answer reaches node 1 and runs it; a wake of node 1 runs
// it again, and its answer runs node 2.
func TestArrivalAndWakeRunTheMachineAtOnceContentOblivious(t *testing.T) {
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			as, ms := newArrivals(3)
			c := startShaped(t, ms, time.Hour, nil, shape.supplied)
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
		})
	}
}

// TestSlowNodeHoldsThePeersClocksContentOblivious: node 0 spends three
// periods in every Step. Its peers' clocks keep its pace instead of running
// three times as fast and counting it late.
func TestSlowNodeHoldsThePeersClocksContentOblivious(t *testing.T) {
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			const tick = 2 * time.Millisecond
			as, ms := newArrivals(3)
			as[0].stall = 3 * tick
			startShaped(t, ms, tick, nil, shape.supplied)
			waitFor(t, "the slow node's 20th tick", func() bool { return as[0].ticks.Load() >= 20 })
			slow := as[0].ticks.Load()
			for p := 1; p < 3; p++ {
				// A peer may hold the tick the slow node has yet to take, no more.
				if got := as[p].ticks.Load(); got > slow+2 {
					t.Errorf("node %d is at tick %d, the slow node at %d", p, got, slow)
				}
			}
		})
	}
}

// TestCrashedNodeNeverHoldsTheClockContentOblivious: a crashed node is not
// slow, it is gone: its peers reach tick 2K — time out on it — within 2K
// periods plus slack, not 2K times the skip bound. The nodes run their own
// loops: a machine wedged in a driver would wedge its whole group, whose
// machines share one goroutine.
func TestCrashedNodeNeverHoldsTheClockContentOblivious(t *testing.T) {
	const (
		tick = 5 * time.Millisecond
		twoK = 8
	)
	as, ms := newArrivals(3)
	as[0].block = make(chan struct{}) // were it still counted, it would hold every tick
	defer close(as[0].block)
	c := startShaped(t, ms, tick, nil, true)
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
// stretches its peers' ticks — by the skip bound, not for ever. The gate
// belongs to nodes that run their own loops.
func TestWedgedNodeHoldsTheClockOnlyToTheSkipBoundContentOblivious(t *testing.T) {
	const tick = 2 * time.Millisecond
	as, ms := newArrivals(3)
	as[0].block = make(chan struct{})
	defer close(as[0].block)
	startShaped(t, ms, tick, nil, true)
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

// TestLateNodeOwesOneFiresLatenessContentOblivious: a standalone node owes
// one tick per period since it started, up to one fire's lateness. Its first Step
// takes ten periods. Right after it, the node takes the tick owed now and
// the one a late fire would have dropped at once: not one fewer, as a clock
// that counted fires did, and not ten, which would replay the stall. At no
// time does it read a tick that was not yet owed.
func TestLateNodeOwesOneFiresLatenessContentOblivious(t *testing.T) {
	const tick = 20 * time.Millisecond
	var resumed atomic.Int64
	a := &arrivals{counter: counter{pause: 10 * tick, resumed: func() { resumed.Store(time.Now().UnixNano()) }}, n: 1}
	hub := transport.NewHub(1, transport.HubOptions{})
	t.Cleanup(func() { hub.Close() }) //nolint:errcheck
	// The periods are counted from no later than the node's own start.
	start := time.Now()
	startNode(t, context.Background(), a, hub.Endpoint(0), tick)
	waitFor(t, "the long Step to return", func() bool { return resumed.Load() != 0 })
	released := time.Unix(0, resumed.Load())
	time.Sleep(tick / 2)
	clock, after := a.ticks.Load(), int64(time.Since(start)/tick)
	if clock > after {
		t.Fatalf("clock %d after %d periods: a tick taken before it was owed", clock, after)
	}
	// Tick 1 stalled; ticks 2 and 3 follow at once, and one more for each
	// period begun since the release (none, unless the box is slow).
	begun := after - int64(released.Sub(start)/tick)
	if clock < 3 {
		t.Errorf("clock %d half a period after a ten-period Step: the tick a late fire drops was lost", clock)
	}
	if clock > 3+begun {
		t.Errorf("clock %d half a period after a ten-period Step: the stall was replayed", clock)
	}
}

// TestClusterBesideACrashRepaysAHeldPeriodContentOblivious: node 0 has
// crashed, node 1's first Step takes two and a half periods, and the gate
// holds node 2 for the period node 1 is late. Beside a crashed peer the
// tick node 1 owed and the one node 2 was held for stay owed: within a few
// periods both read the elapsed periods, where a clock that counted fires
// lost one for good. No node ever takes a tick more than one ahead of its
// slowest live peer.
func TestClusterBesideACrashRepaysAHeldPeriodContentOblivious(t *testing.T) {
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			const tick = 20 * time.Millisecond
			var (
				cluster atomic.Pointer[runtime.Cluster]
				bad     atomic.Int64 // a lead over 1 seen
			)
			as, ms := newArrivals(3)
			for p := 1; p < 3; p++ {
				other := types.ProcID(3 - p) // the one live peer
				as[p].onTick = func(at int64) {
					if c := cluster.Load(); c != nil {
						if lead := at - c.Node(other).Taken(); lead > 1 {
							bad.Store(lead)
						}
					}
				}
			}
			var resumed atomic.Bool
			as[1].pause = 5 * tick / 2
			as[1].resumed = func() { resumed.Store(true) }
			start := time.Now()
			c := startShaped(t, ms, tick, nil, shape.supplied)
			c.Crash(0)
			cluster.Store(c)
			waitFor(t, "node 1's long Step to return", resumed.Load)
			// Sample each live clock half a period past each boundary, for ten
			// periods.
			caught := make([]bool, len(as))
			for range 10 {
				time.Sleep(tick - time.Since(start)%tick + tick/2)
				elapsed := int64(time.Since(start) / tick)
				for p := 1; p < 3; p++ {
					clock := as[p].ticks.Load()
					if clock > elapsed {
						t.Fatalf("node %d reads %d after %d periods: a tick taken before it was owed", p, clock, elapsed)
					}
					caught[p] = caught[p] || clock == elapsed
				}
			}
			for p := 1; p < 3; p++ {
				if !caught[p] {
					t.Errorf("node %d never read the elapsed periods after the stall: a held period was lost", p)
				}
			}
			if lead := bad.Load(); lead != 0 {
				t.Errorf("a node took a tick %d ahead of its slowest live peer", lead)
			}
		})
	}
}

// TestLiveClusterLetsALatePeriodPassContentOblivious: every peer is live,
// and node 0's first Step takes two and a half periods. While every peer
// is live a node owes only the tick due, so node 0 lets the period it was
// late for pass and never reads the elapsed periods again: a frame parked
// beside a starved node keeps that period as slack.
func TestLiveClusterLetsALatePeriodPassContentOblivious(t *testing.T) {
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			const tick = 20 * time.Millisecond
			as, ms := newArrivals(3)
			var resumed atomic.Bool
			as[0].pause = 5 * tick / 2
			as[0].resumed = func() { resumed.Store(true) }
			start := time.Now()
			startShaped(t, ms, tick, nil, shape.supplied)
			waitFor(t, "node 0's long Step to return", resumed.Load)
			for range 10 {
				time.Sleep(tick - time.Since(start)%tick + tick/2)
				if clock, elapsed := as[0].ticks.Load(), int64(time.Since(start)/tick); clock >= elapsed {
					t.Fatalf("node 0 reads %d after %d periods: the period it was late for was replayed", clock, elapsed)
				}
			}
		})
	}
}
