package runtime_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/recovery"
	"repro/internal/rng"
	"repro/internal/runtime"
	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/types"
)

// theTxn is the one transaction the cluster tests commit, the one a
// recovery client asks about.
const theTxn txn.ID = recovery.SoleTxn

// managers builds the machine every live path hosts, one transaction
// manager per processor, with processor 0 having begun theTxn and
// processor p voting votes[p] on it.
func managers(t *testing.T, n, k int, votes []types.Value) []*txn.Manager {
	t.Helper()
	out := make([]*txn.Manager, n)
	for i := range out {
		vote := votes[i] == types.V1
		m, err := txn.NewManager(txn.Config{
			ID: types.ProcID(i), N: n, K: k,
			Vote: func(txn.ID) bool { return vote },
		})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = m
	}
	if err := out[0].Begin(theTxn, votes[0] == types.V1); err != nil {
		t.Fatal(err)
	}
	return out
}

// decisions reads every manager's decision on theTxn (DecisionNone where
// it has none).
func decisions(ms []*txn.Manager) []types.Decision {
	out := make([]types.Decision, len(ms))
	for p, m := range ms {
		out[p], _ = m.DecisionOf(theTxn)
	}
	return out
}

// unanimous reports whether every manager decided want on theTxn.
func unanimous(ms []*txn.Manager, want types.Decision) bool {
	for _, d := range decisions(ms) {
		if d != want {
			return false
		}
	}
	return true
}

func votesOf(n int, v types.Value) []types.Value {
	out := make([]types.Value, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestClusterAllCommit(t *testing.T) {
	n := 5
	ms := managers(t, n, 8, votesOf(n, types.V1))
	c, err := runtime.NewCluster(types.Machines(ms), nil, runtime.ClusterOptions{
		TickEvery: time.Millisecond, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !unanimous(ms, types.DecisionCommit) {
		t.Fatalf("decisions = %v, want unanimous COMMIT", decisions(ms))
	}
}

func TestClusterAbortVote(t *testing.T) {
	n := 5
	votes := votesOf(n, types.V1)
	votes[3] = types.V0
	ms := managers(t, n, 8, votes)
	c, err := runtime.NewCluster(types.Machines(ms), nil, runtime.ClusterOptions{
		TickEvery: time.Millisecond, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !unanimous(ms, types.DecisionAbort) {
		t.Fatalf("decisions = %v, want unanimous ABORT", decisions(ms))
	}
}

// agreed fails the test if two of ds are different decisions, or if one
// of the processors in mustDecide has none.
func agreed(t *testing.T, ds []types.Decision, mustDecide int) {
	t.Helper()
	seen := types.DecisionNone
	for p, d := range ds {
		if d == types.DecisionNone {
			if p < mustDecide {
				t.Fatalf("processor %d undecided: %v", p, ds)
			}
			continue
		}
		if seen != types.DecisionNone && d != seen {
			t.Fatalf("deciders disagree: %v", ds)
		}
		seen = d
	}
}

func TestClusterSurvivesMinorityCrash(t *testing.T) {
	n := 5 // t = 2
	ms := managers(t, n, 10, votesOf(n, types.V1))
	c, err := runtime.NewCluster(types.Machines(ms), nil, runtime.ClusterOptions{
		TickEvery: time.Millisecond, Seed: 3, MaxTicks: 4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Crash two nodes shortly after start: within t = 2, so the rest
	// must still decide — and agree.
	c.CrashAfter(3, 12*time.Millisecond)
	c.CrashAfter(4, 15*time.Millisecond)
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	agreed(t, decisions(ms), 3)
}

func TestClusterSlowNetworkStaysSafe(t *testing.T) {
	// Latency far above K ticks: the run is "late", so commit is not
	// guaranteed — but whatever happens must be unanimous among deciders.
	n := 3
	ms := managers(t, n, 2, votesOf(n, types.V1))
	c, err := runtime.NewCluster(types.Machines(ms), nil, runtime.ClusterOptions{
		TickEvery: time.Millisecond, Seed: 4, MaxTicks: 3000,
		Hub: transport.HubOptions{
			Inject: func(types.Message) transport.Fault { return transport.Fault{Delay: 15 * time.Millisecond} },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	agreed(t, decisions(ms), 0)
}

func TestClusterOverTCP(t *testing.T) {
	n := 3
	ms := managers(t, n, 8, votesOf(n, types.V1))
	nodesT := make([]*transport.TCPNode, n)
	peers := make(map[types.ProcID]string, n)
	for i := 0; i < n; i++ {
		tn, err := transport.ListenTCP(types.ProcID(i), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer tn.Close() //nolint:errcheck
		nodesT[i] = tn
		peers[types.ProcID(i)] = tn.Addr()
	}
	seeds := rng.NewCollection(77, n)
	nodes := make([]*runtime.Node, n)
	for i := 0; i < n; i++ {
		nodesT[i].SetPeers(peers)
		node, err := runtime.NewNode(runtime.NodeConfig{
			Machine:   ms[i],
			Transport: nodesT[i],
			Rand:      seeds.Stream(types.ProcID(i)),
			TickEvery: time.Millisecond,
			MaxTicks:  4000,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	ctx := context.Background()
	for _, nd := range nodes {
		nd.Start(ctx)
	}
	for _, nd := range nodes {
		if err := nd.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if !unanimous(ms, types.DecisionCommit) {
		t.Fatalf("decisions = %v, want unanimous COMMIT", decisions(ms))
	}
}

func TestNodeConfigValidation(t *testing.T) {
	hub := transport.NewHub(1, transport.HubOptions{})
	defer hub.Close() //nolint:errcheck
	m := managers(t, 1, 2, votesOf(1, types.V1))[0]
	bad := []runtime.NodeConfig{
		{Transport: hub.Endpoint(0), Rand: rng.NewStream(1)},
		{Machine: m, Rand: rng.NewStream(1)},
		{Machine: m, Transport: hub.Endpoint(0)},
		// Every live machine takes deliveries; one with Step alone is refused.
		{Machine: &counter{}, Transport: hub.Endpoint(0), Rand: rng.NewStream(1)},
	}
	for i, cfg := range bad {
		if _, err := runtime.NewNode(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	if _, err := runtime.NewCluster(nil, nil, runtime.ClusterOptions{}); err == nil {
		t.Error("empty cluster accepted")
	}
}

func TestNodeStop(t *testing.T) {
	hub := transport.NewHub(1, transport.HubOptions{})
	defer hub.Close() //nolint:errcheck
	m := managers(t, 1, 2, votesOf(1, types.V1))[0]
	node, err := runtime.NewNode(runtime.NodeConfig{
		Machine: m, Transport: hub.Endpoint(0), Rand: rng.NewStream(1),
		TickEvery: time.Millisecond, MaxTicks: 1_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	node.Start(context.Background())
	node.Stop()
	node.Stop() // idempotent
	select {
	case <-node.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("node did not stop")
	}
}

func TestClusterContextCancellation(t *testing.T) {
	n := 3
	c, err := runtime.NewCluster(types.Machines(managers(t, n, 1000, votesOf(n, types.V1))), nil, runtime.ClusterOptions{
		TickEvery: time.Millisecond, Seed: 5, MaxTicks: 1_000_000,
		Hub: transport.HubOptions{Inject: func(types.Message) transport.Fault { return transport.Fault{Drop: true} }},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := c.Run(ctx); err == nil {
		t.Fatal("expected context error from a starved cluster")
	}
}

// TestPersistentClusterStopDrain: persistent nodes outlive machine
// quiescence (the service lifecycle) and a Stop/Wait pair drains cleanly.
func TestPersistentClusterStopDrain(t *testing.T) {
	n := 3
	ms := managers(t, n, 6, votesOf(n, types.V1))
	c, err := runtime.NewCluster(types.Machines(ms), nil, runtime.ClusterOptions{
		TickEvery: time.Millisecond, Seed: 4, Persistent: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start(context.Background())
	// Every machine decides, halts — and the nodes keep running anyway.
	waitFor(t, "every manager to decide", func() bool { return unanimous(ms, types.DecisionCommit) })
	waitFor(t, "every manager to halt", func() bool { return ms[0].Halted() && ms[1].Halted() && ms[2].Halted() })
	time.Sleep(20 * time.Millisecond) // well past halt+linger
	select {
	case <-c.Node(0).Done():
		t.Fatal("persistent node exited on its own")
	default:
	}
	c.Stop()
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if !unanimous(ms, types.DecisionCommit) {
		t.Fatalf("decisions = %v, want unanimous COMMIT", decisions(ms))
	}
}

// TestCrashAfterClusterClose: a CrashAfter whose timer would fire after
// the cluster has been waited out must be a no-op — no touching the
// closed hub, no phantom crash metrics or milestones (regression: the
// timer used to be unguarded).
func TestCrashAfterClusterClose(t *testing.T) {
	n := 3
	reg := obs.NewRegistry()
	spans := span.NewCollector(0)
	c, err := runtime.NewCluster(types.Machines(managers(t, n, 6, votesOf(n, types.V1))), nil, runtime.ClusterOptions{
		TickEvery: time.Millisecond, Seed: 11, Registry: reg, Spans: spans,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Schedule a crash far beyond the run's lifetime, and one as the run
	// completes (racing Wait) — neither may fire into the closed hub.
	c.CrashAfter(1, time.Hour)
	c.CrashAfter(2, 30*time.Millisecond)
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Scheduling after close is likewise inert.
	c.CrashAfter(0, time.Nanosecond)
	time.Sleep(50 * time.Millisecond) // let any stray timer fire
	crashCount := func(node string) uint64 {
		return reg.CounterVec("runtime_node_crashes_total", "", "node").With(node).Value()
	}
	if crashes := crashCount("1") + crashCount("0"); crashes != 0 {
		t.Errorf("crash fired after cluster close (count=%d)", crashes)
	}
	for _, s := range spans.Graph().Spans {
		if s.Name == span.EventCrash && (s.Track == span.ProcTrack(0) || s.Track == span.ProcTrack(1)) {
			t.Errorf("phantom crash milestone on %s", s.Track)
		}
	}
	// And a direct Crash after close is a guarded no-op too.
	c.Crash(0)
	if got := crashCount("0"); got != 0 {
		t.Errorf("direct crash after close counted (%d)", got)
	}
}

// TestRestartOverSuppliedTransportsIsNoop: a cluster over transports it
// was handed has no hub to reconnect a crashed node at; Restart must
// refuse and leave it crashed, not dereference the missing hub.
func TestRestartOverSuppliedTransportsIsNoop(t *testing.T) {
	n := 3
	hub := transport.NewHub(n, transport.HubOptions{})
	trs := make([]transport.Transport, n)
	for p := range trs {
		trs[p] = hub.Endpoint(types.ProcID(p))
	}
	spans := span.NewCollector(0)
	c, err := runtime.NewCluster(types.Machines(managers(t, n, 6, votesOf(n, types.V1))), trs, runtime.ClusterOptions{
		TickEvery: time.Millisecond, Seed: 12, Persistent: true, Spans: spans,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start(context.Background())
	c.Crash(2)
	if node, err := c.Restart(2, nil); err == nil || node != nil {
		t.Errorf("Restart over supplied transports = %v, %v; want a refusal", node, err)
	}
	c.Stop()
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, s := range spans.Graph().Spans {
		if s.Name == span.EventRecover {
			t.Fatalf("Restart recorded a recovery it cannot perform: %+v", s)
		}
	}
}
