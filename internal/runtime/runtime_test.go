package runtime_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/runtime"
	"repro/internal/transport"
	"repro/internal/types"
)

func commitMachines(t *testing.T, n, k int, votes []types.Value) []types.Machine {
	t.Helper()
	out := make([]types.Machine, n)
	for i := 0; i < n; i++ {
		m, err := core.New(core.Config{
			ID: types.ProcID(i), N: n, T: (n - 1) / 2, K: k,
			Vote: votes[i], Gadget: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = m
	}
	return out
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
	c, err := runtime.NewLocalCluster(commitMachines(t, n, 8, votesOf(n, types.V1)), runtime.ClusterOptions{
		TickEvery: time.Millisecond, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	d, ok := res.Unanimous()
	if !ok || d != types.DecisionCommit {
		t.Fatalf("decisions = %v (unanimous=%v %v)", res.Decisions(), d, ok)
	}
}

func TestClusterAbortVote(t *testing.T) {
	n := 5
	votes := votesOf(n, types.V1)
	votes[3] = types.V0
	c, err := runtime.NewLocalCluster(commitMachines(t, n, 8, votes), runtime.ClusterOptions{
		TickEvery: time.Millisecond, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	d, ok := res.Unanimous()
	if !ok || d != types.DecisionAbort {
		t.Fatalf("decisions = %v", res.Decisions())
	}
}

func TestClusterSurvivesMinorityCrash(t *testing.T) {
	n := 5 // t = 2
	c, err := runtime.NewLocalCluster(commitMachines(t, n, 10, votesOf(n, types.V1)), runtime.ClusterOptions{
		TickEvery: time.Millisecond, Seed: 3, MaxTicks: 4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Crash two nodes shortly after start: within t = 2, so the rest
	// must still decide — and agree.
	c.CrashAfter(3, 12*time.Millisecond)
	c.CrashAfter(4, 15*time.Millisecond)
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var dec *types.Value
	for p := 0; p < 3; p++ {
		if !res.Decided[p] {
			t.Fatalf("survivor %d undecided", p)
		}
		v := res.Values[p]
		if dec == nil {
			dec = &v
		} else if *dec != v {
			t.Fatalf("survivors disagree: %v", res.Values)
		}
	}
}

func TestClusterSlowNetworkStaysSafe(t *testing.T) {
	// Latency far above K ticks: the run is "late", so commit is not
	// guaranteed — but whatever happens must be unanimous among deciders.
	n := 3
	c, err := runtime.NewLocalCluster(commitMachines(t, n, 2, votesOf(n, types.V1)), runtime.ClusterOptions{
		TickEvery: time.Millisecond, Seed: 4, MaxTicks: 3000,
		Hub: transport.HubOptions{
			Inject: func(types.Message) transport.Fault { return transport.Fault{Delay: 15 * time.Millisecond} },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var seen *types.Value
	for p := 0; p < n; p++ {
		if !res.Decided[p] {
			continue
		}
		v := res.Values[p]
		if seen == nil {
			seen = &v
		} else if *seen != v {
			t.Fatalf("deciders disagree: %v", res.Values)
		}
	}
}

func TestClusterOverTCP(t *testing.T) {
	n := 3
	machines := commitMachines(t, n, 8, votesOf(n, types.V1))
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
			Machine:   machines[i],
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
	for i, m := range machines {
		v, ok := m.Decision()
		if !ok || v != types.V1 {
			t.Fatalf("node %d: decision=%v ok=%v, want commit", i, v, ok)
		}
	}
}

func TestNodeConfigValidation(t *testing.T) {
	hub := transport.NewHub(1, transport.HubOptions{})
	defer hub.Close() //nolint:errcheck
	m := commitMachines(t, 1, 2, votesOf(1, types.V1))[0]
	bad := []runtime.NodeConfig{
		{Transport: hub.Endpoint(0), Rand: rng.NewStream(1)},
		{Machine: m, Rand: rng.NewStream(1)},
		{Machine: m, Transport: hub.Endpoint(0)},
	}
	for i, cfg := range bad {
		if _, err := runtime.NewNode(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	if _, err := runtime.NewLocalCluster(nil, runtime.ClusterOptions{}); err == nil {
		t.Error("empty cluster accepted")
	}
}

func TestNodeStop(t *testing.T) {
	hub := transport.NewHub(1, transport.HubOptions{})
	defer hub.Close() //nolint:errcheck
	m := commitMachines(t, 1, 2, votesOf(1, types.V1))[0]
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
	c, err := runtime.NewLocalCluster(commitMachines(t, n, 1000, votesOf(n, types.V1)), runtime.ClusterOptions{
		TickEvery: time.Millisecond, Seed: 5, MaxTicks: 1_000_000,
		Hub: transport.HubOptions{Inject: func(types.Message) transport.Fault { return transport.Fault{Drop: true} }},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := c.Run(ctx); err == nil {
		t.Fatal("expected context error from a starved cluster")
	}
}

func TestUnanimousHelper(t *testing.T) {
	r := &runtime.ClusterResult{Decided: []bool{true, true}, Values: []types.Value{1, 1}}
	if d, ok := r.Unanimous(); !ok || d != types.DecisionCommit {
		t.Errorf("unanimous = %v %v", d, ok)
	}
	r2 := &runtime.ClusterResult{Decided: []bool{true, false}, Values: []types.Value{1, 0}}
	if _, ok := r2.Unanimous(); ok {
		t.Error("partial decision reported unanimous")
	}
	r3 := &runtime.ClusterResult{Decided: []bool{true, true}, Values: []types.Value{1, 0}}
	if _, ok := r3.Unanimous(); ok {
		t.Error("split decision reported unanimous")
	}
	if d, ok := (&runtime.ClusterResult{}).Unanimous(); ok || d != types.DecisionNone {
		t.Error("empty result reported unanimous")
	}
}

func TestOnDecisionCallback(t *testing.T) {
	n := 3
	var mu sync.Mutex
	got := make(map[types.ProcID]types.Value)
	c, err := runtime.NewLocalCluster(commitMachines(t, n, 8, votesOf(n, types.V1)), runtime.ClusterOptions{
		TickEvery: time.Millisecond, Seed: 10,
		OnDecision: func(p types.ProcID, v types.Value) {
			mu.Lock()
			defer mu.Unlock()
			if _, dup := got[p]; dup {
				t.Errorf("OnDecision fired twice for %d", p)
			}
			got[p] = v
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != n {
		t.Fatalf("OnDecision fired for %d of %d nodes", len(got), n)
	}
	for p, v := range got {
		if v != types.V1 {
			t.Errorf("node %d callback value %v", p, v)
		}
	}
}

// TestPersistentClusterStopDrain: persistent nodes outlive machine
// quiescence (the service lifecycle) and a Stop/Wait pair drains cleanly.
func TestPersistentClusterStopDrain(t *testing.T) {
	n := 3
	machines := commitMachines(t, n, 6, votesOf(n, types.V1))
	decided := make(chan types.ProcID, n)
	c, err := runtime.NewLocalCluster(machines, runtime.ClusterOptions{
		TickEvery: time.Millisecond, Seed: 4, Persistent: true,
		OnDecision: func(p types.ProcID, v types.Value) { decided <- p },
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start(context.Background())
	// Every machine decides, halts — and the nodes keep running anyway.
	for i := 0; i < n; i++ {
		select {
		case <-decided:
		case <-time.After(10 * time.Second):
			t.Fatal("cluster never decided")
		}
	}
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
	d, ok := c.Result().Unanimous()
	if !ok || d != types.DecisionCommit {
		t.Fatalf("unanimous = %v %v", d, ok)
	}
}

// TestCrashAfterClusterClose: a CrashAfter whose timer would fire after
// the cluster has been waited out must be a no-op — no touching the
// closed hub, no phantom crash metrics or trace events (regression: the
// timer used to be unguarded).
func TestCrashAfterClusterClose(t *testing.T) {
	n := 3
	reg := obs.NewRegistry()
	tr := obs.NewTracer(64)
	c, err := runtime.NewLocalCluster(commitMachines(t, n, 6, votesOf(n, types.V1)), runtime.ClusterOptions{
		TickEvery: time.Millisecond, Seed: 11, Registry: reg, Tracer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Schedule a crash far beyond the run's lifetime, and one as the run
	// completes (racing Wait) — neither may fire into the closed hub.
	c.CrashAfter(1, time.Hour)
	c.CrashAfter(2, 30*time.Millisecond)
	if _, err := c.Run(context.Background()); err != nil {
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
	for _, e := range tr.Recent(0) {
		if e.Type == obs.EventCrash && (e.Node == 0 || e.Node == 1) {
			t.Errorf("phantom crash trace event for node %d", e.Node)
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
// leave it crashed, not dereference the missing hub.
func TestRestartOverSuppliedTransportsIsNoop(t *testing.T) {
	n := 3
	hub := transport.NewHub(n, transport.HubOptions{})
	trs := make([]transport.Transport, n)
	for p := range trs {
		trs[p] = hub.Endpoint(types.ProcID(p))
	}
	tr := obs.NewTracer(64)
	c, err := runtime.NewCluster(commitMachines(t, n, 6, votesOf(n, types.V1)), trs, runtime.ClusterOptions{
		TickEvery: time.Millisecond, Seed: 12, Persistent: true, Tracer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start(context.Background())
	c.Crash(2)
	c.Restart(2)
	c.Stop()
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, e := range tr.Recent(0) {
		if e.Type == obs.EventRecover {
			t.Fatalf("Restart recorded a recovery it cannot perform: %+v", e)
		}
	}
}
