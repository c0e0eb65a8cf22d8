package tcommit_test

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	tcommit "repro"
)

func allTrue(n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = true
	}
	return out
}

func TestSimulateCommit(t *testing.T) {
	res, err := tcommit.Simulate(tcommit.Config{N: 5, Seed: 1}, allTrue(5))
	if err != nil {
		t.Fatal(err)
	}
	d, ok := res.Unanimous()
	if !ok || d != tcommit.Commit {
		t.Fatalf("decisions = %v", res.Decisions)
	}
	if res.Blocked || !res.OnTime {
		t.Fatalf("blocked=%v onTime=%v", res.Blocked, res.OnTime)
	}
	if res.Rounds <= 0 || res.Rounds > 14 {
		t.Errorf("rounds = %d, want within the paper's 14-round expectation", res.Rounds)
	}
	if res.MaxDecisionClock > 8*4 {
		t.Errorf("decision clock %d exceeds 8K", res.MaxDecisionClock)
	}
	if res.Messages <= 0 || res.Steps <= 0 {
		t.Errorf("missing accounting: %+v", res)
	}
}

func TestSimulateAbortVote(t *testing.T) {
	votes := allTrue(5)
	votes[2] = false
	res, err := tcommit.Simulate(tcommit.Config{N: 5, Seed: 2}, votes)
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := res.Unanimous(); !ok || d != tcommit.Abort {
		t.Fatalf("decisions = %v, want unanimous abort", res.Decisions)
	}
}

func TestSimulateWithCrashes(t *testing.T) {
	res, err := tcommit.Simulate(tcommit.Config{N: 7, Seed: 3}, allTrue(7),
		tcommit.WithCrash(5, 2), tcommit.WithCrash(6, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocked {
		t.Fatal("two crashes with t=3 must not block")
	}
	if !res.Crashed[5] || !res.Crashed[6] {
		t.Fatalf("crashes not applied: %v", res.Crashed)
	}
	if _, ok := res.Unanimous(); !ok {
		t.Fatalf("survivors split: %v", res.Decisions)
	}
}

func TestSimulateOverloadBlocksSafely(t *testing.T) {
	res, err := tcommit.Simulate(tcommit.Config{N: 5, Seed: 4}, allTrue(5),
		tcommit.WithCrash(1, 0), tcommit.WithCrash(2, 0),
		tcommit.WithCrash(3, 0), tcommit.WithCrash(4, 0),
		tcommit.WithStepBudget(10_000))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Blocked {
		t.Fatal("4 of 5 crashed: expected blocking")
	}
}

func TestSimulateRandomSchedulingStaysSafe(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		res, err := tcommit.Simulate(tcommit.Config{N: 5, Seed: seed}, allTrue(5),
			tcommit.WithRandomScheduling(seed*31+7))
		if err != nil {
			t.Fatal(err) // Simulate itself checks agreement
		}
		if res.Blocked {
			t.Fatalf("seed %d blocked under fair random scheduling", seed)
		}
	}
}

func TestSimulateBoundedDelayIsLate(t *testing.T) {
	res, err := tcommit.Simulate(tcommit.Config{N: 5, K: 2, Seed: 5}, allTrue(5),
		tcommit.WithBoundedDelay(10), tcommit.WithStepBudget(400_000))
	if err != nil {
		t.Fatal(err)
	}
	if res.OnTime {
		t.Fatal("10-step delays with K=2 must register as late")
	}
	if _, ok := res.Unanimous(); !ok {
		t.Fatalf("split or blocked: %v", res.Decisions)
	}
}

func TestSimulatePartition(t *testing.T) {
	res, err := tcommit.Simulate(tcommit.Config{N: 5, K: 2, Seed: 6}, allTrue(5),
		tcommit.WithPartition([]int{0, 0, 1, 1, 1}, 150))
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := res.Unanimous(); !ok || d != tcommit.Abort {
		t.Fatalf("partitioned run = %v, want unanimous abort after healing", res.Decisions)
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := tcommit.Simulate(tcommit.Config{N: 0}, nil); err == nil {
		t.Error("N=0 accepted")
	}
	if _, err := tcommit.Simulate(tcommit.Config{N: 4, T: 2}, allTrue(4)); err == nil {
		t.Error("N<=2T accepted")
	}
	if _, err := tcommit.Simulate(tcommit.Config{N: 3}, allTrue(2)); err == nil {
		t.Error("vote count mismatch accepted")
	}
	if _, err := tcommit.Simulate(tcommit.Config{N: 3, K: -1}, allTrue(3)); err == nil {
		t.Error("negative K accepted")
	}
	if _, err := tcommit.Simulate(tcommit.Config{N: 3, CoinFactor: -1}, allTrue(3)); err == nil {
		t.Error("negative coin factor accepted")
	}
}

func TestClusterLifecycle(t *testing.T) {
	c, err := tcommit.NewCluster(tcommit.Config{N: 5, K: 8, Seed: 7}, allTrue(5),
		tcommit.WithTick(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := out.Unanimous(); !ok || d != tcommit.Commit {
		t.Fatalf("decisions = %v", out.Decisions)
	}
}

// TestClusterFrameBudget: a cluster runs the serving machine, so a
// failure-free commit at n = 3 puts at most 30 frames on the hub — five
// broadcasts per processor (GO or its relay, vote, report, proposal,
// DECIDED) to two peers each, fewer when a DECIDED overtakes a round. The
// scalar machine sent 42. K is generous so no timeout can fire.
func TestClusterFrameBudget(t *testing.T) {
	var frames atomic.Int64
	c, err := tcommit.NewCluster(tcommit.Config{N: 3, K: 50, Seed: 10}, allTrue(3),
		tcommit.WithTick(time.Millisecond),
		tcommit.WithNetworkLoss(func(from, to tcommit.ProcID) bool {
			frames.Add(1)
			return false
		}))
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := out.Unanimous(); !ok || d != tcommit.Commit {
		t.Fatalf("decisions = %v", out.Decisions)
	}
	if got := frames.Load(); got > 30 {
		t.Fatalf("the hub carried %d frames, want at most 30", got)
	}
}

func TestClusterWithInjectedFaults(t *testing.T) {
	c, err := tcommit.NewCluster(tcommit.Config{N: 5, K: 10, Seed: 8}, allTrue(5),
		tcommit.WithTick(time.Millisecond),
		tcommit.WithMaxTicks(4000),
		tcommit.WithNetworkDelay(func(from, to tcommit.ProcID) time.Duration {
			if from == 1 && to == 3 {
				return 3 * time.Millisecond
			}
			return 0
		}))
	if err != nil {
		t.Fatal(err)
	}
	c.CrashAfter(4, 15*time.Millisecond)
	out, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// One crash within t=2: survivors must agree.
	var d tcommit.Decision
	for p := 0; p < 4; p++ {
		dp := out.Decisions[p]
		if dp == tcommit.None {
			t.Fatalf("survivor %d undecided", p)
		}
		if d == tcommit.None {
			d = dp
		} else if d != dp {
			t.Fatalf("split decisions: %v", out.Decisions)
		}
	}
}

func TestTCPNodes(t *testing.T) {
	cfg := tcommit.Config{N: 3, K: 10, Seed: 9}
	specs := make([]*tcommit.Node, 3)
	peers := make(map[tcommit.ProcID]string)
	for i := 0; i < 3; i++ {
		n, err := tcommit.StartNode(cfg, tcommit.NodeSpec{
			ID: tcommit.ProcID(i), Listen: "127.0.0.1:0", Vote: true,
			TickEvery: time.Millisecond, MaxTicks: 4000,
		})
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = n
		peers[tcommit.ProcID(i)] = n.Addr()
	}
	for _, n := range specs {
		n.SetPeers(peers)
	}
	type result struct {
		d   tcommit.Decision
		err error
	}
	results := make(chan result, 3)
	for _, n := range specs {
		n := n
		go func() {
			d, err := n.Run(context.Background())
			results <- result{d, err}
		}()
	}
	for i := 0; i < 3; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.d != tcommit.Commit {
			t.Fatalf("TCP node decided %v, want commit", r.d)
		}
	}
}

func TestStartNodeValidation(t *testing.T) {
	if _, err := tcommit.StartNode(tcommit.Config{N: 3}, tcommit.NodeSpec{ID: 9, Listen: "127.0.0.1:0"}); err == nil {
		t.Error("out-of-range node id accepted")
	}
	if _, err := tcommit.StartNode(tcommit.Config{N: 0}, tcommit.NodeSpec{}); err == nil {
		t.Error("bad config accepted")
	}
}

func TestSimulateDeterminism(t *testing.T) {
	a, err := tcommit.Simulate(tcommit.Config{N: 5, Seed: 42}, allTrue(5),
		tcommit.WithRandomScheduling(99))
	if err != nil {
		t.Fatal(err)
	}
	b, err := tcommit.Simulate(tcommit.Config{N: 5, Seed: 42}, allTrue(5),
		tcommit.WithRandomScheduling(99))
	if err != nil {
		t.Fatal(err)
	}
	if a.Steps != b.Steps || a.Messages != b.Messages || a.Rounds != b.Rounds {
		t.Fatalf("same-seed runs differ: %+v vs %+v", a, b)
	}
}

func TestSimulateWithLateMessage(t *testing.T) {
	// The "single late message" scenario against this protocol: safety
	// holds (unanimous outcome) and the run registers as late.
	res, err := tcommit.Simulate(tcommit.Config{N: 5, K: 2, Seed: 31}, allTrue(5),
		tcommit.WithLateMessage(0, 2, 1, 200))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Blocked {
		if _, ok := res.Unanimous(); !ok {
			t.Fatalf("split outcome under lateness: %v", res.Decisions)
		}
	}
}

func TestClusterWithNetworkLoss(t *testing.T) {
	// Drop a slice of cross traffic: timeouts convert loss into abort (or
	// the redundancy rides it out into commit) — never into a split.
	drop := 0
	c, err := tcommit.NewCluster(tcommit.Config{N: 5, K: 8, Seed: 33}, allTrue(5),
		tcommit.WithTick(time.Millisecond),
		tcommit.WithMaxTicks(3000),
		tcommit.WithNetworkLoss(func(from, to tcommit.ProcID) bool {
			if from == 1 && to == 4 {
				drop++
				return true
			}
			return false
		}))
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var d tcommit.Decision
	for p, dp := range out.Decisions {
		if dp == tcommit.None {
			continue
		}
		if d == tcommit.None {
			d = dp
		} else if d != dp {
			t.Fatalf("split decisions under loss: %v (proc %d)", out.Decisions, p)
		}
	}
	if drop == 0 {
		t.Fatal("loss injector never fired")
	}
}
