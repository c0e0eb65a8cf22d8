package txn_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/rng"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/txn"
	"repro/internal/types"
)

// buildManagers wires n managers with the given per-node, per-transaction
// votes.
func buildManagers(t *testing.T, n int, votes map[txn.ID][]bool) ([]*txn.Manager, []types.Machine) {
	t.Helper()
	managers := make([]*txn.Manager, n)
	machines := make([]types.Machine, n)
	for p := 0; p < n; p++ {
		p := p
		mgr, err := txn.NewManager(txn.Config{
			ID: types.ProcID(p), N: n, K: 3,
			Vote: func(id txn.ID) bool {
				vs, ok := votes[id]
				return ok && vs[p]
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		managers[p] = mgr
		machines[p] = mgr
	}
	return managers, machines
}

// runManagers drives the cluster until every listed transaction decided
// everywhere (or the budget expires).
func runManagers(t *testing.T, managers []*txn.Manager, machines []types.Machine, ids []txn.ID, adv sim.Adversary, seed uint64) *sim.Result {
	t.Helper()
	res, err := sim.Run(sim.Config{
		K: 3, Machines: machines, Adversary: adv,
		Seeds:    rng.NewCollection(seed, len(machines)),
		MaxSteps: 100_000,
		StopWhen: func(r *sim.Result) bool {
			for _, mgr := range managers {
				if mgrCrashed(r, mgr) {
					continue
				}
				for _, id := range ids {
					if _, ok := mgr.DecisionOf(id); !ok {
						return false
					}
				}
			}
			return true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func mgrCrashed(r *sim.Result, mgr *txn.Manager) bool {
	return r.Crashed[mgr.ID()]
}

func TestConcurrentTransactionsIndependentOutcomes(t *testing.T) {
	n := 5
	votes := map[txn.ID][]bool{
		"tx-commit": {true, true, true, true, true},
		"tx-abort":  {true, true, false, true, true},
		"tx-third":  {true, true, true, true, true},
	}
	managers, machines := buildManagers(t, n, votes)
	// Different coordinators for different transactions.
	if err := managers[0].Begin("tx-commit", true); err != nil {
		t.Fatal(err)
	}
	if err := managers[2].Begin("tx-abort", false); err != nil {
		t.Fatal(err)
	}
	if err := managers[4].Begin("tx-third", true); err != nil {
		t.Fatal(err)
	}
	ids := []txn.ID{"tx-commit", "tx-abort", "tx-third"}
	res := runManagers(t, managers, machines, ids, &adversary.RoundRobin{}, 1)
	if res.Exhausted {
		t.Fatal("transactions did not all decide")
	}
	want := map[txn.ID]types.Decision{
		"tx-commit": types.DecisionCommit,
		"tx-abort":  types.DecisionAbort,
		"tx-third":  types.DecisionCommit,
	}
	for _, id := range ids {
		for p, mgr := range managers {
			d, ok := mgr.DecisionOf(id)
			if !ok {
				t.Fatalf("node %d has no decision for %s", p, id)
			}
			if d != want[id] {
				t.Fatalf("node %d decided %v for %s, want %v", p, d, id, want[id])
			}
		}
	}
}

func TestTransactionsSurviveCrash(t *testing.T) {
	n := 5 // t = 2
	votes := map[txn.ID][]bool{
		"a": {true, true, true, true, true},
		"b": {true, true, true, true, true},
	}
	managers, machines := buildManagers(t, n, votes)
	if err := managers[0].Begin("a", true); err != nil {
		t.Fatal(err)
	}
	if err := managers[1].Begin("b", true); err != nil {
		t.Fatal(err)
	}
	adv := &adversary.Crash{
		Inner: &adversary.RoundRobin{},
		Plan:  []adversary.CrashPlan{{Proc: 4, AtClock: 5}},
	}
	res := runManagers(t, managers, machines, []txn.ID{"a", "b"}, adv, 2)
	if res.Exhausted {
		t.Fatal("crash within tolerance blocked the batch")
	}
	// Survivors must agree per transaction (either outcome is legal once
	// a crash perturbs timing).
	for _, id := range []txn.ID{"a", "b"} {
		var seen *types.Decision
		for p := 0; p < 4; p++ {
			d, ok := managers[p].DecisionOf(id)
			if !ok {
				t.Fatalf("survivor %d undecided on %s", p, id)
			}
			if seen == nil {
				seen = &d
			} else if *seen != d {
				t.Fatalf("split decision on %s", id)
			}
		}
	}
}

func TestManagerValidation(t *testing.T) {
	bad := []txn.Config{
		{ID: 0, N: 0},
		{ID: 9, N: 3},
		{ID: 0, N: 4, T: 2},
		{ID: 0, N: 3, K: -1},
	}
	for i, cfg := range bad {
		if _, err := txn.NewManager(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	mgr, err := txn.NewManager(txn.Config{ID: 0, N: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Begin("x", true); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Begin("x", true); err == nil {
		t.Error("duplicate Begin accepted")
	}
	if _, ok := mgr.DecisionOf("unknown"); ok {
		t.Error("unknown transaction has a decision")
	}
	if got := mgr.Active(); got != 1 {
		t.Errorf("active instances = %d, want x's", got)
	}
}

func TestEnvelopeKindAndSize(t *testing.T) {
	e := txn.Envelope{Txn: "t1", Inner: nil}
	if e.Kind() != "txn.envelope" {
		t.Errorf("empty envelope kind = %q", e.Kind())
	}
	e2 := txn.Envelope{Txn: "t1", Inner: fakeInner{}}
	if e2.Kind() != "txn:fake" {
		t.Errorf("kind = %q", e2.Kind())
	}
	if types.SizeOf(e2) != types.DefaultPayloadBits+64 {
		t.Errorf("size = %d", types.SizeOf(e2))
	}
}

type fakeInner struct{}

func (fakeInner) Kind() string { return "fake" }

func TestManagerIgnoresForeignPayloads(t *testing.T) {
	mgr, err := txn.NewManager(txn.Config{ID: 0, N: 3})
	if err != nil {
		t.Fatal(err)
	}
	st := rng.NewStream(1)
	// A bare Envelope is foreign too: every protocol frame is a
	// BatchEnvelope.
	out := mgr.Step([]types.Message{
		{From: 1, To: 0, Payload: fakeInner{}},
		{From: 1, To: 0, Payload: txn.Envelope{Txn: "t1", Inner: fakeInner{}}},
	}, st)
	if len(out) != 0 {
		t.Fatalf("manager reacted to a foreign payload: %v", out)
	}
	if mgr.Active() != 0 {
		t.Fatal("foreign payload spawned a transaction")
	}
}

// TestOnOutcomeConcurrentCoordinators drives a live goroutine cluster of
// managers while several goroutines concurrently begin transactions on
// different coordinators and wait for completion through the OnOutcome
// callback — the polling-free path the service subsystem relies on. The
// callback reads DecisionOf, which takes the manager lock: it would
// deadlock the stepping goroutine if Step still held it.
func TestOnOutcomeConcurrentCoordinators(t *testing.T) {
	n := 5
	ids := []txn.ID{"tx-0", "tx-1", "tx-2", "tx-3", "tx-4", "tx-5", "tx-6", "tx-7"}
	// ids[i] is coordinated by node i%n; done[id] receives that node's own
	// outcome for id.
	coordOf := make(map[txn.ID]int, len(ids))
	done := make(map[txn.ID]chan types.Decision, len(ids))
	for i, id := range ids {
		coordOf[id] = i % n
		done[id] = make(chan types.Decision, 1)
	}
	var cbMu sync.Mutex
	cbSeen := make(map[txn.ID]map[types.ProcID][]types.Decision)
	managers := make([]*txn.Manager, n)
	machines := make([]types.Machine, n)
	for p := 0; p < n; p++ {
		p := p
		mgr, err := txn.NewManager(txn.Config{
			ID: types.ProcID(p), N: n, K: 3,
			Vote: func(id txn.ID) bool { return id != "tx-3" },
			OnOutcome: func(o txn.Outcome) {
				if d, ok := managers[p].DecisionOf(o.Txn); !ok || d != o.Decision {
					t.Errorf("node %d: callback %v for %s but DecisionOf = %v,%v", p, o.Decision, o.Txn, d, ok)
				}
				cbMu.Lock()
				if cbSeen[o.Txn] == nil {
					cbSeen[o.Txn] = make(map[types.ProcID][]types.Decision)
				}
				cbSeen[o.Txn][types.ProcID(p)] = append(cbSeen[o.Txn][types.ProcID(p)], o.Decision)
				cbMu.Unlock()
				if coordOf[o.Txn] == p {
					select {
					case done[o.Txn] <- o.Decision:
					default: // a second firing is reported from cbSeen below
					}
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		managers[p] = mgr
		machines[p] = mgr
	}
	cluster, err := runtime.NewCluster(machines, nil, runtime.ClusterOptions{
		TickEvery: time.Millisecond, MaxTicks: 30_000, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	runDone := make(chan error, 1)
	go func() { runDone <- cluster.Run(context.Background()) }()

	got := make([]types.Decision, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		i, id := i, id
		coord := managers[coordOf[id]]
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := coord.Begin(id, id != "tx-3"); err != nil {
				t.Error(err)
				return
			}
			select {
			case got[i] = <-done[id]:
			case <-time.After(20 * time.Second):
				t.Errorf("callback for %s never fired at its coordinator", id)
			}
		}()
	}
	wg.Wait()
	if err := <-runDone; err != nil {
		t.Fatal(err)
	}
	cbMu.Lock()
	defer cbMu.Unlock()
	for i, id := range ids {
		want := types.DecisionCommit
		if id == "tx-3" {
			want = types.DecisionAbort
		}
		if got[i] != want {
			t.Errorf("%s decided %v, want %v", id, got[i], want)
		}
		// The callback fired exactly once on every node, and all agree.
		per := cbSeen[id]
		if len(per) != n {
			t.Errorf("%s: callback on %d/%d nodes", id, len(per), n)
		}
		for p, ds := range per {
			if len(ds) != 1 || ds[0] != got[i] {
				t.Errorf("%s: node %d callbacks %v, want exactly one %v", id, p, ds, got[i])
			}
		}
	}
}

// TestRetirementTombstones checks that decided instances leave the step
// loop after RetireAfter ticks, having reported once, that a retired
// member is no longer answered for, and that straggler envelopes are
// dropped instead of respawning an instance that could contradict the
// reported decision.
func TestRetirementTombstones(t *testing.T) {
	n := 3
	managers := make([]*txn.Manager, n)
	machines := make([]types.Machine, n)
	reported := make([][]types.Decision, n)
	for p := 0; p < n; p++ {
		p := p
		mgr, err := txn.NewManager(txn.Config{
			ID: types.ProcID(p), N: n, K: 3, RetireAfter: 4,
			OnOutcome: func(o txn.Outcome) { reported[p] = append(reported[p], o.Decision) },
		})
		if err != nil {
			t.Fatal(err)
		}
		managers[p] = mgr
		machines[p] = mgr
	}
	if err := managers[0].Begin("r", true); err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Config{
		K: 3, Machines: machines, Adversary: &adversary.RoundRobin{},
		Seeds: rng.NewCollection(5, n), MaxSteps: 10_000,
		StopWhen: func(r *sim.Result) bool {
			for _, mgr := range managers {
				if mgr.Active() != 0 {
					return false
				}
			}
			return true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exhausted {
		t.Fatal("run exhausted before every instance retired")
	}
	st := rng.NewStream(1)
	for p, mgr := range managers {
		if got := mgr.Active(); got != 0 {
			t.Fatalf("node %d still holds %d instances", p, got)
		}
		if len(reported[p]) != 1 || reported[p][0] != types.DecisionCommit {
			t.Fatalf("node %d reported %v, want one COMMIT", p, reported[p])
		}
		if d, ok := mgr.DecisionOf("r"); ok {
			t.Fatalf("node %d answers %v for a retired transaction", p, d)
		}
	}
	// A straggler frame must not respawn the retired transaction (Begin
	// names its width-1 batch after the transaction).
	out := managers[1].Step([]types.Message{{
		From: 0, To: 1, Payload: txn.BatchEnvelope{Batch: "r", Txns: []txn.ID{"r"}, Inner: fakeInner{}},
	}}, st)
	if len(out) != 0 || managers[1].Active() != 0 {
		t.Fatal("straggler frame revived a retired transaction")
	}
	// Restarting a finished transaction is refused.
	if err := managers[0].Begin("r", true); err == nil {
		t.Fatal("Begin accepted a finished transaction id")
	}
}

// TestMaxAgeAbandonsBlockedInstance: an instance that can never decide
// (no quorum reachable) is dropped after MaxAge ticks with a DecisionNone
// tombstone, so a service node does not accrete blocked instances. An
// abandoned member never reaches OnOutcome: no decision was made.
func TestMaxAgeAbandonsBlockedInstance(t *testing.T) {
	mgr, err := txn.NewManager(txn.Config{ID: 0, N: 3, K: 2, MaxAge: 20,
		OnOutcome: func(o txn.Outcome) { t.Errorf("OnOutcome fired for abandoned %s: %v", o.Txn, o.Decision) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Begin("stuck", true); err != nil {
		t.Fatal(err)
	}
	st := rng.NewStream(3)
	for i := 0; i < 30 && mgr.Active() > 0; i++ {
		mgr.Step(nil, st) // no peers ever answer
	}
	if got := mgr.Active(); got != 0 {
		t.Fatalf("blocked instance not abandoned (%d active)", got)
	}
	if _, ok := mgr.DecisionOf("stuck"); ok {
		t.Fatal("abandoned instance reports a decision")
	}
	if err := mgr.Begin("stuck", true); err == nil {
		t.Fatal("abandoned id accepted again")
	}
}
