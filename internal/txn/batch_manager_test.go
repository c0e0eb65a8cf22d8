package txn_test

import (
	"fmt"
	"testing"

	"repro/internal/adversary"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/txn"
	"repro/internal/types"
)

// runBatched drives the cluster until every listed transaction decided on
// every surviving manager.
func runBatched(t *testing.T, managers []*txn.Manager, machines []types.Machine, ids []txn.ID, adv sim.Adversary, seed uint64) *sim.Result {
	t.Helper()
	res, err := sim.Run(sim.Config{
		K: 3, Machines: machines, Adversary: adv,
		Seeds:    rng.NewCollection(seed, len(machines)),
		MaxSteps: 100_000,
		StopWhen: func(r *sim.Result) bool {
			for _, mgr := range managers {
				if r.Crashed[mgr.ID()] {
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

// batchIDs builds b member ids.
func batchIDs(b int) []txn.ID {
	ids := make([]txn.ID, b)
	for i := range ids {
		ids[i] = txn.ID(fmt.Sprintf("btx-%03d", i))
	}
	return ids
}

// TestBatchManagerFanout: one BeginBatch decides every member on every
// node, with per-element outcomes matching the votes (all-commit members
// commit, any-abort members abort).
func TestBatchManagerFanout(t *testing.T) {
	const n, b = 5, 24
	ids := batchIDs(b)
	votes := map[txn.ID][]bool{}
	for i, id := range ids {
		vs := make([]bool, n)
		for p := range vs {
			vs[p] = true
		}
		if i%5 == 3 {
			vs[2] = false // one abort vote on every 5th member
		}
		votes[id] = vs
	}
	managers, machines := buildManagers(t, n, votes)
	ownVotes := make([]bool, b)
	for i, id := range ids {
		ownVotes[i] = votes[id][0]
	}
	if err := managers[0].BeginBatch("batch-A", ids, ownVotes); err != nil {
		t.Fatalf("BeginBatch: %v", err)
	}
	runBatched(t, managers, machines, ids, &adversary.RoundRobin{}, 42)
	for i, id := range ids {
		want := types.DecisionCommit
		if i%5 == 3 {
			want = types.DecisionAbort
		}
		for p, mgr := range managers {
			got, ok := mgr.DecisionOf(id)
			if !ok {
				t.Fatalf("node %d txn %s undecided", p, id)
			}
			if got != want {
				t.Fatalf("node %d txn %s decided %v, want %v", p, id, got, want)
			}
		}
	}
}

// TestBatchManagerOnOutcomeOncePerMember: OnOutcome, the one push hook,
// fires exactly once per member on every node — the coordinator, the
// joiners, and a node partitioned away until the others have decided,
// which joins late from whatever frame reaches it first. It runs with the
// manager lock released: the callback reads DecisionOf and the
// coordinator's first callback begins a follow-up batch, either of which
// would deadlock the stepping goroutine otherwise.
func TestBatchManagerOnOutcomeOncePerMember(t *testing.T) {
	const n, b = 3, 8
	const batch, late = txn.BatchID("batch-W"), 2
	const follow = txn.ID("follow-0")
	ids := batchIDs(b)

	// The simulator steps one manager at a time, so the callbacks need no
	// lock of their own. firings[p][id] lists the global sequence numbers
	// at which node p's callback fired for id.
	firings := make([]map[txn.ID][]int, n)
	seq := 0
	managers := make([]*txn.Manager, n)
	machines := make([]types.Machine, n)
	for p := 0; p < n; p++ {
		p := p
		firings[p] = make(map[txn.ID][]int)
		mgr, err := txn.NewManager(txn.Config{
			ID: types.ProcID(p), N: n, K: 3,
			OnOutcome: func(o txn.Outcome) {
				if d, ok := managers[p].DecisionOf(o.Txn); !ok || d != o.Decision {
					t.Errorf("node %d: callback %v for %s but DecisionOf = %v,%v", p, o.Decision, o.Txn, d, ok)
				}
				seq++
				firings[p][o.Txn] = append(firings[p][o.Txn], seq)
				if p == 0 && len(firings[0]) == 1 && len(firings[0][o.Txn]) == 1 {
					if err := managers[0].Begin(follow, true); err != nil {
						t.Errorf("Begin from inside OnOutcome: %v", err)
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
	own := make([]bool, b)
	for i := range own {
		own[i] = true
	}
	if err := managers[0].BeginBatch(batch, ids, own); err != nil {
		t.Fatal(err)
	}
	// Node 2 hears nothing for the first 400 events, by which time nodes 0
	// and 1 (a majority) have decided without it. (Were a callback entered
	// with the manager lock held, this run would never return: the test dies
	// on its -timeout with the stepping goroutine parked on that lock.)
	adv := &adversary.Partition{Inner: &adversary.RoundRobin{}, GroupOf: []int{0, 0, 1}, HealEvent: 400}
	all := append(append([]txn.ID{}, ids...), follow)
	if res := runBatched(t, managers, machines, all, adv, 7); res.Exhausted {
		t.Fatal("not every member decided on every node")
	}
	for p := range managers {
		for _, id := range all {
			if got := len(firings[p][id]); got != 1 {
				t.Fatalf("node %d: OnOutcome fired %d times for %s, want 1", p, got, id)
			}
		}
		if len(firings[p]) != len(all) {
			t.Errorf("node %d: OnOutcome fired for %d ids, want %d", p, len(firings[p]), len(all))
		}
	}
	for _, id := range ids {
		if at := firings[late][id][0]; at < firings[0][id][0] || at < firings[1][id][0] {
			t.Errorf("%s: node %d fired before the majority; it was meant to join late", id, late)
		}
	}
}

// TestBatchManagerCrashAgreement: members of a batch agree across the
// surviving nodes even when a minority crashes mid-run.
func TestBatchManagerCrashAgreement(t *testing.T) {
	const n, b = 5, 16
	ids := batchIDs(b)
	votes := map[txn.ID][]bool{}
	for i, id := range ids {
		vs := make([]bool, n)
		for p := range vs {
			vs[p] = (p+i)%3 != 0 // mixed votes, several split members
		}
		votes[id] = vs
	}
	managers, machines := buildManagers(t, n, votes)
	own := make([]bool, b)
	for i, id := range ids {
		own[i] = votes[id][0]
	}
	if err := managers[0].BeginBatch("batch-C", ids, own); err != nil {
		t.Fatal(err)
	}
	adv := &adversary.Crash{
		Inner: &adversary.RoundRobin{},
		Plan:  []adversary.CrashPlan{{Proc: 4, AtClock: 12}},
	}
	res := runBatched(t, managers, machines, ids, adv, 99)
	for _, id := range ids {
		var agreed types.Decision
		first := true
		for p, mgr := range managers {
			if res.Crashed[p] {
				continue
			}
			d, ok := mgr.DecisionOf(id)
			if !ok {
				t.Fatalf("node %d txn %s undecided", p, id)
			}
			if first {
				agreed, first = d, false
			} else if d != agreed {
				t.Fatalf("txn %s: node %d decided %v, others %v", id, p, d, agreed)
			}
		}
	}
}

// TestBatchManagerRetirement: after RetireAfter ticks the batch leaves
// only its id — every member reported COMMIT once, DecisionOf answers for
// none of them, Active drops to zero, and the id cannot be begun again.
func TestBatchManagerRetirement(t *testing.T) {
	const n, b = 3, 4
	ids := batchIDs(b)
	votes := map[txn.ID][]bool{}
	for _, id := range ids {
		votes[id] = []bool{true, true, true}
	}
	managers := make([]*txn.Manager, n)
	machines := make([]types.Machine, n)
	reported := make([]map[txn.ID][]types.Decision, n)
	for p := 0; p < n; p++ {
		p := p
		reported[p] = map[txn.ID][]types.Decision{}
		mgr, err := txn.NewManager(txn.Config{
			ID: types.ProcID(p), N: n, K: 3, RetireAfter: 8,
			Vote:      func(txn.ID) bool { return true },
			OnOutcome: func(o txn.Outcome) { reported[p][o.Txn] = append(reported[p][o.Txn], o.Decision) },
		})
		if err != nil {
			t.Fatal(err)
		}
		managers[p] = mgr
		machines[p] = mgr
	}
	own := []bool{true, true, true, true}
	if err := managers[0].BeginBatch("batch-R", ids, own); err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Config{
		K: 3, Machines: machines, Adversary: &adversary.RoundRobin{},
		Seeds:    rng.NewCollection(5, n),
		MaxSteps: 2000,
		StopWhen: func(*sim.Result) bool {
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
	_ = res
	for p, mgr := range managers {
		if mgr.Active() != 0 {
			t.Fatalf("node %d still holds %d instances after retirement", p, mgr.Active())
		}
		for _, id := range ids {
			if ds := reported[p][id]; len(ds) != 1 || ds[0] != types.DecisionCommit {
				t.Fatalf("node %d txn %s reported %v, want one COMMIT", p, id, ds)
			}
			if d, ok := mgr.DecisionOf(id); ok {
				t.Fatalf("node %d txn %s answers %v once retired", p, id, d)
			}
		}
	}
	// A second BeginBatch with the same id must be rejected.
	if err := managers[0].BeginBatch("batch-R", ids, own); err == nil {
		t.Fatal("finished batch id accepted again")
	}
}

// TestBatchManagerValidation rejects malformed BeginBatch calls.
func TestBatchManagerValidation(t *testing.T) {
	mgr, err := txn.NewManager(txn.Config{ID: 0, N: 3, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.BeginBatch("b", nil, nil); err == nil {
		t.Error("empty batch accepted")
	}
	if err := mgr.BeginBatch("b", []txn.ID{"x"}, []bool{true, false}); err == nil {
		t.Error("vote/member length mismatch accepted")
	}
	if err := mgr.BeginBatch("b", []txn.ID{"x"}, []bool{true}); err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
	if err := mgr.BeginBatch("b", []txn.ID{"y"}, []bool{true}); err == nil {
		t.Error("duplicate batch id accepted")
	}
}
