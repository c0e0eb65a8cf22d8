package txn_test

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/txn"
	"repro/internal/types"
)

// TestManagerTombstonesBounded retires 200 000 width-4 members (139 264,
// past two generations, under -short) through three managers: the straggler
// guard holds at least TombstoneCap and at most 2·TombstoneCap + width
// members once the first generation fills, OnOutcome reports every member
// once, and a straggler frame for a batch the guard has dropped — which
// respawns it — reports no other transaction, answers for no other id and
// leaves nothing behind.
func TestManagerTombstonesBounded(t *testing.T) {
	const n, width, capBatches = 3, 4, txn.TombstoneCap / 4
	batches := 50_000
	if testing.Short() {
		batches = 2*capBatches + capBatches/8
	}
	memberID := func(b, i int) txn.ID { return txn.ID(fmt.Sprintf("m%d.%d", b, i)) }
	indexOf := func(id txn.ID) int {
		b, i, _ := strings.Cut(string(id[1:]), ".")
		bn, _ := strconv.Atoi(b)
		in, _ := strconv.Atoi(i)
		return bn*width + in
	}
	// reported[p][k] is the decision node p's OnOutcome gave member k,
	// firings[p][k] how often it fired.
	reported := make([][]types.Decision, n)
	firings := make([][]uint8, n)
	for p := range reported {
		reported[p] = make([]types.Decision, batches*width)
		firings[p] = make([]uint8, batches*width)
	}
	l := newLockstep(t, n, txn.Config{K: 3, RetireAfter: 8, MaxAge: 200}, func(p int, o txn.Outcome) {
		k := indexOf(o.Txn)
		reported[p][k] = o.Decision
		firings[p][k]++
	})
	checkGuard := func(when string) {
		t.Helper()
		for p, mgr := range l.managers {
			if members, _, _ := mgr.Retained(); members < txn.TombstoneCap || members > 2*txn.TombstoneCap+width {
				t.Fatalf("%s: node %d's guard holds %d members, want [%d, %d]", when, p, members, txn.TombstoneCap, 2*txn.TombstoneCap+width)
			}
		}
	}
	var straggler *types.Message // batch 0's first frame to node 1
	ids, votes := make([]txn.ID, width), make([]bool, width)
	for b := 0; b < batches; b++ {
		for i := range ids {
			ids[i], votes[i] = memberID(b, i), true
		}
		// Batch 0 aborts on its coordinator's own vote; a respawn, which
		// asks Vote (nil: commit), would commit it.
		votes[0] = b != 0
		if err := l.managers[b%n].BeginBatch(txn.BatchID("b"+strconv.Itoa(b)), ids, votes); err != nil {
			t.Fatal(err)
		}
		l.tick()
		if straggler == nil && len(l.inbox[1]) > 0 {
			msg := l.inbox[1][0]
			straggler = &msg
		}
		// A few batches are in flight: past them, the first generation is full.
		if b > capBatches+64 && b%1024 == 0 {
			checkGuard(fmt.Sprintf("batch %d", b))
		}
	}
	l.quiesce(t)

	if env := straggler.Payload.(txn.BatchEnvelope); env.Batch != "b0" {
		t.Fatalf("captured a frame of %s, want b0", env.Batch)
	}
	checkReports := func(when string) {
		t.Helper()
		for p := range l.managers {
			for k := width; k < batches*width; k++ { // batch 0 is checked apart
				if firings[p][k] != 1 || reported[p][k] != types.DecisionCommit {
					t.Fatalf("%s: node %d reported %s %v ×%d, want COMMIT once", when, p, memberID(k/width, k%width), reported[p][k], firings[p][k])
				}
			}
		}
	}
	checkReports("after the run")
	checkGuard("after the run")
	for p := range l.managers {
		if reported[p][0] != types.DecisionAbort || firings[p][0] != 1 {
			t.Fatalf("node %d reported m0.0 %v ×%d, want ABORT once", p, reported[p][0], firings[p][0])
		}
	}

	// The guard dropped batch 0 long ago, so its straggler respawns it on
	// node 1, whose frames respawn it on the peers that dropped it too.
	// Their fresh run may decide, and decide differently — which is why the
	// service drops reports for ids it no longer tracks (DESIGN §10) — but
	// it touches no other transaction and retires like any batch.
	l.inbox[1] = append(l.inbox[1], *straggler)
	l.tick()
	node := l.managers[1]
	if node.Active() != 1 {
		t.Fatalf("straggler for a dropped batch left %d instances on node 1, want the respawn", node.Active())
	}
	for _, id := range []txn.ID{memberID(1, 0), memberID(batches-1, width-1)} {
		if d, ok := node.DecisionOf(id); ok {
			t.Fatalf("beside the respawn, node 1 answers %v for retired %s", d, id)
		}
	}
	if _, _, indexed := node.Retained(); indexed != width {
		t.Fatalf("node 1 indexed %d members beside the respawn, want its %d", indexed, width)
	}
	l.quiesce(t)
	checkReports("after the straggler")
	checkGuard("after the straggler")
	if _, _, indexed := node.Retained(); indexed != 0 {
		t.Fatalf("node 1 keeps %d index entries once the respawn retired", indexed)
	}
	t.Logf("respawned batch 0: node 1 reported m0.0 %v ×%d", reported[1][0], firings[1][0])
}

// TestTombstoneAnswersEachMemberContentOblivious retires a width-4 batch
// whose members decide COMMIT, ABORT, COMMIT, ABORT (a participant vetoes
// the second and the fourth) over a lock-step network: every node answers
// each member with that member's own decision while the instance is held,
// so a wrong vector index shows, and no member once the batch retired.
func TestTombstoneAnswersEachMemberContentOblivious(t *testing.T) {
	const n = 3
	ids := []txn.ID{"w0", "w1", "w2", "w3"}
	veto := map[txn.ID]int{"w1": 1, "w3": 2} // member → the node voting no
	want := []types.Decision{types.DecisionCommit, types.DecisionAbort, types.DecisionCommit, types.DecisionAbort}
	l := &lockstep{inbox: make([][]types.Message, n), seeds: rng.NewCollection(31, n)}
	for p := 0; p < n; p++ {
		mgr, err := txn.NewManager(txn.Config{
			ID: types.ProcID(p), N: n, K: 3, RetireAfter: 4,
			Vote: func(id txn.ID) bool { v, ok := veto[id]; return !ok || v != p },
		})
		if err != nil {
			t.Fatal(err)
		}
		l.managers = append(l.managers, mgr)
	}
	if err := l.managers[0].BeginBatch("mixed", ids, []bool{true, true, true, true}); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		for p, mgr := range l.managers {
			for i, id := range ids {
				if d, ok := mgr.DecisionOf(id); !ok || d != want[i] {
					t.Fatalf("%s: node %d answers %s with (%v, %v), want %v", when, p, id, d, ok, want[i])
				}
			}
		}
	}
	for decided := false; !decided; {
		l.tick()
		decided = true
		for _, mgr := range l.managers {
			for _, id := range ids {
				if _, ok := mgr.DecisionOf(id); !ok {
					decided = false
				}
			}
		}
	}
	check("held")
	l.quiesce(t)
	for p, mgr := range l.managers {
		for _, id := range ids {
			if d, ok := mgr.DecisionOf(id); ok {
				t.Fatalf("node %d answers retired %s with %v", p, id, d)
			}
		}
		if members, batches, indexed := mgr.Retained(); members != 4 || batches != 1 || indexed != 0 {
			t.Fatalf("node %d keeps guard members=%d batches=%d and %d index entries, want 4, 1 and 0", p, members, batches, indexed)
		}
	}
}
