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

// TestManagerTombstonesBounded retires 200 000 width-4 members (73 728,
// just past the bound, under -short) through three managers: the maps
// retirement feeds stop growing at TombstoneCap members, DecisionOf keeps answering every id not yet evicted with the
// outcome OnOutcome reported, and a straggler frame for an evicted batch —
// which respawns it — changes no other transaction's answer and leaves
// nothing behind.
func TestManagerTombstonesBounded(t *testing.T) {
	const n, width, capBatches = 3, 4, txn.TombstoneCap / 4
	batches := 50_000
	if testing.Short() {
		batches = capBatches + capBatches/8
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
	var straggler *types.Message // batch 0's first frame to node 1
	var sizeAtHalf int
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
		if b == capBatches+(batches-capBatches)/2 {
			sizeAtHalf, _, _ = l.managers[0].TombstoneSizes()
		}
	}
	l.quiesce(t)

	if env := straggler.Payload.(txn.BatchEnvelope); env.Batch != "b0" {
		t.Fatalf("captured a frame of %s, want b0", env.Batch)
	}
	checkAnswers := func(when string) {
		t.Helper()
		for p, mgr := range l.managers {
			members, retired, retiredBatches := mgr.TombstoneSizes()
			if retiredBatches != capBatches || members != txn.TombstoneCap || retired != txn.TombstoneCap {
				t.Fatalf("%s: node %d holds members=%d retired=%d retiredBatches=%d, want %d in %d batches",
					when, p, members, retired, retiredBatches, txn.TombstoneCap, capBatches)
			}
			answered := 0
			for k := width; k < batches*width; k++ { // batch 0 is checked apart
				if firings[p][k] != 1 {
					t.Fatalf("%s: node %d reported %s %d times", when, p, memberID(k/width, k%width), firings[p][k])
				}
				d, ok := mgr.DecisionOf(memberID(k/width, k%width))
				if !ok {
					continue
				}
				answered++
				if d != reported[p][k] || d != types.DecisionCommit {
					t.Fatalf("%s: node %d answers %v for %s, reported %v", when, p, d, memberID(k/width, k%width), reported[p][k])
				}
			}
			if answered < txn.TombstoneCap-width {
				t.Fatalf("%s: node %d answers %d ids, want the %d not evicted", when, p, answered, txn.TombstoneCap)
			}
		}
	}
	checkAnswers("after the run")
	// Half-way past the bound the map already sat at it, plus the few
	// batches in flight: flat, not growing.
	if sizeAtHalf < txn.TombstoneCap || sizeAtHalf > txn.TombstoneCap+64*width {
		t.Fatalf("members map held %d half-way past the bound, want %d plus batches in flight", sizeAtHalf, txn.TombstoneCap)
	}
	for p := range l.managers {
		if reported[p][0] != types.DecisionAbort || firings[p][0] != 1 {
			t.Fatalf("node %d reported m0.0 %v ×%d, want ABORT once", p, reported[p][0], firings[p][0])
		}
	}

	// Batch 0 was evicted long ago, so its straggler respawns it on node
	// 1, whose frames respawn it on the peers that evicted it too. Their
	// fresh run may decide, and decide differently — which is why the
	// service drops reports for ids it no longer tracks (DESIGN §10) —
	// but it touches no other transaction and retires like any batch.
	l.inbox[1] = append(l.inbox[1], *straggler)
	l.tick()
	if l.managers[1].Active() != 1 {
		t.Fatalf("straggler for an evicted batch left %d instances on node 1, want the respawn", l.managers[1].Active())
	}
	l.quiesce(t)
	checkAnswers("after the straggler")
	t.Logf("respawned batch 0: node 1 reported m0.0 %v ×%d", reported[1][0], firings[1][0])
}

// TestTombstoneAnswersEachMemberContentOblivious retires a width-4 batch
// whose members decide COMMIT, ABORT, COMMIT, ABORT (a participant vetoes
// the second and the fourth) over a lock-step network: every node answers
// each member with that member's own decision while the instance is held
// and again from the tombstone, so a wrong vector index shows.
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
	check("retired")
	for p, mgr := range l.managers {
		if members, retired, tombstones := mgr.TombstoneSizes(); members != 4 || retired != 4 || tombstones != 1 {
			t.Fatalf("node %d holds members=%d retired=%d tombstones=%d, want 4, 4 and 1", p, members, retired, tombstones)
		}
	}
}
