package txn_test

import (
	"fmt"
	"testing"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/txn"
	"repro/internal/types"
)

// TestUnaskedManagerBuildsNoIndexContentOblivious drives three managers in
// lockstep past two guard generations (2·TombstoneCap retired members in
// width-16 batches) with nothing calling DecisionOf and no outcome query on
// the wire, as a serving node runs: no node ever holds an index entry, and
// every member is still reported through OnOutcome.
func TestUnaskedManagerBuildsNoIndexContentOblivious(t *testing.T) {
	const n, width = 3, 16
	batches := 2*txn.TombstoneCap/width + 64
	reports := 0
	l := newLockstep(t, n, txn.Config{K: 3, RetireAfter: 8}, func(int, txn.Outcome) { reports++ })
	ids, votes := make([]txn.ID, width), make([]bool, width)
	for i := range votes {
		votes[i] = true
	}
	checkIndex := func(when string) {
		t.Helper()
		for p, mgr := range l.managers {
			if _, _, indexed := mgr.Retained(); indexed != 0 {
				t.Fatalf("%s: node %d built an index of %d entries with nothing asking", when, p, indexed)
			}
		}
	}
	for b := 0; b < batches; b++ {
		for i := range ids {
			ids[i] = txn.ID(fmt.Sprintf("u%d.%d", b, i))
		}
		if err := l.managers[b%n].BeginBatch(txn.BatchID(fmt.Sprintf("u%d", b)), ids, votes); err != nil {
			t.Fatal(err)
		}
		l.tick()
		if b%1024 == 0 {
			checkIndex(fmt.Sprintf("batch %d", b))
		}
	}
	l.quiesce(t)
	checkIndex("after the run")
	if reports != n*batches*width {
		t.Fatalf("%d outcomes reported, want %d", reports, n*batches*width)
	}
}

// TestIndexBuiltMidRunAnswersHeldMembersContentOblivious: node 1 of 3 joins
// batches from single frames that a content-oblivious network delivered (a
// peer's DECIDED vector, or a vote it cannot finish without peers). The
// first DecisionOf, mid-run, builds the index over what is held and
// answers each held member; later spawns enter it; a reused id is answered
// by the newest held batch naming it, whatever order the index was built
// in; and a retired member goes unanswered.
func TestIndexBuiltMidRunAnswersHeldMembersContentOblivious(t *testing.T) {
	frame := func(batch string, txns []txn.ID, inner types.Payload) []types.Message {
		return []types.Message{{From: 0, To: 1, Payload: txn.BatchEnvelope{
			Batch: txn.BatchID(batch), Txns: txns,
			Inner: core.Piggyback{Inner: inner, Coins: []types.Value{1, 0, 1}},
		}}}
	}
	decided := func(vals ...types.Value) types.Payload { return agreement.VecDecidedMsg{Vals: vals} }
	newNode := func(retireAfter int) *txn.Manager {
		mgr, err := txn.NewManager(txn.Config{ID: 1, N: 3, K: 1, RetireAfter: retireAfter})
		if err != nil {
			t.Fatal(err)
		}
		return mgr
	}
	answers := func(mgr *txn.Manager, id txn.ID, want types.Decision, held bool) {
		t.Helper()
		if d, ok := mgr.DecisionOf(id); ok != held || (held && d != want) {
			t.Fatalf("%s answers (%v, %v), want (%v, %v)", id, d, ok, want, held)
		}
	}
	rnd := rng.NewStream(4)
	// A joiner waits out its GO timeout (2K ticks) before it adopts.
	settle := func(mgr *txn.Manager) {
		for i := 0; i < 4; i++ {
			mgr.Step(nil, rnd)
		}
	}

	// Sixteen ids each named by an older ABORT batch and a newer COMMIT
	// batch, all decided and held before anything asks: the build walks
	// them in map order, and the newer must win every id.
	mgr := newNode(1 << 20)
	for _, gen := range []struct {
		prefix string
		val    types.Value
	}{{"older", 0}, {"newer", 1}} {
		for i := 0; i < 16; i++ {
			mgr.Deliver(frame(fmt.Sprintf("%s%d", gen.prefix, i), []txn.ID{txn.ID(fmt.Sprintf("x%d", i))}, decided(gen.val)), rnd)
		}
	}
	settle(mgr)
	if _, _, indexed := mgr.Retained(); indexed != 0 {
		t.Fatalf("index of %d entries before anything asked", indexed)
	}
	for i := 0; i < 16; i++ {
		answers(mgr, txn.ID(fmt.Sprintf("x%d", i)), types.DecisionCommit, true)
	}
	if _, _, indexed := mgr.Retained(); indexed != 16 {
		t.Fatalf("index of %d entries, want one per held id", indexed)
	}

	// Mid-run: "old" holds x and y, undecided (no peer answers its vote);
	// the first question builds the index, a later spawn enters it and wins
	// x, and a member the build found answers once it decides.
	const retireAfter = 8
	mgr = newNode(retireAfter)
	mgr.Deliver(frame("old", []txn.ID{"x", "y"}, core.BatchVoteMsg{Vals: []types.Value{1, 1}}), rnd)
	mgr.Deliver(frame("held", []txn.ID{"h"}, decided(1)), rnd)
	settle(mgr)
	answers(mgr, "h", types.DecisionCommit, true)
	answers(mgr, "x", types.DecisionNone, false)
	mgr.Deliver(frame("new", []txn.ID{"x"}, decided(1)), rnd)
	settle(mgr)
	answers(mgr, "x", types.DecisionCommit, true)
	for i := 0; i < 4*retireAfter && mgr.Active() > 1; i++ {
		mgr.Step(nil, rnd)
	}
	if mgr.Active() != 1 {
		t.Fatalf("holding %d instances, want only the undecided old", mgr.Active())
	}
	answers(mgr, "h", types.DecisionNone, false)
	answers(mgr, "x", types.DecisionNone, false)
	answers(mgr, "y", types.DecisionNone, false)
	mgr.Deliver(frame("old", []txn.ID{"x", "y"}, decided(0, 1)), rnd)
	answers(mgr, "y", types.DecisionCommit, true)
}
