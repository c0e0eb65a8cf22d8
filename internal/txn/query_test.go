package txn_test

import (
	"testing"

	"repro/internal/recovery"
	"repro/internal/rng"
	"repro/internal/txn"
	"repro/internal/types"
)

// TestManagerAnswersOutcomeQueriesContentOblivious: a restarted peer's
// outcome query is answered from what DecisionOf knows — a held instance's
// decision or a retired batch's tombstone — and from nothing else: an
// undecided or unknown transaction gets no reply. The managers run in
// lockstep; no scheduler reads a payload.
func TestManagerAnswersOutcomeQueriesContentOblivious(t *testing.T) {
	const asker = types.ProcID(2)
	l := newLockstep(t, 3, txn.Config{K: 3, RetireAfter: 8}, nil)
	// ask puts one query for id to mgr, through Step or through Deliver,
	// and returns the replies it sends back.
	ask := func(mgr *txn.Manager, id string, step bool) []types.Message {
		in := []types.Message{{From: asker, To: mgr.ID(), Payload: recovery.QueryMsg{Txn: id}}}
		out := mgr.Deliver
		if step {
			out = mgr.Step
		}
		var replies []types.Message
		for _, msg := range out(in, rng.NewStream(1)) {
			if _, ok := msg.Payload.(recovery.ReplyMsg); ok {
				replies = append(replies, msg)
			}
		}
		return replies
	}
	answered := func(replies []types.Message, from types.ProcID, want types.Value) bool {
		return len(replies) == 1 && replies[0].From == from && replies[0].To == asker &&
			replies[0].Payload.(recovery.ReplyMsg).Val == want
	}

	// "gone" commits and retires everywhere: only tombstones are left.
	if err := l.managers[0].Begin("gone", true); err != nil {
		t.Fatal(err)
	}
	l.quiesce(t)
	// "held" aborts and is held, decided, until RetireAfter ticks pass.
	if err := l.managers[0].Begin("held", false); err != nil {
		t.Fatal(err)
	}
	node := l.managers[1]
	for i := 0; i < 100; i++ {
		if _, ok := node.DecisionOf("held"); ok {
			break
		}
		l.tick()
	}
	if _, _, tombs := node.TombstoneSizes(); node.Active() != 1 || tombs != 1 {
		t.Fatalf("node 1 holds %d instances and %d tombstoned batches, want one of each", node.Active(), tombs)
	}

	if r := ask(node, "gone", false); !answered(r, 1, types.V1) {
		t.Errorf("query for a tombstoned COMMIT got %v, want one reply of 1", r)
	}
	if r := ask(node, "held", true); !answered(r, 1, types.V0) {
		t.Errorf("query for a held ABORT got %v, want one reply of 0", r)
	}
	if r := ask(node, "never-begun", false); len(r) != 0 {
		t.Errorf("query for an unknown id got %v, want silence", r)
	}
	// "open" is begun on node 0 and not yet decided anywhere.
	if err := l.managers[0].Begin("open", true); err != nil {
		t.Fatal(err)
	}
	if r := ask(l.managers[0], "open", false); len(r) != 0 {
		t.Errorf("query for an undecided id got %v, want silence", r)
	}
}
