package trace_test

import (
	"testing"

	"repro/internal/trace"
	"repro/internal/types"
)

// broken returns the rules h breaks, in rule order.
func broken(h *trace.History) []string {
	var rules []string
	for _, v := range h.Check() {
		rules = append(rules, v.Condition)
	}
	return rules
}

func wantBroken(t *testing.T, h *trace.History, rule string) {
	t.Helper()
	got := broken(h)
	if len(got) != 1 || got[0] != rule {
		t.Fatalf("broken rules %v, want only %s (%v)", got, rule, h.Check())
	}
}

// legal is a history that keeps every rule while showing what each
// allows: a TIMEOUT ack followed by the decision, a FAILED ack that a
// restart no longer knows, a split between children under a top-level
// ABORT, and a restart that keeps every decided answer.
func legal() *trace.History {
	h := trace.NewHistory()
	h.Votes("a", true, true, true)
	for n := 0; n < 3; n++ {
		h.Decide("a", n, types.DecisionCommit)
	}
	h.Journaled("a")
	h.Status("a", "RUNNING")
	h.Durable("a", types.DecisionCommit)
	h.Ack("a", trace.Commit)
	h.Status("a", trace.Commit)

	h.Ack("late", trace.Timeout)
	h.Status("late", trace.Timeout)
	h.Status("late", trace.Abort)

	h.Ack("failed", trace.Failed)
	h.Status("failed", trace.Failed)

	h.Link("x", "x@0", "x@1")
	h.Status("x@0", trace.Commit)
	h.Status("x@1", trace.Abort)
	h.Ack("x", trace.Abort)

	h.Restart()
	h.Status("a", trace.Commit)
	h.Status("failed", trace.Unknown)
	h.Status("late", trace.Abort)
	h.Status("x", trace.Abort)
	return h
}

func TestHistoryLegal(t *testing.T) {
	if vs := legal().Check(); vs != nil {
		t.Fatalf("a legal history broke %v", vs)
	}
}

// TestHistoryConsistency: two nodes decide differently.
func TestHistoryConsistency(t *testing.T) {
	h := legal()
	h.Decide("b", 0, types.DecisionCommit)
	h.Decide("b", 2, types.DecisionAbort)
	wantBroken(t, h, trace.RuleConsistency)
}

// TestHistoryValidity: COMMIT despite a NO vote.
func TestHistoryValidity(t *testing.T) {
	h := legal()
	h.Votes("b", true, false, true)
	h.Ack("b", trace.Commit)
	wantBroken(t, h, trace.RuleValidity)
}

// TestHistoryStabilityOldestKept: a restart that kept the oldest
// decisions instead of the newest, so an acked id reads as unknown.
func TestHistoryStabilityOldestKept(t *testing.T) {
	h := legal()
	h.Ack("newest", trace.Abort)
	h.Restart()
	h.Status("newest", trace.Unknown)
	wantBroken(t, h, trace.RuleStability)

	h = legal()
	h.Ack("b", "RUNNING") // an ack is final
	wantBroken(t, h, trace.RuleStability)

	h = legal()
	h.Ack("b", trace.Failed)
	h.Status("b", trace.Commit) // FAILED, then a decision in its epoch
	wantBroken(t, h, trace.RuleStability)

	h = legal()
	h.Ack("b", trace.Failed) // acked before its flush failed
	h.Status("b", "RUNNING")
	wantBroken(t, h, trace.RuleStability)
}

// TestHistoryDurabilityEarlyStatus: a status poller sees the decision
// before the fsync that covers it.
func TestHistoryDurabilityEarlyStatus(t *testing.T) {
	h := legal()
	h.Journaled("b")
	h.Status("b", trace.Commit)
	h.Durable("b", types.DecisionCommit)
	h.Ack("b", trace.Commit)
	wantBroken(t, h, trace.RuleDurability)
}

// TestHistoryDurabilityPoisonedJournal: after a failed flush the group
// stays ready and answers a decision its journal never made durable.
func TestHistoryDurabilityPoisonedJournal(t *testing.T) {
	h := legal()
	h.Journaled("b")
	h.Ack("b", trace.Failed) // the flush that poisoned the journal
	h.Journaled("c")
	h.Ack("c", trace.Commit) // the next decision, never durable
	wantBroken(t, h, trace.RuleDurability)
}

// TestHistoryDurabilityHiddenDecision: a TIMEOUT ack given after the
// decision was already durable.
func TestHistoryDurabilityHiddenDecision(t *testing.T) {
	h := legal()
	h.Durable("b", types.DecisionAbort)
	h.Ack("b", trace.Timeout)
	wantBroken(t, h, trace.RuleDurability)
}

// TestHistoryCommitOfCommits: an aborted child under a top-level COMMIT,
// and an ABORT with no aborted child.
func TestHistoryCommitOfCommits(t *testing.T) {
	h := legal()
	h.Link("y", "y@0", "y@1")
	h.Status("y@0", trace.Commit)
	h.Status("y@1", trace.Abort)
	h.Ack("y", trace.Commit)
	wantBroken(t, h, trace.RuleCommitOfCommits)

	h = legal()
	h.Link("y", "y@0", "y@1")
	h.Status("y@0", trace.Commit)
	h.Status("y@1", trace.Timeout)
	h.Ack("y", trace.Abort)
	wantBroken(t, h, trace.RuleCommitOfCommits)
}
