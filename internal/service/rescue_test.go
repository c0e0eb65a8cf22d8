package service

// White-box tests for rescueOrphans: a coordinator fail-stop in the
// window between Begin and the first GO flood must not strand the
// transaction on the dead node. The tests freeze that window open with a
// Gate that is never released — the GO is sent at once but can never
// arrive — then crash the coordinator and verify the work re-dispatched
// onto a live manager.

import (
	"context"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/types"
)

// frozenService builds a service behind a held Gate, keeping every
// dispatched instance permanently pre-GO everywhere but on its coordinator.
func frozenService(t *testing.T, cfg Config) *Service {
	t.Helper()
	_, cfg.Transports = NewGate(cfg.N, cfg.Transports)
	cfg.DefaultTimeout = time.Hour
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		defer cancel()
		s.Close(ctx) //nolint:errcheck // hard abort on a frozen cluster
	})
	return s
}

// submitFrozen submits id asynchronously and waits until it dispatches,
// returning its coordinator.
func submitFrozen(t *testing.T, s *Service, id string) types.ProcID {
	t.Helper()
	go s.Submit(context.Background(), Request{ID: id}) //nolint:errcheck // resolved by Close
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st, ok := s.Status(id); ok && st.State == StateRunning {
			return st.Coordinator
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("transaction %s never dispatched", id)
	return 0
}

// liveInstances counts instances held by managers other than p.
func liveInstances(s *Service, p types.ProcID) int {
	total := 0
	for q, mgr := range s.managers {
		if types.ProcID(q) != p {
			total += mgr.Active()
		}
	}
	return total
}

func TestCrashRescuesOrphanedBatch(t *testing.T) {
	onBothTransportSets(t, 3, testCrashRescuesOrphanedBatch)
}

func testCrashRescuesOrphanedBatch(t *testing.T, trs []transport.Transport) {
	s := frozenService(t, Config{N: 3, Seed: 19, BatchMax: 8, Transports: trs})
	coord := submitFrozen(t, s, "orphan-batch-member")
	if got := liveInstances(s, coord); got != 0 {
		t.Fatalf("pre-crash: %d instances off the coordinator (GO cannot have flooded)", got)
	}
	if err := s.Crash(coord); err != nil {
		t.Fatal(err)
	}
	// Crash rescues synchronously: the whole batch re-begins as ONE
	// batched instance on a live node.
	if got := liveInstances(s, coord); got != 1 {
		t.Fatalf("post-crash: %d live instances, want 1 batch (rescue did not re-begin)", got)
	}
	st, ok := s.Status("orphan-batch-member")
	if !ok || st.Coordinator == coord {
		t.Fatalf("status still names crashed coordinator %d (ok=%v)", coord, ok)
	}
}

// TestCrashRescueSkipsDecided: transactions that already hold a protocol
// decision are not re-dispatched — rescue targets only work no live node
// can ever decide.
func TestCrashRescueSkipsDecided(t *testing.T) {
	s := frozenService(t, Config{N: 3, Seed: 23})
	coord := submitFrozen(t, s, "already-decided")
	// Simulate the cluster having decided: mark the first decision the
	// way onOutcome would.
	s.mu.Lock()
	s.statuses["already-decided"].first = types.DecisionCommit
	s.mu.Unlock()
	if err := s.Crash(coord); err != nil {
		t.Fatal(err)
	}
	if got := liveInstances(s, coord); got != 0 {
		t.Fatalf("post-crash: %d live instances, want 0 (decided txn was rescued)", got)
	}
}

// TestOutcomeForUntrackedIDIsDropped: a manager whose tombstone for an old
// batch was evicted can respawn it from a straggler frame and report its
// members again, possibly with another decision (DESIGN §10). The status
// is long evicted by then, so the report must change nothing.
func TestOutcomeForUntrackedIDIsDropped(t *testing.T) {
	s := frozenService(t, Config{N: 3, Seed: 29})
	before := s.Metrics()
	s.onOutcome(1, txn.Outcome{Txn: "evicted-long-ago", Decision: types.DecisionCommit})
	s.onOutcome(2, txn.Outcome{Txn: "evicted-long-ago", Decision: types.DecisionAbort})
	if _, ok := s.Status("evicted-long-ago"); ok {
		t.Fatal("an untracked id gained a status")
	}
	if after := s.Metrics(); after.SafetyViolations != 0 || after.Committed != before.Committed || after.Aborted != before.Aborted {
		t.Fatalf("untracked outcome moved the metrics: %+v", after)
	}
}
