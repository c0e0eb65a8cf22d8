package wal_test

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/types"
	"repro/internal/wal"
)

// The cross-shard log under the crash-point sweep. The workload is what a
// coordinator writes: per transaction a begin and one verdict per shard
// (asynchronous appends) and then the outcome (durable on return), with
// every fourth transaction left without an outcome — the coordinator
// "crashed" before deciding — so in-doubt state rides through rotations
// and snapshots. The invariant, at every boundary and under every
// torn-tail assumption:
//
//	the directory reopens without error
//	acked ∩ in-doubt = ∅: no transaction whose RecOutcome append returned
//	                      nil may come back in doubt
//	in-doubt ⊆ begun, well-formed: every recovered transaction carries the
//	                      shard set its begin logged and only verdicts
//	                      that were appended for it
//	Coordinator.Recover settles every recovered transaction, journaling
//	the outcomes to the recovered log, and a restart after that finds
//	nothing in doubt (liveness)

// crossShards is the coordinator's shard count; the workload's shard sets
// stay inside it.
const crossShards = 3

// swapLog lets the sweep's one coordinator journal to whichever recovered
// log is being checked.
type swapLog struct {
	mu  sync.Mutex
	cur shard.CrossAppender
}

func (l *swapLog) Append(r shard.CrossRecord) error {
	l.mu.Lock()
	cur := l.cur
	l.mu.Unlock()
	return cur.Append(r)
}

func (l *swapLog) set(cur shard.CrossAppender) {
	l.mu.Lock()
	l.cur = cur
	l.mu.Unlock()
}

// crossTxn is what the workload appended for one transaction.
type crossTxn struct {
	shards   []int
	verdicts map[int]types.Decision
}

// crossWorkload is the cross log's crashWorkload. One coordinator serves
// every check of the sweep: the groups' decisions are absorbing, so after
// the first Recover of a child its verdict is a status lookup.
func crossWorkload(t *testing.T, txns int) crashWorkload {
	log := &swapLog{}
	coord, err := shard.New(shard.Config{
		Shards: crossShards,
		Group:  service.Config{N: 3, Seed: 12, TickEvery: 500 * time.Microsecond},
		Log:    log,
	})
	if err != nil {
		t.Fatal(err)
	}
	// What the sweep's checks saw, so a sweep that never recovered an
	// in-doubt transaction or never crossed a snapshot fails as vacuous.
	settled, snapshots := 0, 0
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := coord.Close(ctx); err != nil {
			t.Error(err)
		}
		if settled == 0 || snapshots == 0 {
			t.Errorf("vacuous sweep: %d in-doubt transactions settled, %d recoveries started from a snapshot", settled, snapshots)
		}
	})

	return func(t *testing.T, fs wal.FS) crashRun {
		begun := map[string]crossTxn{}
		acked := map[string]bool{}
		check := func(t *testing.T, tag string, disk *wal.MemFS) {
			n, fromSnapshot := checkCrossRecovery(t, tag, disk, coord, log, begun, acked)
			settled += n
			if fromSnapshot {
				snapshots++
			}
		}
		l, _, err := shard.OpenCrossSegmented("", crashOpts(fs))
		if err != nil {
			return openFailed(err, check)
		}
		driveCross(l, txns, begun, acked)
		return crashRun{
			close: l.Close,
			// Past the boundary FaultFS fails every operation, so Close can
			// write nothing more either; a run the fault never reached just
			// shuts down cleanly.
			kill:  func() { l.Close() }, //nolint:errcheck // the log is poisoned by the fault
			check: check,
		}
	}
}

// driveCross appends the workload until the injected fault stops it,
// recording what was begun and which outcomes were acked.
func driveCross(l *shard.CrossSegLog, txns int, begun map[string]crossTxn, acked map[string]bool) {
	for i := 0; i < txns; i++ {
		id := fmt.Sprintf("x-%04d", i)
		tx := crossTxn{
			shards:   []int{i % crossShards, (i + 1) % crossShards},
			verdicts: map[int]types.Decision{},
		}
		begun[id] = tx
		if l.Append(shard.CrossRecord{Type: shard.RecBegin, Txn: id, Shards: tx.shards}) != nil {
			return // crashed
		}
		outcome := types.DecisionCommit
		for _, s := range tx.shards {
			d := types.DecisionCommit
			if (i+s)%5 == 0 {
				d, outcome = types.DecisionAbort, types.DecisionAbort
			}
			tx.verdicts[s] = d
			if l.Append(shard.CrossRecord{Type: shard.RecVerdict, Txn: id, Shard: s, Decision: d}) != nil {
				return
			}
		}
		if i%4 == 3 {
			continue // left in doubt
		}
		if l.Append(shard.CrossRecord{Type: shard.RecOutcome, Txn: id, Decision: outcome}) != nil {
			return
		}
		acked[id] = true
	}
}

// checkCrossRecovery asserts the invariant on one crash copy; it reports
// how many in-doubt transactions Recover settled and whether the replay
// started from a snapshot.
func checkCrossRecovery(t *testing.T, tag string, disk *wal.MemFS, coord *shard.Coordinator, log *swapLog,
	begun map[string]crossTxn, acked map[string]bool) (int, bool) {
	t.Helper()
	l, recs, err := shard.OpenCrossSegmented("", crashOpts(disk))
	if err != nil {
		t.Fatalf("%s: recovery failed: %v", tag, err)
	}
	fromSnapshot := l.Stats().Replay.SnapshotSeq > 0
	states := shard.ReconstructCross(recs)
	for id, st := range states {
		tx, ok := begun[id]
		switch {
		case !ok:
			t.Fatalf("%s: recovery invented transaction %s", tag, id)
		case acked[id]:
			t.Fatalf("%s: %s came back in doubt after its outcome was acked", tag, id)
		case !st.InDoubt():
			t.Fatalf("%s: %s recovered as decided; replay retires decided transactions", tag, id)
		case !reflect.DeepEqual(st.Shards, tx.shards):
			t.Fatalf("%s: %s recovered shards %v, begin logged %v", tag, id, st.Shards, tx.shards)
		}
		for s, d := range st.Verdicts {
			if want, ok := tx.verdicts[s]; !ok || d != want {
				t.Fatalf("%s: %s recovered verdict shard %d = %v, never appended as that", tag, id, s, d)
			}
		}
	}

	// Recover settles every one of them against live groups, journaling to
	// the recovered log — which must take the appends and then restart
	// with nothing in doubt.
	log.set(l.CrossLog)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	settled, err := coord.Recover(ctx, recs)
	cancel()
	if err != nil || settled != len(states) {
		t.Fatalf("%s: Recover settled %d of %d in-doubt transactions, err %v", tag, settled, len(states), err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("%s: close after recovery: %v", tag, err)
	}
	l2, recs, err := shard.OpenCrossSegmented("", crashOpts(disk))
	if err != nil {
		t.Fatalf("%s: second recovery failed: %v", tag, err)
	}
	defer l2.Close() //nolint:errcheck
	if len(recs) != 0 {
		t.Fatalf("%s: %d records still in doubt after Recover and a restart: %+v", tag, len(recs), recs)
	}
	return settled, fromSnapshot
}
