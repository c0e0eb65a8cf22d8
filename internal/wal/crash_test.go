package wal_test

import (
	"fmt"
	"testing"

	"repro/internal/types"
	"repro/internal/wal"
)

// The crash-point sweep: run a journal workload against a FaultFS that
// kills every mutating filesystem operation past boundary k, for EVERY k
// the fault-free run executes — so the "process" dies at every record
// write, every group fsync, every segment rotation, and every snapshot
// create/write/sync/rename/compaction step exactly once. Each crashed
// run is then recovered from a CrashCopy of the in-memory disk — the
// state a rebooted machine would actually see — under three durability
// assumptions about the un-fsynced suffix: fully lost, fully present,
// and torn mid-write.
//
// The sweep is parametrised by workload (crashWorkload), one per record
// codec over the segmented log: the decision journal here, the
// cross-shard log in crash_cross_test.go.
//
// The decision journal's invariant, at every boundary and under every
// assumption, is the group-commit durability contract:
//
//	acked    ⊆ recovered  (modulo explicit retirement): no decision whose
//	                      AppendSync returned nil may be missing or changed
//	recovered ⊆ appended: recovery never invents or flips a decision
//
// plus liveness: the recovered journal accepts new appends and survives
// another restart.

// crashOpts must match between the crashed run and recovery so the
// segment/snapshot geometry lines up.
func crashOpts(fs wal.FS) wal.SegmentedOptions {
	return wal.SegmentedOptions{FS: fs, SegmentBytes: 128, SnapshotEvery: 8}
}

// crashRun is one incarnation of a journal under the sweep: the workload
// has already been driven until the injected fault stopped it (or to
// completion).
type crashRun struct {
	// close shuts the journal down cleanly (the fault-free counting run).
	close func() error
	// kill is the simulated kill -9: nothing more reaches the disk.
	kill func()
	// check recovers the journal from a crash copy of the disk and
	// asserts the workload's durability invariant and its liveness.
	check func(t *testing.T, tag string, disk *wal.MemFS)
}

// crashWorkload opens a journal on fs (with crashOpts, so the geometry
// matches recovery's) and drives it. A run whose open already hit the
// fault has nothing to close or kill, and checks with nothing acked.
type crashWorkload func(t *testing.T, fs wal.FS) crashRun

// openFailed is the crashRun of an incarnation whose open hit the fault.
func openFailed(err error, check func(t *testing.T, tag string, disk *wal.MemFS)) crashRun {
	return crashRun{close: func() error { return err }, kill: func() {}, check: check}
}

// decisionWorkload is the decision journal's crashWorkload.
func decisionWorkload(txns int, withRetire bool) crashWorkload {
	return func(t *testing.T, fs wal.FS) crashRun {
		dl, err := wal.OpenDecisionLog(crashOpts(fs))
		if err != nil {
			none := map[string]types.Decision{}
			return openFailed(err, func(t *testing.T, tag string, disk *wal.MemFS) {
				checkRecovery(t, tag, disk, none, none, nil)
			})
		}
		acked, appended, retired := driveDecisions(dl, txns, withRetire)
		return crashRun{
			close: dl.Close,
			kill:  dl.Kill,
			check: func(t *testing.T, tag string, disk *wal.MemFS) {
				checkRecovery(t, tag, disk, acked, appended, retired)
			},
		}
	}
}

// driveDecisions drives a journal until the injected fault kills it (or
// to completion), returning what was acked (AppendSync returned nil),
// what was ever appended, and which ids had retirement requested.
func driveDecisions(dl *wal.DecisionLog, txns int, withRetire bool) (acked, appended map[string]types.Decision, retired map[string]bool) {
	acked = make(map[string]types.Decision)
	appended = make(map[string]types.Decision)
	retired = make(map[string]bool)
	for i := 0; i < txns; i++ {
		id, d := txnID(i), decisionFor(i)
		appended[id] = d
		if err := dl.AppendSync(id, d); err != nil {
			return acked, appended, retired // crashed
		}
		acked[id] = d
		if withRetire && i >= 10 && i%5 == 0 {
			old := txnID(i - 10)
			retired[old] = true
			if err := dl.Retire(old); err != nil {
				return acked, appended, retired
			}
		}
	}
	return acked, appended, retired
}

// checkRecovery opens the journal on a crash copy and asserts the
// durability invariant, then proves the recovered journal is still
// usable (appendable and restartable).
func checkRecovery(t *testing.T, tag string, disk *wal.MemFS, acked, appended map[string]types.Decision, retired map[string]bool) {
	t.Helper()
	dl, err := wal.OpenDecisionLog(crashOpts(disk))
	if err != nil {
		t.Fatalf("%s: recovery failed: %v", tag, err)
	}
	rec := dl.Recovered()
	for id, d := range acked {
		if retired[id] {
			continue // retirement explicitly released the obligation
		}
		got, ok := rec[id]
		if !ok {
			t.Fatalf("%s: acked decision %s lost in recovery", tag, id)
		}
		if got != d {
			t.Fatalf("%s: acked decision %s recovered as %v, want %v", tag, id, got, d)
		}
	}
	for id, got := range rec {
		want, ok := appended[id]
		if !ok {
			t.Fatalf("%s: recovery invented decision for %s", tag, id)
		}
		if got != want {
			t.Fatalf("%s: %s recovered as %v, never appended as that", tag, id, got)
		}
	}
	// Liveness: the recovered journal takes new work and survives
	// another clean restart.
	if err := dl.AppendSync("post-crash", types.DecisionCommit); err != nil {
		t.Fatalf("%s: recovered journal rejected append: %v", tag, err)
	}
	if err := dl.Close(); err != nil {
		t.Fatalf("%s: close after recovery: %v", tag, err)
	}
	dl2, err := wal.OpenDecisionLog(crashOpts(disk))
	if err != nil {
		t.Fatalf("%s: second recovery failed: %v", tag, err)
	}
	defer dl2.Close() //nolint:errcheck
	if dl2.Recovered()["post-crash"] != types.DecisionCommit {
		t.Fatalf("%s: post-crash append lost across restart", tag)
	}
}

// sweepCrashPoints runs the workload fault-free to count its mutating
// operations, then replays it with a kill injected at every boundary,
// recovering each crash under all three torn-tail assumptions.
func sweepCrashPoints(t *testing.T, workload crashWorkload, minOps int) {
	total := opCount(t, workload)
	if total < minOps {
		t.Fatalf("implausible op count %d, want at least %d", total, minOps)
	}
	t.Logf("sweeping %d crash points", total)

	keeps := []struct {
		name string
		keep func(name string, unsynced int) int
	}{
		{"lost", nil}, // write barrier: unsynced suffix gone
		{"kept", func(string, int) int { return 1 << 20 }},                 // suffix fully reached the platter
		{"torn", func(_ string, unsynced int) int { return unsynced / 2 }}, // partial write
	}

	for failAt := 1; failAt <= total; failAt++ {
		disk := wal.NewMemFS()
		run := workload(t, wal.NewFaultFS(disk, failAt))
		run.kill()
		for _, k := range keeps {
			tag := fmt.Sprintf("failAt=%d/%s", failAt, k.name)
			run.check(t, tag, disk.CrashCopy(k.keep))
		}
	}
}

// opCount is the fault-free operation count of one run of the workload —
// what the sweep sweeps.
func opCount(t *testing.T, workload crashWorkload) int {
	t.Helper()
	c := wal.NewFaultFS(wal.NewMemFS(), 0)
	if err := workload(t, c).close(); err != nil {
		t.Fatalf("fault-free run: %v", err)
	}
	return c.Ops()
}

// TestCrashPointSweep sweeps both record codecs over the segmented log.
//
// decision is the deterministic sweep: a pure AppendSync workload (every
// append is its own single-record group) makes the operation sequence
// identical run to run, so failAt k kills the same boundary every time.
//
// cross is the cross-shard log's begin → verdicts → outcome workload
// (crash_cross_test.go). Its begin and verdict appends are asynchronous,
// so op counts can vary slightly between runs, as they do with
// retirement below.
func TestCrashPointSweep(t *testing.T) {
	txns := 40
	if testing.Short() {
		txns = 12
	}
	t.Run("decision", func(t *testing.T) {
		workload := decisionWorkload(txns, false)
		// Determinism check: two fault-free runs execute the same op count.
		if a, b := opCount(t, workload), opCount(t, workload); a != b {
			t.Fatalf("workload not deterministic: %d vs %d ops", a, b)
		}
		sweepCrashPoints(t, workload, txns*2)
	})
	t.Run("cross", func(t *testing.T) {
		sweepCrashPoints(t, crossWorkload(t, txns), txns*2)
	})
}

// TestCrashPointSweepWithRetirement mixes asynchronous retire records
// into the stream. Retires ride the writer's natural batching, so op
// counts can vary slightly between runs — the sweep still visits every
// boundary of its own counting run, and the durability invariant must
// hold at all of them.
func TestCrashPointSweepWithRetirement(t *testing.T) {
	txns := 40
	if testing.Short() {
		txns = 12
	}
	sweepCrashPoints(t, decisionWorkload(txns, true), txns*2)
}
