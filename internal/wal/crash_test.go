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
//	acked    ⊆ recovered  (inside the window): no decision whose append
//	                      was acked and which is among the newest W appended
//	                      may be missing or changed
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

// decisionWorkload is the decision journal's crashWorkload: txns
// decisions in batch records of the given width, each appended once the
// last is durable. window 0 keeps every member (DecisionWindow); a
// smaller one pushes members out of the window as the sweep runs.
func decisionWorkload(txns, width, window int) crashWorkload {
	open := func(fs wal.FS) (*wal.DecisionLog, error) {
		if window == 0 {
			return wal.OpenDecisionLog(crashOpts(fs))
		}
		return wal.OpenDecisionLogWindow(crashOpts(fs), window)
	}
	return func(t *testing.T, fs wal.FS) crashRun {
		dl, err := open(fs)
		if err != nil {
			return openFailed(err, func(t *testing.T, tag string, disk *wal.MemFS) {
				checkRecovery(t, tag, open, disk, nil, nil, window)
			})
		}
		acked, appended := driveDecisions(dl, txns, width)
		return crashRun{
			close: dl.Close,
			kill:  dl.Kill,
			check: func(t *testing.T, tag string, disk *wal.MemFS) {
				checkRecovery(t, tag, open, disk, acked, appended, window)
			},
		}
	}
}

// driveDecisions drives a journal until the injected fault kills it (or
// to completion), returning what was acked (its batch's done reported
// nil) and every decision ever appended, in journal order.
func driveDecisions(dl *wal.DecisionLog, txns, width int) (acked map[string]bool, appended []decision) {
	acked = make(map[string]bool)
	for i := 0; i < txns; i += width {
		var ids []string
		var decs []types.Decision
		for j := i; j < min(i+width, txns); j++ {
			ids = append(ids, txnID(j))
			decs = append(decs, decisionFor(j))
			appended = append(appended, decision{txnID(j), decisionFor(j)})
		}
		done := make(chan error, 1)
		if err := dl.AppendBatch(ids, decs, func(err error) { done <- err }); err != nil {
			return acked, appended // crashed
		}
		if err := <-done; err != nil {
			return acked, appended
		}
		for _, id := range ids {
			acked[id] = true
		}
	}
	return acked, appended
}

// checkRecovery opens the journal on a crash copy and asserts the
// durability invariant, then proves the recovered journal is still
// usable (appendable and restartable).
func checkRecovery(t *testing.T, tag string, open func(wal.FS) (*wal.DecisionLog, error), disk *wal.MemFS,
	acked map[string]bool, appended []decision, window int) {
	t.Helper()
	dl, err := open(disk)
	if err != nil {
		t.Fatalf("%s: recovery failed: %v", tag, err)
	}
	rec := dl.Recovered()
	// No more than the appended members can be on disk, so the newest
	// `window` of them bound what the recovered window may have dropped.
	inside := appended
	if window > 0 && len(inside) > window {
		inside = inside[len(inside)-window:]
	}
	for _, x := range inside {
		if !acked[x.id] {
			continue
		}
		got, ok := rec[x.id]
		if !ok {
			t.Fatalf("%s: acked decision %s lost in recovery", tag, x.id)
		}
		if got != x.d {
			t.Fatalf("%s: acked decision %s recovered as %v, want %v", tag, x.id, got, x.d)
		}
	}
	want := make(map[string]types.Decision, len(appended))
	for _, x := range appended {
		want[x.id] = x.d
	}
	for id, got := range rec {
		d, ok := want[id]
		if !ok {
			t.Fatalf("%s: recovery invented decision for %s", tag, id)
		}
		if got != d {
			t.Fatalf("%s: %s recovered as %v, never appended as that", tag, id, got)
		}
	}
	if window > 0 && len(rec) > window {
		t.Fatalf("%s: recovered %d decisions, more than the window of %d", tag, len(rec), window)
	}
	// Liveness: the recovered journal takes new work and survives
	// another clean restart.
	if err := dl.AppendSync("post-crash", types.DecisionCommit); err != nil {
		t.Fatalf("%s: recovered journal rejected append: %v", tag, err)
	}
	if err := dl.Close(); err != nil {
		t.Fatalf("%s: close after recovery: %v", tag, err)
	}
	dl2, err := open(disk)
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
// decision is the deterministic sweep: each batch record is appended once
// the last is durable (every append is its own single-record group), so
// the operation sequence is identical run to run and failAt k kills the
// same boundary every time.
//
// cross is the cross-shard log's begin → verdicts → outcome workload
// (crash_cross_test.go). Its begin and verdict appends are asynchronous,
// so op counts can vary slightly between runs.
func TestCrashPointSweep(t *testing.T) {
	txns := 40
	if testing.Short() {
		txns = 12
	}
	t.Run("decision", func(t *testing.T) {
		workload := decisionWorkload(txns, 1, 0)
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

// TestCrashPointSweepWithWindowEviction journals batches of three into a
// window of eight members, so members leave the window (and snapshots
// hold a full one) at crash points all through the sweep: every acked
// decision inside the window recovers exactly, and nothing recovers with
// a wrong value.
func TestCrashPointSweepWithWindowEviction(t *testing.T) {
	txns := 120
	if testing.Short() {
		txns = 36
	}
	sweepCrashPoints(t, decisionWorkload(txns, 3, 8), txns/3*2)
}
