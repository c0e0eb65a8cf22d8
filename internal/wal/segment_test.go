package wal_test

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/types"
	"repro/internal/wal"
)

func decisionFor(i int) types.Decision {
	if i%3 == 0 {
		return types.DecisionAbort
	}
	return types.DecisionCommit
}

func txnID(i int) string { return fmt.Sprintf("txn-%04d", i) }

// TestDecisionLogRoundTrip: decisions appended and synced survive a
// close/reopen; retired decisions are dropped from the recovered map.
func TestDecisionLogRoundTrip(t *testing.T) {
	fs := wal.NewMemFS()
	open := func() *wal.DecisionLog {
		t.Helper()
		dl, err := wal.OpenDecisionLog(wal.SegmentedOptions{FS: fs, SegmentBytes: 256, SnapshotEvery: 8})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		return dl
	}

	dl := open()
	if n := len(dl.Recovered()); n != 0 {
		t.Fatalf("fresh log recovered %d decisions", n)
	}
	const txns = 50
	for i := 0; i < txns; i++ {
		if err := dl.AppendSync(txnID(i), decisionFor(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := dl.Retire(txnID(i)); err != nil {
			t.Fatalf("retire %d: %v", i, err)
		}
	}
	if err := dl.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	dl2 := open()
	defer dl2.Close() //nolint:errcheck
	rec := dl2.Recovered()
	for i := 0; i < 10; i++ {
		if _, ok := rec[txnID(i)]; ok {
			t.Errorf("retired %s survived recovery", txnID(i))
		}
	}
	for i := 10; i < txns; i++ {
		if got := rec[txnID(i)]; got != decisionFor(i) {
			t.Errorf("%s: recovered %v, want %v", txnID(i), got, decisionFor(i))
		}
	}
	if len(rec) != txns-10 {
		t.Errorf("recovered %d decisions, want %d", len(rec), txns-10)
	}
}

// TestSegmentedRotation: records spill across many small segments and all
// replay on reopen.
func TestSegmentedRotation(t *testing.T) {
	fs := wal.NewMemFS()
	opts := wal.SegmentedOptions{FS: fs, SegmentBytes: 64}
	dl, err := wal.OpenDecisionLog(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	const txns = 40
	for i := 0; i < txns; i++ {
		if err := dl.AppendSync(txnID(i), decisionFor(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	st := dl.Stats()
	if err := dl.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if st.SegmentsCreated < 5 {
		t.Errorf("SegmentBytes=64 with %d records created only %d segments", txns, st.SegmentsCreated)
	}
	names, _ := fs.List()
	segs := 0
	for _, n := range names {
		if strings.HasSuffix(n, ".seg") {
			segs++
		}
	}
	if segs < 5 {
		t.Errorf("expected several segment files, found %d (%v)", segs, names)
	}

	dl2, err := wal.OpenDecisionLog(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer dl2.Close() //nolint:errcheck
	if got := len(dl2.Recovered()); got != txns {
		t.Fatalf("recovered %d decisions across segments, want %d", got, txns)
	}
	if dl2.ReplayStats().Records != txns {
		t.Errorf("replayed %d records, want %d (no snapshots configured)", dl2.ReplayStats().Records, txns)
	}
}

// TestSnapshotBoundsReplay: a snapshot is due once SnapshotEvery records
// and as many bytes as the last one weighed have been appended since it.
// With retire records holding the state at S entries, the records replayed
// at open stay within S + SnapshotEvery + one group however long the log has
// lived, and compaction keeps the directory small. With no retirement the
// state grows with the log, and N records cost O(log N) snapshots — each is
// paid for by the log growing as much again — not N/SnapshotEvery.
func TestSnapshotBoundsReplay(t *testing.T) {
	const every = 16
	// run journals txns decisions, retiring each once `window` newer ones
	// exist (0: never), and reopens the log.
	run := func(txns, window int) (replayed, recovered int, st wal.SegStats, files int) {
		t.Helper()
		fs := wal.NewMemFS()
		opts := wal.SegmentedOptions{FS: fs, SegmentBytes: 512, SnapshotEvery: every}
		dl, err := wal.OpenDecisionLog(opts)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		for i := 0; i < txns; i++ {
			if window > 0 && i >= window {
				// Asynchronous: it rides in the next decision's group.
				if err := dl.Retire(txnID(i - window)); err != nil {
					t.Fatalf("retire %d: %v", i-window, err)
				}
			}
			if err := dl.AppendSync(txnID(i), decisionFor(i)); err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
		}
		st = dl.Stats()
		if err := dl.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		dl2, err := wal.OpenDecisionLog(opts)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer dl2.Close() //nolint:errcheck
		want := txns
		if window > 0 && txns > window {
			want = window
		}
		if got := len(dl2.Recovered()); got != want {
			t.Fatalf("recovered %d decisions, want %d", got, want)
		}
		names, _ := fs.List()
		return dl2.ReplayStats().Records, want, st, len(names)
	}

	t.Run("bounded state", func(t *testing.T) {
		const state, group = 32, 2 // a group is a decision and the retire it carries
		small, _, _, _ := run(10*state, state)
		big, _, st, files := run(1000*state, state)
		if bound := state + every + group; small > bound || big > bound {
			t.Errorf("replay not bounded by state + cadence + a group = %d: small=%d big=%d", bound, small, big)
		}
		if st.Snapshots == 0 {
			t.Error("no snapshots written")
		}
		if st.SegmentsCompacted == 0 {
			t.Error("compaction never deleted a segment")
		}
		// Everything below the newest snapshot is compacted, so the directory
		// stays small no matter how long the log has lived.
		if files > 8 {
			t.Errorf("directory holds %d files after compaction", files)
		}
	})
	t.Run("growing state", func(t *testing.T) {
		replayedS, _, stS, _ := run(100*every, 0)
		replayedL, recovered, stL, _ := run(1000*every, 0)
		t.Logf("%d records: %d snapshots, %d replayed; %d records: %d snapshots, %d replayed",
			100*every, stS.Snapshots, replayedS, 1000*every, stL.Snapshots, replayedL)
		if replayedL > recovered+every+1 {
			t.Errorf("replayed %d records for a state of %d, want at most state + cadence + a group", replayedL, recovered)
		}
		// Ten times the records is a constant number of doublings more.
		if stS.Snapshots == 0 || stL.Snapshots > stS.Snapshots+8 || stL.Snapshots > 1000/10 {
			t.Errorf("%d snapshots for %d records and %d for %d: want O(log N), not N/%d",
				stS.Snapshots, 100*every, stL.Snapshots, 1000*every, every)
		}
	})
}

// countFS counts the writes and syncs its files see, and can hold one Sync
// open so a test decides what queues up behind it.
type countFS struct {
	wal.FS
	writes, syncs atomic.Int32
	hold          atomic.Bool   // the next Sync parks until release closes
	parked        chan struct{} // receives once that Sync is inside
	release       chan struct{}
}

func (f *countFS) OpenAppend(name string) (wal.File, error) {
	inner, err := f.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &countFile{File: inner, fs: f}, nil
}

func (f *countFS) Create(name string) (wal.File, error) {
	inner, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &countFile{File: inner, fs: f}, nil
}

type countFile struct {
	wal.File
	fs *countFS
}

func (f *countFile) Write(p []byte) (int, error) {
	f.fs.writes.Add(1)
	return f.File.Write(p)
}

func (f *countFile) Sync() error {
	f.fs.syncs.Add(1)
	if f.fs.hold.CompareAndSwap(true, false) {
		f.fs.parked <- struct{}{}
		<-f.fs.release
	}
	return f.File.Sync()
}

// TestGroupIsOneWriteOneSync: the k records of a group reach the segment in
// one Write followed by one Sync; only a rotation inside the group splits
// the write, once per segment it seals, and every record still replays.
func TestGroupIsOneWriteOneSync(t *testing.T) {
	const k = 64
	for _, segBytes := range []int{0 /* default: no rotation */, 256} {
		cfs := &countFS{FS: wal.NewMemFS(), parked: make(chan struct{}), release: make(chan struct{})}
		opts := wal.SegmentedOptions{FS: cfs, SegmentBytes: segBytes}
		dl, err := wal.OpenDecisionLog(opts)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		// Park the writer inside a first group's fsync, queue k records
		// behind it, and let go: they are the next group.
		cfs.hold.Store(true)
		acks := make(chan error, k+1)
		if err := dl.Append("first", types.DecisionCommit, func(err error) { acks <- err }); err != nil {
			t.Fatal(err)
		}
		<-cfs.parked
		for i := 0; i < k; i++ {
			if err := dl.Append(txnID(i), decisionFor(i), func(err error) { acks <- err }); err != nil {
				t.Fatal(err)
			}
		}
		writes, syncs, segs := cfs.writes.Load(), cfs.syncs.Load(), dl.Stats().SegmentsCreated
		close(cfs.release)
		for i := 0; i < k+1; i++ {
			if err := <-acks; err != nil {
				t.Fatalf("segment bytes %d: append failed: %v", segBytes, err)
			}
		}
		st := dl.Stats()
		if st.Groups != 2 || st.Appends != k+1 {
			t.Fatalf("segment bytes %d: %d appends in %d groups, want %d in 2", segBytes, st.Appends, st.Groups, k+1)
		}
		rotations := int32(st.SegmentsCreated - segs)
		if segBytes == 0 != (rotations == 0) {
			t.Fatalf("segment bytes %d: the group rotated %d times", segBytes, rotations)
		}
		// Each rotation writes what it seals and syncs it; the group's tail
		// is the one write and one sync more.
		if w, s := cfs.writes.Load()-writes, cfs.syncs.Load()-syncs; w != rotations+1 || s != rotations+1 {
			t.Errorf("segment bytes %d: a group of %d records took %d writes and %d syncs over %d rotations, want %d each",
				segBytes, k, w, s, rotations, rotations+1)
		}
		if err := dl.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		dl2, err := wal.OpenDecisionLog(opts)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if got := len(dl2.Recovered()); got != k+1 {
			t.Errorf("segment bytes %d: recovered %d decisions, want %d", segBytes, got, k+1)
		}
		dl2.Close() //nolint:errcheck
	}
}

// TestGroupCommitCoalescesFsyncs: concurrent durable appends share flush
// barriers — with a group-commit window, N concurrent appends complete in
// far fewer than N fsyncs.
func TestGroupCommitCoalescesFsyncs(t *testing.T) {
	fs := wal.NewMemFS()
	dl, err := wal.OpenDecisionLog(wal.SegmentedOptions{
		FS: fs, GroupCommit: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer dl.Close() //nolint:errcheck

	const clients = 64
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			errs[i] = dl.AppendSync(txnID(i), decisionFor(i))
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	st := dl.Stats()
	if st.Appends != clients {
		t.Fatalf("appends=%d, want %d", st.Appends, clients)
	}
	// 64 concurrent appends against a 20ms window should land in a few
	// groups; 16 fsyncs (4x amortization) is a very loose ceiling.
	if st.Fsyncs*4 > st.Appends {
		t.Errorf("group commit did not coalesce: %d fsyncs for %d appends", st.Fsyncs, st.Appends)
	}
}

// failSyncFS wraps an FS so every file Sync fails once armed — the
// disk-died-under-the-group case.
type failSyncFS struct {
	wal.FS
	armed atomic.Bool
	fail  error
	syncs atomic.Int32 // Sync calls made while armed
}

func (f *failSyncFS) OpenAppend(name string) (wal.File, error) {
	inner, err := f.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &failSyncFile{File: inner, fs: f}, nil
}

func (f *failSyncFS) Create(name string) (wal.File, error) {
	inner, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &failSyncFile{File: inner, fs: f}, nil
}

type failSyncFile struct {
	wal.File
	fs *failSyncFS
}

func (f *failSyncFile) Sync() error {
	if f.fs.armed.Load() {
		f.fs.syncs.Add(1)
		return f.fs.fail
	}
	return f.File.Sync()
}

// TestSegmentedFlushErrorReachesEveryWaiter: when the group's single
// fsync fails, EVERY append coalesced into that group observes the error
// — none is acked — and the log stays poisoned with that error: the
// durable suffix is unknown after a failed flush, so nobody retries it.
func TestSegmentedFlushErrorReachesEveryWaiter(t *testing.T) {
	errDisk := errors.New("disk gone")
	ffs := &failSyncFS{FS: wal.NewMemFS(), fail: errDisk}
	dl, err := wal.OpenDecisionLog(wal.SegmentedOptions{
		FS: ffs, GroupCommit: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	ffs.armed.Store(true)

	const clients = 16
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			errs[i] = dl.AppendSync(txnID(i), types.DecisionCommit)
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, errDisk) {
			t.Fatalf("append %d got %v, want the disk error", i, err)
		}
	}
	if !errors.Is(dl.Err(), errDisk) {
		t.Errorf("failed flush poisoned the log with %v, want the disk error", dl.Err())
	}
	if err := dl.AppendSync("late", types.DecisionCommit); !errors.Is(err, errDisk) {
		t.Errorf("post-poison append got %v, want the disk error", err)
	}
	if n := ffs.syncs.Load(); n != 1 {
		t.Errorf("fsync ran %d times after a poisoning failure, want 1", n)
	}
	dl.Close() //nolint:errcheck // already poisoned
}

// TestDifferentialSegmentedVsReconstruct: a decide/retire stream journaled
// through the segmented decision journal on disk (with rotation and
// snapshots forced) and replayed must reconstruct the SAME decisions as
// folding the stream in memory — the fold is the oracle.
func TestDifferentialSegmentedVsReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	want := make(map[string]types.Decision)
	opts := func() wal.SegmentedOptions {
		fs, err := wal.NewDirFS(filepath.Join(t.TempDir(), "journal"))
		if err != nil {
			t.Fatal(err)
		}
		return wal.SegmentedOptions{FS: fs, SegmentBytes: 128, SnapshotEvery: 64}
	}()
	dl, err := wal.OpenDecisionLog(opts)
	if err != nil {
		t.Fatalf("segmented open: %v", err)
	}
	if len(dl.Recovered()) != 0 {
		t.Fatalf("fresh segmented journal recovered %v", dl.Recovered())
	}
	for i := 0; i < 300; i++ {
		id := txnID(rng.Intn(40))
		if rng.Intn(4) == 0 {
			delete(want, id)
			if err := dl.Retire(id); err != nil {
				t.Fatalf("segmented retire: %v", err)
			}
			continue
		}
		want[id] = decisionFor(rng.Intn(3))
		if err := dl.AppendSync(id, want[id]); err != nil {
			t.Fatalf("segmented append: %v", err)
		}
	}
	if err := dl.Close(); err != nil {
		t.Fatalf("segmented close: %v", err)
	}

	dl2, err := wal.OpenDecisionLog(opts)
	if err != nil {
		t.Fatalf("segmented reopen: %v", err)
	}
	defer dl2.Close() //nolint:errcheck
	if got := dl2.Recovered(); !reflect.DeepEqual(got, want) {
		t.Fatalf("segmented replay diverged from the fold:\n got %v\nwant %v", got, want)
	}
	if rs := dl2.ReplayStats(); rs.SnapshotSeq == 0 || rs.Records == 300 {
		t.Errorf("differential run never exercised a snapshot (stats %+v)", rs)
	}
}
