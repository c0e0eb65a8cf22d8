package wal_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/types"
	"repro/internal/wal"
)

// counts are a log's figures as its registry exposes them.
type counts struct {
	Appends, Fsyncs, Groups, SegmentsCreated, SegmentsCompacted, Snapshots uint64
}

// walCounts reads the wal_* families of a decision journal (the log named
// "decisions") from reg.
func walCounts(reg *obs.Registry) counts {
	const name = "decisions"
	c := func(family string) uint64 { return reg.CounterVec(family, "", "log").With(name).Value() }
	return counts{
		Appends:           c("wal_appends_total"),
		Fsyncs:            c("wal_fsyncs_total"),
		Groups:            reg.HistogramVec("wal_group_commit_batch_size", "", obs.SizeBuckets, "log").With(name).Count(),
		SegmentsCreated:   c("wal_segments_created_total"),
		SegmentsCompacted: c("wal_segments_compacted_total"),
		Snapshots:         c("wal_snapshots_written_total"),
	}
}

func decisionFor(i int) types.Decision {
	if i%3 == 0 {
		return types.DecisionAbort
	}
	return types.DecisionCommit
}

func txnID(i int) string { return fmt.Sprintf("txn-%04d", i) }

// TestDecisionLogRoundTrip: decisions appended and synced survive a
// close/reopen; those that fell out of the window are dropped from the
// recovered map.
func TestDecisionLogRoundTrip(t *testing.T) {
	fs := wal.NewMemFS()
	const txns, window = 50, 40
	open := func() *wal.DecisionLog {
		t.Helper()
		dl, err := wal.OpenDecisionLogWindow(wal.SegmentedOptions{FS: fs, SegmentBytes: 256, SnapshotEvery: 8}, window)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		return dl
	}

	dl := open()
	if n := len(dl.Recovered()); n != 0 {
		t.Fatalf("fresh log recovered %d decisions", n)
	}
	for i := 0; i < txns; i++ {
		if err := dl.AppendSync(txnID(i), decisionFor(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := dl.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	dl2 := open()
	defer dl2.Close() //nolint:errcheck
	rec := dl2.Recovered()
	for i := 0; i < txns-window; i++ {
		if _, ok := rec[txnID(i)]; ok {
			t.Errorf("%s survived recovery outside the window", txnID(i))
		}
	}
	for i := txns - window; i < txns; i++ {
		if got := rec[txnID(i)]; got != decisionFor(i) {
			t.Errorf("%s: recovered %v, want %v", txnID(i), got, decisionFor(i))
		}
	}
	if len(rec) != window {
		t.Errorf("recovered %d decisions, want %d", len(rec), window)
	}
}

// TestSegmentedRotation: records spill across many small segments and all
// replay on reopen.
func TestSegmentedRotation(t *testing.T) {
	fs, reg := wal.NewMemFS(), obs.NewRegistry()
	opts := wal.SegmentedOptions{FS: fs, SegmentBytes: 64, Registry: reg}
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
	st := walCounts(reg)
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
// With the window holding the state at S members, the records replayed at
// open stay within S + SnapshotEvery + one group however long the log has
// lived, and compaction keeps the directory small. With a window wider
// than the log the state grows with it, and N records cost O(log N)
// snapshots — each is paid for by the log growing as much again — not
// N/SnapshotEvery.
func TestSnapshotBoundsReplay(t *testing.T) {
	const every = 16
	// run journals txns decisions into a window of that many members (0:
	// DecisionWindow, wider than any run here) and reopens the log.
	run := func(txns, window int) (replayed, recovered int, st counts, files int) {
		t.Helper()
		fs, reg := wal.NewMemFS(), obs.NewRegistry()
		opts := wal.SegmentedOptions{FS: fs, SegmentBytes: 512, SnapshotEvery: every, Registry: reg}
		open := func() (*wal.DecisionLog, error) {
			if window == 0 {
				return wal.OpenDecisionLog(opts)
			}
			return wal.OpenDecisionLogWindow(opts, window)
		}
		dl, err := open()
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		for i := 0; i < txns; i++ {
			if err := dl.AppendSync(txnID(i), decisionFor(i)); err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
		}
		st = walCounts(reg)
		if err := dl.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		dl2, err := open()
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
		const state, group = 32, 1 // a group is one decision
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

// countFS counts the writes and syncs its files see, can hold one Sync
// open so a test decides what queues up behind it, and once armed fails
// every Sync with fail — the disk-died-under-the-group case.
type countFS struct {
	wal.FS
	writes, syncs atomic.Int32
	hold          atomic.Bool   // the next Sync parks until release sends or closes
	parked        chan struct{} // receives once that Sync is inside
	release       chan struct{}
	armed         atomic.Bool // read as a Sync starts, before it parks
	fail          error
}

// newCountFS is a countFS over a fresh MemFS.
func newCountFS() *countFS {
	return &countFS{FS: wal.NewMemFS(), parked: make(chan struct{}), release: make(chan struct{})}
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
	failed := f.fs.armed.Load()
	if f.fs.hold.CompareAndSwap(true, false) {
		f.fs.parked <- struct{}{}
		<-f.fs.release
	}
	if failed {
		return f.fs.fail
	}
	return f.File.Sync()
}

// queueBehindHeldSync parks the writer inside the fsync of a first record,
// has clients goroutines append one record each, and returns once every
// one of them is queued behind it, with the channel their acks (and the
// first record's) arrive on. The caller releases the held fsync.
func queueBehindHeldSync(t *testing.T, dl *wal.DecisionLog, cfs *countFS, clients int) <-chan error {
	t.Helper()
	acks := make(chan error, clients+1)
	cfs.hold.Store(true)
	if err := dl.Append("first", types.DecisionCommit, func(err error) { acks <- err }); err != nil {
		t.Fatal(err)
	}
	<-cfs.parked
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = dl.Append(txnID(i), decisionFor(i), func(err error) { acks <- err })
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	return acks
}

// TestGroupIsOneWriteOneSync: the k records of a group reach the segment in
// one Write followed by one Sync; only a rotation inside the group splits
// the write, once per segment it seals, and every record still replays.
func TestGroupIsOneWriteOneSync(t *testing.T) {
	const k = 64
	for _, segBytes := range []int{0 /* default: no rotation */, 256} {
		cfs, reg := newCountFS(), obs.NewRegistry()
		opts := wal.SegmentedOptions{FS: cfs, SegmentBytes: segBytes, Registry: reg}
		dl, err := wal.OpenDecisionLog(opts)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		// Park the writer inside a first group's fsync, queue k records
		// behind it, and let go: they are the next group.
		acks := queueBehindHeldSync(t, dl, cfs, k)
		writes, syncs, segs := cfs.writes.Load(), cfs.syncs.Load(), walCounts(reg).SegmentsCreated
		close(cfs.release)
		for i := 0; i < k+1; i++ {
			if err := <-acks; err != nil {
				t.Fatalf("segment bytes %d: append failed: %v", segBytes, err)
			}
		}
		st := walCounts(reg)
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
// barriers — appends that queue while the writer is inside an fsync are
// the next group, so N concurrent appends complete in far fewer than N
// fsyncs.
func TestGroupCommitCoalescesFsyncs(t *testing.T) {
	cfs, reg := newCountFS(), obs.NewRegistry()
	dl, err := wal.OpenDecisionLog(wal.SegmentedOptions{FS: cfs, Registry: reg})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer dl.Close() //nolint:errcheck

	const clients = 64
	acks := queueBehindHeldSync(t, dl, cfs, clients)
	close(cfs.release)
	for i := 0; i < clients+1; i++ {
		if err := <-acks; err != nil {
			t.Fatalf("append failed: %v", err)
		}
	}
	st := walCounts(reg)
	if st.Appends != clients+1 {
		t.Fatalf("appends=%d, want %d", st.Appends, clients+1)
	}
	// 64 appends queued behind one held fsync are one group; 16 fsyncs
	// (4x amortization) is a very loose ceiling.
	if st.Fsyncs*4 > st.Appends {
		t.Errorf("group commit did not coalesce: %d fsyncs for %d appends", st.Fsyncs, st.Appends)
	}
}

// TestSegmentedFlushErrorReachesEveryWaiter: when the group's single
// fsync fails, EVERY append coalesced into that group observes the error
// — none is acked — and the log is poisoned with that error before the
// first waiter hears of it, and stays so: the durable suffix is unknown
// after a failed flush, so nobody retries it.
func TestSegmentedFlushErrorReachesEveryWaiter(t *testing.T) {
	errDisk := errors.New("disk gone")
	cfs := newCountFS()
	cfs.fail = errDisk
	dl, err := wal.OpenDecisionLog(wal.SegmentedOptions{FS: cfs})
	if err != nil {
		t.Fatalf("open: %v", err)
	}

	// The held fsync covers the first record and succeeds; the disk dies
	// under the group queued behind it.
	const clients = 16
	acks := queueBehindHeldSync(t, dl, cfs, clients)
	cfs.armed.Store(true)
	before := cfs.syncs.Load()
	close(cfs.release)
	if err := <-acks; err != nil {
		t.Fatalf("the first record's fsync ran before the disk died, got %v", err)
	}
	for i := 0; i < clients; i++ {
		if err := <-acks; !errors.Is(err, errDisk) {
			t.Fatalf("append %d of the group got %v, want the disk error", i, err)
		}
		// The log is poisoned before any waiter hears of the failure.
		if i == 0 {
			if err := dl.Append("early", types.DecisionCommit, nil); !errors.Is(err, errDisk) {
				t.Errorf("an append once the failure was heard got %v, want the disk error", err)
			}
		}
	}
	if !errors.Is(dl.Err(), errDisk) {
		t.Errorf("failed flush poisoned the log with %v, want the disk error", dl.Err())
	}
	if err := dl.AppendSync("late", types.DecisionCommit); !errors.Is(err, errDisk) {
		t.Errorf("post-poison append got %v, want the disk error", err)
	}
	if n := cfs.syncs.Load() - before; n != 1 {
		t.Errorf("fsync ran %d times after a poisoning failure, want 1", n)
	}
	dl.Close() //nolint:errcheck // already poisoned
}

// TestDifferentialSegmentedVsReconstruct: a stream of batches, ids
// repeating, journaled through the segmented decision journal on disk
// (with rotation and snapshots forced) and replayed must reconstruct the
// SAME window as folding the stream in memory — the fold is the oracle:
// an id answers with its newest member while that member is among the
// newest `window` journaled.
func TestDifferentialSegmentedVsReconstruct(t *testing.T) {
	const window = 48
	rng := rand.New(rand.NewSource(1))
	var stream []decision
	opts := func() wal.SegmentedOptions {
		fs, err := wal.NewDirFS(filepath.Join(t.TempDir(), "journal"))
		if err != nil {
			t.Fatal(err)
		}
		return wal.SegmentedOptions{FS: fs, SegmentBytes: 128, SnapshotEvery: 64}
	}()
	dl, err := wal.OpenDecisionLogWindow(opts, window)
	if err != nil {
		t.Fatalf("segmented open: %v", err)
	}
	if len(dl.Recovered()) != 0 {
		t.Fatalf("fresh segmented journal recovered %v", dl.Recovered())
	}
	for records := 0; records < 300; records++ {
		var ids []string
		var decs []types.Decision
		for w := 1 + rng.Intn(4); w > 0; w-- {
			x := decision{txnID(rng.Intn(80)), decisionFor(rng.Intn(3))}
			stream = append(stream, x)
			ids, decs = append(ids, x.id), append(decs, x.d)
		}
		done := make(chan error, 1)
		if err := dl.AppendBatch(ids, decs, func(err error) { done <- err }); err != nil {
			t.Fatalf("segmented append: %v", err)
		}
		if err := <-done; err != nil {
			t.Fatalf("segmented append: %v", err)
		}
	}
	if err := dl.Close(); err != nil {
		t.Fatalf("segmented close: %v", err)
	}
	want := make(map[string]types.Decision)
	for _, x := range stream[len(stream)-window:] {
		want[x.id] = x.d
	}

	dl2, err := wal.OpenDecisionLogWindow(opts, window)
	if err != nil {
		t.Fatalf("segmented reopen: %v", err)
	}
	defer dl2.Close() //nolint:errcheck
	if got := dl2.Recovered(); !reflect.DeepEqual(got, want) {
		t.Fatalf("segmented replay diverged from the fold:\n got %v\nwant %v", got, want)
	}
	if got := dl2.RecoveredOrder(); len(got) != window {
		t.Errorf("recovered a window of %d members, want %d", len(got), window)
	}
	if rs := dl2.ReplayStats(); rs.SnapshotSeq == 0 || rs.Records == 300 {
		t.Errorf("differential run never exercised a snapshot (stats %+v)", rs)
	}
}

// TestAppendBlocksOnFullQueue: with the writer held inside an fsync, one
// goroutine appending without waiting fills the queue and then blocks —
// an append is never dropped — and every append completes once the fsync
// is released.
func TestAppendBlocksOnFullQueue(t *testing.T) {
	cfs := newCountFS()
	dl, err := wal.OpenDecisionLog(wal.SegmentedOptions{FS: cfs})
	if err != nil {
		t.Fatal(err)
	}
	cfs.hold.Store(true)
	limit := 2*wal.QueueDepth + 2
	var issued, acked atomic.Int64
	finished := make(chan error, 1)
	go func() {
		for i := 0; i < limit; i++ {
			if err := dl.Append(txnID(i), decisionFor(i), func(err error) {
				if err == nil {
					acked.Add(1)
				}
			}); err != nil {
				finished <- err
				return
			}
			issued.Add(1)
		}
		finished <- nil
	}()
	<-cfs.parked
	// Wait until the appender has filled the queue and stops making
	// progress: it is blocked.
	deadline := time.Now().Add(10 * time.Second)
	for last := int64(-1); issued.Load() != last || last < wal.QueueDepth; time.Sleep(50 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the appender issued %d appends in 10 s, want a full queue of %d", issued.Load(), wal.QueueDepth)
		}
		last = issued.Load()
	}
	select {
	case err := <-finished:
		t.Fatalf("all %d appends returned (%v) while the writer was held: the queue dropped or grew", limit, err)
	default:
	}
	if n := issued.Load(); n < wal.QueueDepth || n >= int64(limit) {
		t.Fatalf("the appender blocked after %d appends, want a full queue of %d", n, wal.QueueDepth)
	}
	close(cfs.release)
	if err := <-finished; err != nil {
		t.Fatalf("a blocked append failed after the release: %v", err)
	}
	if err := dl.Close(); err != nil {
		t.Fatal(err)
	}
	if got := acked.Load(); got != int64(limit) {
		t.Fatalf("%d of %d appends acked", got, limit)
	}
}

// TestPerMemberJournalStillOpens: a journal written by the per-member
// format — a snapshot sorted by id, then decide and retire records —
// opens, recovers every decision it holds (a retire record is read and
// ignored: the window drops old members by itself), and takes batch
// records after it.
func TestPerMemberJournalStillOpens(t *testing.T) {
	files := make(map[string][]byte)
	for _, name := range []string{"snap-00000002.snap", "wal-00000002.seg"} {
		raw, err := os.ReadFile(filepath.Join("testdata", "per-member-journal", name))
		if err != nil {
			t.Fatal(err)
		}
		files[name] = raw
	}
	fs := memWith(t, files)
	// Written as p-00..p-15, p-i ABORT when i%3 == 0, retiring p-01, p-05,
	// p-09 and p-13: the snapshot covers p-00..p-09 without the first two
	// retired, the suffix holds the rest, its two retires included.
	order := []string{"p-00", "p-02", "p-03", "p-04", "p-06", "p-07", "p-08", "p-09",
		"p-10", "p-11", "p-12", "p-13", "p-14", "p-15"}
	want := make(map[string]types.Decision)
	for _, id := range order {
		var i int
		fmt.Sscanf(id, "p-%d", &i) //nolint:errcheck // the ids above
		want[id] = decisionFor(i)
	}
	opts := wal.SegmentedOptions{FS: fs, SegmentBytes: 1024, SnapshotEvery: 12}
	dl, err := wal.OpenDecisionLog(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := dl.Recovered(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
	if got := dl.RecoveredOrder(); !reflect.DeepEqual(got, order) {
		t.Fatalf("recovered order %q, want %q", got, order)
	}
	for i := 16; i < 40; i++ {
		if err := dl.AppendSync(fmt.Sprintf("p-%02d", i), decisionFor(i)); err != nil {
			t.Fatal(err)
		}
		want[fmt.Sprintf("p-%02d", i)] = decisionFor(i)
	}
	if err := dl.Close(); err != nil {
		t.Fatal(err)
	}
	dl, err = wal.OpenDecisionLog(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer dl.Close() //nolint:errcheck
	if got := dl.Recovered(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after batch records: recovered %v, want %v", got, want)
	}
}
