package wal_test

import (
	"bytes"
	"errors"
	"io"
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

// durable reports whether id's record is in the durable prefix of mem's
// segments: what a power loss at this instant would leave.
func durable(t *testing.T, mem *wal.MemFS, id string) bool {
	crashed := mem.CrashCopy(nil)
	names, err := crashed.List()
	if err != nil {
		t.Error(err)
		return false
	}
	for _, name := range names {
		if !strings.HasSuffix(name, ".seg") {
			continue
		}
		f, err := crashed.Open(name)
		if err != nil {
			t.Error(err)
			return false
		}
		raw, err := io.ReadAll(f)
		f.Close() //nolint:errcheck // read-only
		if err != nil {
			t.Error(err)
			return false
		}
		if bytes.Contains(raw, []byte(id)) {
			return true
		}
	}
	return false
}

// queueConcurrently has width goroutines append one record each and
// returns once all are queued; done(id) is each record's waiter.
func queueConcurrently(t *testing.T, dl *wal.DecisionLog, ids []string, done func(id string) func(error)) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, len(ids))
	for i, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = dl.Append(id, types.DecisionCommit, done(id))
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("append %s: %v", ids[i], err)
		}
	}
}

// TestWaitersFireInFlushOrderAfterTheirFsync: across groups, waiters fire
// in the order their records reach the journal, and each only once the
// fsync covering its record has made it durable. The writer is parked in
// every group's fsync while the next group queues, so the groups are the
// test's: the first record alone, then six of eight records each.
func TestWaitersFireInFlushOrderAfterTheirFsync(t *testing.T) {
	cfs, reg := newCountFS(), obs.NewRegistry()
	mem := cfs.FS.(*wal.MemFS)
	opts := wal.SegmentedOptions{FS: cfs, Registry: reg}
	dl, err := wal.OpenDecisionLog(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Only the notifier touches these until Close has returned.
	var fired, early []string
	waiter := func(id string) func(error) {
		return func(err error) {
			if err != nil {
				t.Errorf("%s: %v", id, err)
			}
			if !durable(t, mem, id) {
				early = append(early, id)
			}
			fired = append(fired, id)
		}
	}
	const groups, width = 6, 8
	cfs.hold.Store(true)
	if err := dl.Append("first", types.DecisionCommit, waiter("first")); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < groups; g++ {
		<-cfs.parked // the writer is inside the previous group's fsync
		ids := make([]string, width)
		for i := range ids {
			ids[i] = txnID(g*width + i)
		}
		queueConcurrently(t, dl, ids, waiter)
		cfs.hold.Store(true)
		cfs.release <- struct{}{}
	}
	<-cfs.parked
	cfs.release <- struct{}{}
	if err := dl.Close(); err != nil {
		t.Fatal(err)
	}
	if got := walCounts(reg).Groups; got != groups+1 {
		t.Fatalf("%d groups, want %d", got, groups+1)
	}
	if len(early) > 0 {
		t.Errorf("waiters fired before their fsync: %q", early)
	}
	dl, err = wal.OpenDecisionLog(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer dl.Close() //nolint:errcheck
	if journal := dl.RecoveredOrder(); !reflect.DeepEqual(fired, journal) {
		t.Errorf("waiters fired in the order\n%q\nthe journal holds\n%q", fired, journal)
	}
}

// TestBlockedWaiterDoesNotHoldTheNextFlush: while a waiter blocks, the
// writer still writes and forces the next group; that group's waiter
// fires after the blocked one returns, in flush order.
func TestBlockedWaiterDoesNotHoldTheNextFlush(t *testing.T) {
	cfs := newCountFS()
	mem := cfs.FS.(*wal.MemFS)
	dl, err := wal.OpenDecisionLog(wal.SegmentedOptions{FS: cfs})
	if err != nil {
		t.Fatal(err)
	}
	defer dl.Close() //nolint:errcheck
	blocked, unblock := make(chan struct{}), make(chan struct{})
	order := make(chan string, 2)
	if err := dl.Append("first", types.DecisionCommit, func(error) {
		close(blocked)
		<-unblock
		order <- "first"
	}); err != nil {
		t.Fatal(err)
	}
	<-blocked
	if err := dl.Append("second", types.DecisionCommit, func(error) { order <- "second" }); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !durable(t, mem, "second") {
		if time.Now().After(deadline) {
			close(unblock)
			t.Fatalf("the second group was not durable 5 s into the first group's blocked waiter (%d fsyncs)", cfs.syncs.Load())
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case id := <-order:
		t.Fatalf("%s's waiter fired while the first one blocked", id)
	default:
	}
	close(unblock)
	if a, b := <-order, <-order; a != "first" || b != "second" {
		t.Errorf("waiters fired %s, %s; want first, second", a, b)
	}
}

// TestCloseAndKillWaitForEveryWaiter: Close and Kill return only after
// every waiter has fired exactly once — nil for a record its fsync
// covered, ErrLogKilled for one Kill abandoned. The waiters are slow, so
// a return that did not wait for them would find most unfired.
func TestCloseAndKillWaitForEveryWaiter(t *testing.T) {
	const clients = 16
	for _, kill := range []bool{false, true} {
		cfs := newCountFS()
		dl, err := wal.OpenDecisionLog(wal.SegmentedOptions{FS: cfs})
		if err != nil {
			t.Fatal(err)
		}
		var fired, acked, killed atomic.Int32
		var twice sync.Map
		waiter := func(id string) func(error) {
			return func(err error) {
				time.Sleep(2 * time.Millisecond)
				if _, again := twice.LoadOrStore(id, true); again {
					t.Errorf("kill=%v: %s's waiter fired twice", kill, id)
				}
				switch {
				case err == nil:
					acked.Add(1)
				case errors.Is(err, wal.ErrLogKilled):
					killed.Add(1)
				default:
					t.Errorf("kill=%v: %s: %v", kill, id, err)
				}
				fired.Add(1)
			}
		}
		cfs.hold.Store(true)
		if err := dl.Append("first", types.DecisionCommit, waiter("first")); err != nil {
			t.Fatal(err)
		}
		<-cfs.parked
		ids := make([]string, clients)
		for i := range ids {
			ids[i] = txnID(i)
		}
		queueConcurrently(t, dl, ids, waiter)
		stopped := make(chan error, 1)
		if kill {
			go func() { dl.Kill(); stopped <- nil }()
			// Kill poisons the log before it stops the writer.
			for !errors.Is(dl.Err(), wal.ErrLogKilled) {
				time.Sleep(time.Millisecond)
			}
		} else {
			go func() { stopped <- dl.Close() }()
		}
		close(cfs.release)
		if err := <-stopped; err != nil {
			t.Fatalf("close: %v", err)
		}
		if n := fired.Load(); n != clients+1 {
			t.Fatalf("kill=%v: returned with %d of %d waiters fired", kill, n, clients+1)
		}
		// The held fsync covered the first record; Kill abandons the rest.
		if wantAcked := map[bool]int32{false: clients + 1, true: 1}[kill]; acked.Load() != wantAcked {
			t.Errorf("kill=%v: %d acked and %d killed, want %d acked", kill, acked.Load(), killed.Load(), wantAcked)
		}
	}
}
