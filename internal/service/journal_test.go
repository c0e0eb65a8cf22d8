package service_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/trace"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/wal"
)

// stallFS holds every fsync of the files it opens until the test
// releases it: the window in which a decision has been reached but the
// disk does not hold it yet.
type stallFS struct {
	wal.FS
	entered chan struct{} // one token per Sync that began waiting
	release chan struct{} // closed to let every Sync proceed
}

type stallFile struct {
	wal.File
	fs *stallFS
}

func (s *stallFS) OpenAppend(name string) (wal.File, error) {
	f, err := s.FS.OpenAppend(name)
	return &stallFile{f, s}, err
}

func (s *stallFS) Create(name string) (wal.File, error) {
	f, err := s.FS.Create(name)
	return &stallFile{f, s}, err
}

func (f *stallFile) Sync() error {
	select {
	case f.fs.entered <- struct{}{}:
	default:
	}
	<-f.fs.release
	return f.File.Sync()
}

// TestStatusWaitsForJournal: GET /status never reports COMMIT/ABORT
// before the journal's covering fsync has resolved — so a restart can
// never forget a decision a status poller already saw — and agrees with
// the POST's answer afterwards. A failed flush fails the ack and the
// status alike: no status shows a decision without its fsync. A decision
// adopted after a client TIMEOUT is journaled before the status flips,
// like any other.
func TestStatusWaitsForJournal(t *testing.T) {
	// FaultFS counts mutating operations; opening the journal costs a
	// fixed number, after which the first append is one write and one
	// fsync. Failing from that fsync on is the "flush fails" case.
	probe := wal.NewFaultFS(wal.NewMemFS(), 0)
	pj, err := wal.OpenDecisionLog(wal.SegmentedOptions{FS: probe})
	if err != nil {
		t.Fatal(err)
	}
	opsAtOpen := probe.Ops()
	if err := pj.Close(); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name       string
		votes      []bool
		timeout    time.Duration // per-request deadline (0: service default)
		failSync   bool
		stalled    service.State // status while the fsync is held
		wantResult service.State // the POST's answer
		wantStatus service.State // status once the fsync resolved
	}{
		{name: "commit", stalled: service.StateRunning,
			wantResult: service.StateCommit, wantStatus: service.StateCommit},
		{name: "abort", votes: []bool{true, false, true}, stalled: service.StateRunning,
			wantResult: service.StateAbort, wantStatus: service.StateAbort},
		{name: "flush fails", failSync: true, stalled: service.StateRunning,
			wantResult: service.StateFailed, wantStatus: service.StateFailed},
		{name: "late decision after timeout", timeout: 50 * time.Millisecond, stalled: service.StateTimeout,
			wantResult: service.StateTimeout, wantStatus: service.StateCommit},
	} {
		t.Run(tc.name, func(t *testing.T) {
			failAfter := 0
			if tc.failSync {
				failAfter = opsAtOpen + 2
			}
			fs := &stallFS{
				FS:      wal.NewFaultFS(wal.NewMemFS(), failAfter),
				entered: make(chan struct{}, 1),
				release: make(chan struct{}),
			}
			journal, err := wal.OpenDecisionLog(wal.SegmentedOptions{FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			// The late-decision case holds the network until its deadline
			// has passed (50 ms: long enough to have dispatched first even on
			// a busy box — a submission whose deadline hits while it is still
			// queued never runs); the others run with the gate open. K is
			// large so that the held GO cannot meet its 2K timeout (and turn
			// the COMMIT into an ABORT) before the gate opens; nothing waits
			// on K while every message arrives.
			gate, trs := service.NewGate(3, nil)
			if tc.timeout == 0 {
				gate.Release()
			}
			s, err := service.New(service.Config{
				N: 3, K: 1000, Seed: 41, TickEvery: time.Millisecond, Journal: journal, Transports: trs,
			})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(service.NewHTTPHandler(s))
			defer ts.Close()
			status := func() service.TxnStatus {
				t.Helper()
				resp, err := http.Get(ts.URL + "/status/j1")
				if err != nil {
					t.Fatal(err)
				}
				return decode[service.TxnStatus](t, resp)
			}

			// The history holds the POST's answer where it arrived: with
			// respect to the fsync, that is what durability checks.
			h := trace.NewHistory()
			h.Journaled("j1")
			h.Votes("j1", tc.votes...)
			type answer struct {
				res service.Result
				err error
			}
			done := make(chan answer, 1)
			go func() {
				res, err := s.Submit(context.Background(), service.Request{
					ID: "j1", Votes: tc.votes, Timeout: tc.timeout,
				})
				done <- answer{res, err}
			}()
			var a *answer
			ack := func(got answer) {
				if got.err != nil {
					t.Fatal(got.err)
				}
				a = &got
				h.Ack("j1", trace.Answer(got.res.State))
			}

			if tc.timeout != 0 {
				for deadline := time.Now().Add(10 * time.Second); status().State != service.StateTimeout; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatal("the deadline never resolved the submission as TIMEOUT")
					}
				}
				ack(<-done)
				gate.Release()
			}
			// The decision is reached and appended; its fsync is held.
			select {
			case <-fs.entered:
			case <-time.After(10 * time.Second):
				t.Fatal("the decision never reached the journal")
			}
			if a == nil {
				select {
				case got := <-done:
					ack(got)
				default:
				}
			}
			for i := 0; i < 3; i++ {
				st := status()
				h.Status("j1", trace.Answer(st.State))
				if st.State != tc.stalled || st.Decision != "" {
					t.Fatalf("status while the fsync is held = %s %q, want %s and no decision",
						st.State, st.Decision, tc.stalled)
				}
				time.Sleep(time.Millisecond)
			}

			if !tc.failSync {
				d := types.DecisionCommit
				if tc.wantStatus == service.StateAbort {
					d = types.DecisionAbort
				}
				h.Durable("j1", d)
			}
			close(fs.release)
			if a == nil {
				ack(<-done)
			}
			if a.res.State != tc.wantResult {
				t.Fatalf("POST answered %s, want %s", a.res.State, tc.wantResult)
			}
			// The POST path publishes before it acks; the late path has no
			// ack to wait on, so poll.
			deadline := time.Now().Add(10 * time.Second)
			st := status()
			for st.State != tc.wantStatus && tc.timeout != 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
				st = status()
			}
			wantDecision := string(tc.wantStatus)
			if tc.wantStatus == service.StateFailed {
				wantDecision = ""
			}
			if st.State != tc.wantStatus || st.Decision != wantDecision {
				t.Fatalf("status after the fsync resolved = %s %q, want %s %q", st.State, st.Decision, tc.wantStatus, wantDecision)
			}
			h.Status("j1", trace.Answer(st.State))
			for _, v := range h.Check() {
				t.Error(v)
			}

			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := s.Close(ctx); err != nil {
				t.Errorf("close: %v", err)
			}
			if err := journal.Close(); (err != nil) != tc.failSync {
				t.Errorf("journal close: %v", err)
			}
		})
	}
}

// TestRestartKeepsNewestDecisions: a journal holding txn.TombstoneCap + 3
// decisions, the newest three under ids that sort first, seeds a
// restarted service with the newest window: the newest three answer and
// the oldest is gone.
func TestRestartKeepsNewestDecisions(t *testing.T) {
	fs := wal.NewMemFS()
	journal, err := wal.OpenDecisionLog(wal.SegmentedOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < txn.TombstoneCap; i++ {
		if err := journal.Append(fmt.Sprintf("m-%06d", i), types.DecisionCommit, nil); err != nil {
			t.Fatal(err)
		}
	}
	newest := []string{"a-0", "a-1", "a-2"}
	for _, id := range newest {
		if err := journal.Append(id, types.DecisionAbort, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := wal.OpenDecisionLog(wal.SegmentedOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close() //nolint:errcheck
	s := newService(t, service.Config{N: 3, Seed: 43, Journal: reopened})
	for _, id := range newest {
		if st, ok := s.Status(id); !ok || st.State != service.StateAbort {
			t.Errorf("newest %s after the restart: %+v, %v; want ABORT", id, st, ok)
		}
	}
	if st, ok := s.Status("m-000000"); ok {
		t.Errorf("oldest m-000000 still answers %s after the restart", st.State)
	}
	if st, ok := s.Status("m-000003"); !ok || st.State != service.StateCommit {
		t.Errorf("m-000003, the oldest inside the window: %+v, %v; want COMMIT", st, ok)
	}
}

// TestRestartAtTheWindowEdgeKeepsEveryAnswer pushes more than
// wal.DecisionWindow members through a journaled service from 16 callers,
// so the status table has evicted, then restarts on the same disk: every
// id /status answered before the restart — the oldest and newest retained
// among them — answers the same after it, and nothing evicted comes back.
func TestRestartAtTheWindowEdgeKeepsEveryAnswer(t *testing.T) {
	if testing.Short() {
		t.Skip("commits more than 65 536 transactions")
	}
	const callers = 16
	total := wal.DecisionWindow + 4096
	fs := wal.NewMemFS()
	journal, err := wal.OpenDecisionLog(wal.SegmentedOptions{FS: fs, SnapshotEvery: 4096})
	if err != nil {
		t.Fatal(err)
	}
	s, err := service.New(service.Config{N: 3, Seed: 44, TickEvery: time.Millisecond, Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, total)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < total && !t.Failed(); i = int(next.Add(1)) - 1 {
				ids[i] = fmt.Sprintf("edge-%06d", i)
				req := service.Request{ID: ids[i]}
				if i%7 == 0 {
					req.Votes = []bool{true, false, true}
				}
				res, err := s.Submit(context.Background(), req)
				if err != nil || (res.State != service.StateCommit && res.State != service.StateAbort) {
					t.Errorf("%s: %+v, %v", ids[i], res, err)
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	before := make(map[string]service.TxnStatus)
	for _, id := range ids {
		if st, ok := s.Status(id); ok {
			before[id] = st
		}
	}
	if len(before) != wal.DecisionWindow {
		t.Fatalf("the status table answers %d ids, want the full window of %d", len(before), wal.DecisionWindow)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := wal.OpenDecisionLog(wal.SegmentedOptions{FS: fs, SnapshotEvery: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close() //nolint:errcheck
	order := reopened.RecoveredOrder()
	if len(order) == 0 {
		t.Fatal("the reopened journal recovered nothing")
	}
	oldest, newest := order[0], order[len(order)-1]
	restarted := newService(t, service.Config{N: 3, Seed: 45, Journal: reopened})
	for _, id := range ids {
		was, answered := before[id]
		st, ok := restarted.Status(id)
		switch {
		case answered && (!ok || st.State != was.State || st.Decision != was.Decision):
			t.Errorf("%s answered %s %q before the restart and %s %q (%v) after", id, was.State, was.Decision, st.State, st.Decision, ok)
		case !answered && ok:
			t.Errorf("%s, evicted before the restart, answers %s after it", id, st.State)
		}
	}
	for _, id := range []string{oldest, newest} {
		if _, ok := before[id]; !ok {
			t.Errorf("the journal's window holds %s, which the status table had evicted", id)
		}
	}
}
