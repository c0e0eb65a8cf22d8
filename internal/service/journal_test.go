package service_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
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
// the POST's answer afterwards. A failed flush fails the ack but keeps
// the protocol's decision; a decision adopted after a client TIMEOUT is
// journaled before the status flips, like any other.
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
			wantResult: service.StateFailed, wantStatus: service.StateCommit},
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

			if tc.timeout != 0 {
				for deadline := time.Now().Add(10 * time.Second); status().State != service.StateTimeout; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatal("the deadline never resolved the submission as TIMEOUT")
					}
				}
				gate.Release()
			}
			// The decision is reached and appended; its fsync is held.
			select {
			case <-fs.entered:
			case <-time.After(10 * time.Second):
				t.Fatal("the decision never reached the journal")
			}
			if tc.timeout == 0 {
				select {
				case a := <-done:
					t.Fatalf("POST acked %+v before the fsync resolved", a.res)
				default:
				}
			}
			for i := 0; i < 3; i++ {
				if st := status(); st.State != tc.stalled || st.Decision != "" {
					t.Fatalf("status while the fsync is held = %s %q, want %s and no decision",
						st.State, st.Decision, tc.stalled)
				}
				time.Sleep(time.Millisecond)
			}

			close(fs.release)
			a := <-done
			if a.err != nil {
				t.Fatal(a.err)
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
			if st.State != tc.wantStatus || st.Decision != string(tc.wantStatus) {
				t.Fatalf("status after the fsync resolved = %s %q, want %s", st.State, st.Decision, tc.wantStatus)
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

// TestStatusEvictionRetiresFromJournal: with StatusRetention 4 every
// finished transaction but the newest four is evicted from the status
// table and retired from the journal, so a reopened journal recovers
// exactly the four that were still answerable. The journal's queue holds
// two records, so Retire blocks behind decisions all the time: it has to
// run outside Service.mu, which the journal's writer takes to publish a
// decision — under mu the first full queue would wedge the service.
func TestStatusEvictionRetiresFromJournal(t *testing.T) {
	const retention, concurrent, total = 4, 48, 64
	fs := wal.NewMemFS()
	journal, err := wal.OpenDecisionLog(wal.SegmentedOptions{FS: fs, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := service.New(service.Config{
		N: 3, K: 3, Seed: 43, TickEvery: time.Millisecond,
		StatusRetention: retention, Journal: journal,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(service.NewHTTPHandler(s))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	ids := make([]string, total)
	states := make([]service.State, total)
	submit := func(i int) {
		ids[i] = fmt.Sprintf("ev-%02d", i)
		req, want := service.Request{ID: ids[i]}, service.StateCommit
		if i%3 == 0 {
			req.Votes, want = []bool{true, false, true}, service.StateAbort
		}
		res, err := s.Submit(ctx, req)
		if err != nil {
			t.Errorf("%s: %v (a wedged journal queue shows up here as a context error)", ids[i], err)
			return
		}
		if res.State != want {
			t.Errorf("%s answered %s, want %s", ids[i], res.State, want)
		}
		states[i] = res.State
	}
	// Eight callers at a time share batches and group commits; the tail
	// runs one by one so the four survivors are known by name.
	submitted := make(chan struct{})
	go func() {
		defer close(submitted)
		var wg sync.WaitGroup
		for c := 0; c < 8; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; i < concurrent; i += 8 {
					submit(i)
				}
			}(c)
		}
		wg.Wait()
		for i := concurrent; i < total; i++ {
			submit(i)
		}
	}()
	select {
	case <-submitted:
	case <-ctx.Done():
		t.Fatal("service wedged: a Retire blocked on the full journal queue while holding a lock its writer needs")
	}
	if t.Failed() {
		t.FailNow()
	}

	for i, id := range ids {
		resp, err := http.Get(ts.URL + "/status/" + id)
		if err != nil {
			t.Fatal(err)
		}
		if i < total-retention {
			resp.Body.Close() //nolint:errcheck
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("evicted %s: /status = %d, want 404", id, resp.StatusCode)
			}
			continue
		}
		if st := decode[service.TxnStatus](t, resp); st.State != states[i] || st.Decision != string(states[i]) {
			t.Errorf("surviving %s: /status = %s %q, want %s", id, st.State, st.Decision, states[i])
		}
	}

	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := wal.OpenDecisionLog(wal.SegmentedOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close() //nolint:errcheck
	got := reopened.Recovered()
	for i := total - retention; i < total; i++ {
		if d, ok := got[ids[i]]; !ok || d.String() != string(states[i]) {
			t.Errorf("surviving %s: reopened journal holds %v,%v, want %s", ids[i], d, ok, states[i])
		}
	}
	if len(got) != retention {
		t.Errorf("reopened journal recovered %d decisions, want only the %d un-retired ones: %v", len(got), retention, got)
	}
}
