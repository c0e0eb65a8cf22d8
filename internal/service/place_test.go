package service

// White-box tests for the dispatcher's places: at most N batches hold an
// unresolved member at once, each begun batch frees its place exactly
// once, and an exit that begins nothing frees the place it took. Every
// test freezes the network with a Gate, so which batch holds a place is
// decided by the test, not by how fast the protocol runs.

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/txn"
)

// waitFor polls cond until it holds or a deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if cond() {
			return
		}
	}
	t.Fatalf("timed out waiting for %s", what)
}

// recv takes one result, failing the test if none comes within 5s.
func recv(t *testing.T, ch <-chan Result) Result {
	t.Helper()
	select {
	case res := <-ch:
		return res
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for a result")
		return Result{}
	}
}

// closeWithin closes s, stopping it hard if the drain outlasts d, so a
// leaked place fails the test instead of hanging it.
func closeWithin(s *Service, d time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	s.Close(ctx) //nolint:errcheck // the test has already checked what it needs
}

// waitIdle waits until the one place held is the one the dispatcher takes
// for the next batch while it waits on an empty queue: no batch keeps one.
func waitIdle(t *testing.T, s *Service) {
	t.Helper()
	waitFor(t, "every batch's place to return", func() bool { return len(s.places) == 1 })
}

// decided reports whether a result carries a protocol decision. A batch
// held behind the gate for longer than its GO wait aborts, which these
// tests allow: they count places, not commits.
func decided(res Result) bool { return res.State == StateCommit || res.State == StateAbort }

// TestPlacesBoundBatchesInFlightContentOblivious: with the network held,
// N lone submissions take the N places and the next k stay QUEUED; once
// the gate opens and a place frees, the k ride one batch.
func TestPlacesBoundBatchesInFlightContentOblivious(t *testing.T) {
	const n, k = 3, 5
	gate, trs := NewGate(n, nil)
	s, err := New(Config{N: n, Seed: 41, Transports: trs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeWithin(s, 5*time.Second) })
	results := make(chan Result, n+k)
	submit := func(id string) {
		go func() {
			res, err := s.Submit(context.Background(), Request{ID: id})
			if err != nil {
				t.Error(err)
			}
			results <- res
		}()
	}
	for i := 0; i < n; i++ {
		id := "lone-" + string(rune('a'+i))
		submit(id)
		waitFor(t, id+" to dispatch", func() bool {
			st, _ := s.Status(id)
			return st.State == StateRunning
		})
	}
	if got := len(s.places); got != n {
		t.Fatalf("%d places held by %d lone batches, want %d", got, n, n)
	}
	for i := 0; i < k; i++ {
		submit("queued-" + string(rune('a'+i)))
	}
	waitFor(t, "the queue to fill", func() bool { return s.Metrics().Queued == k })
	time.Sleep(20 * time.Millisecond) // a dispatcher that ignored the bound would begin them now
	for i := 0; i < k; i++ {
		if st, _ := s.Status("queued-" + string(rune('a'+i))); st.State != StateQueued {
			t.Fatalf("queued-%c is %s with %d batches unresolved, want QUEUED", 'a'+i, st.State, n)
		}
	}

	gate.Release()
	for i := 0; i < n+k; i++ {
		if res := recv(t, results); !decided(res) {
			t.Fatalf("%s resolved %s, want a decision", res.ID, res.State)
		}
	}
	m := s.Metrics()
	if m.Batches != n+1 || m.MaxBatch != k || m.BatchOccupancy.Sum != n+k {
		t.Fatalf("batches=%d max=%d members=%v, want %d batches, the last of width %d", m.Batches, m.MaxBatch, m.BatchOccupancy.Sum, n+1, k)
	}
	waitIdle(t, s)
}

// TestEveryBatchExitFreesItsPlaceContentOblivious walks each way a batch
// can end or fail to begin and checks that none keeps a place.
func TestEveryBatchExitFreesItsPlaceContentOblivious(t *testing.T) {
	t.Run("members time out", func(t *testing.T) {
		s := frozenService(t, Config{N: 3, Seed: 43})
		res, err := s.Submit(context.Background(), Request{ID: "late", Timeout: 20 * time.Millisecond})
		if err != nil || res.State != StateTimeout {
			t.Fatalf("resolved %+v, %v, want TIMEOUT", res, err)
		}
		waitIdle(t, s)
	})
	// A hard Close finds the dispatcher waiting for a place: every place
	// is held.
	t.Run("hard close while waiting for a place", func(t *testing.T) {
		s := frozenService(t, Config{N: 3, Seed: 47})
		for _, id := range []string{"held-a", "held-b", "held-c"} {
			submitFrozen(t, s, id)
		}
		queued := make(chan Result, 1)
		go func() {
			res, _ := s.Submit(context.Background(), Request{ID: "waiting"})
			queued <- res
		}()
		waitFor(t, "the dispatcher to block", func() bool {
			_, known := s.Status("waiting")
			return known && len(s.places) == 3 && s.Metrics().Queued == 1
		})
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		defer cancel()
		done := make(chan struct{})
		go func() {
			s.Close(ctx) //nolint:errcheck // a hard stop of a frozen cluster
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("Close hung on a dispatcher waiting for a place")
		}
		if res := recv(t, queued); res.State != StateTimeout {
			t.Fatalf("the waiting submission resolved %s, want TIMEOUT", res.State)
		}
		if got := len(s.places); got != 0 {
			t.Fatalf("%d places held after a hard Close", got)
		}
	})
	t.Run("BeginBatch fails", func(t *testing.T) {
		s := frozenService(t, Config{N: 3, Seed: 53})
		// The first batch is batch-1 on coordinator 0; taking its name
		// there first makes its BeginBatch fail.
		if err := s.managers[0].BeginBatch("batch-1", []txn.ID{"squatter"}, []bool{true}); err != nil {
			t.Fatal(err)
		}
		res, err := s.Submit(context.Background(), Request{ID: "refused"})
		if err != nil || res.State != StateFailed {
			t.Fatalf("resolved %+v, %v, want FAILED", res, err)
		}
		waitIdle(t, s)
	})
}

// TestRescueKeepsItsPlaceContentOblivious: a batch re-begun on a live
// coordinator after its own crashed pre-GO takes no second place, and it
// frees its one place when it resolves.
func TestRescueKeepsItsPlaceContentOblivious(t *testing.T) {
	gate, trs := NewGate(3, nil)
	s, err := New(Config{N: 3, Seed: 59, Transports: trs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeWithin(s, 5*time.Second) })
	done := make(chan Result, 1)
	go func() {
		res, _ := s.Submit(context.Background(), Request{ID: "orphan"})
		done <- res
	}()
	waitFor(t, "orphan to dispatch", func() bool {
		st, _ := s.Status("orphan")
		return st.State == StateRunning
	})
	st, _ := s.Status("orphan")
	if err := s.Crash(st.Coordinator); err != nil {
		t.Fatal(err)
	}
	if got := s.met.rescues.Value(); got != 1 {
		t.Fatalf("%d rescues, want 1", got)
	}
	if got := len(s.places); got != 2 {
		t.Fatalf("%d places held after the rescue, want the batch's and the dispatcher's", got)
	}
	gate.Release()
	if res := recv(t, done); !decided(res) {
		t.Fatalf("rescued batch resolved %s, want a decision", res.State)
	}
	waitIdle(t, s)
}

// TestBatchesCountOnlyDispatchedMembersContentOblivious: submissions that
// expire in the queue never dispatch, so they count toward no batch, no
// occupancy and no MaxBatch. Three held submissions fill the places; two
// more expire behind them and leave the queue together once a place frees.
func TestBatchesCountOnlyDispatchedMembersContentOblivious(t *testing.T) {
	s := frozenService(t, Config{N: 3, Seed: 61})
	results := make(chan Result, 5)
	submit := func(id string, timeout time.Duration) {
		go func() {
			res, _ := s.Submit(context.Background(), Request{ID: id, Timeout: timeout})
			results <- res
		}()
	}
	for _, id := range []string{"held-a", "held-b", "held-c"} {
		submit(id, 200*time.Millisecond)
		waitFor(t, id+" to dispatch", func() bool {
			st, _ := s.Status(id)
			return st.State == StateRunning
		})
	}
	submit("expires-a", 20*time.Millisecond)
	submit("expires-b", 20*time.Millisecond)
	for i := 0; i < 5; i++ {
		if res := recv(t, results); res.State != StateTimeout {
			t.Fatalf("%s resolved %s, want TIMEOUT", res.ID, res.State)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil { // the dispatcher has drained the queue
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.Batches != 3 || m.MaxBatch != 1 || m.BatchOccupancy.Count != 3 || m.BatchOccupancy.Sum != 3 {
		t.Fatalf("batches=%d max=%d occupancy count=%d sum=%v, want 3 batches of 1", m.Batches, m.MaxBatch, m.BatchOccupancy.Count, m.BatchOccupancy.Sum)
	}
	if got := len(s.places); got != 0 {
		t.Fatalf("%d places held after the drain", got)
	}
}

// inFlightGauge is the service_in_flight sample a scrape of s reads.
func inFlightGauge(t *testing.T, s *Service) string {
	t.Helper()
	var prom bytes.Buffer
	if err := s.Registry().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(prom.String(), "\n") {
		if v, ok := strings.CutPrefix(line, `service_in_flight{shard="0"} `); ok {
			return v
		}
	}
	t.Fatal("no service_in_flight sample")
	return ""
}

// TestInFlightCountsHeldMembersContentOblivious: the places are the one
// bound on in-flight work, and the in-flight readings count the members of
// the batches that hold them. With the network held, three lone
// submissions take the three places and two more wait in the queue; after
// the gate opens every submission resolves and nothing is in flight.
func TestInFlightCountsHeldMembersContentOblivious(t *testing.T) {
	const n = 3
	gate, trs := NewGate(n, nil)
	s, err := New(Config{N: n, Seed: 67, Transports: trs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeWithin(s, 5*time.Second) })
	results := make(chan Result, n+2)
	submit := func(id string) {
		go func() {
			res, _ := s.Submit(context.Background(), Request{ID: id})
			results <- res
		}()
	}
	for _, id := range []string{"held-a", "held-b", "held-c"} {
		submit(id)
		waitFor(t, id+" to dispatch", func() bool {
			st, _ := s.Status(id)
			return st.State == StateRunning
		})
	}
	submit("waits-a")
	submit("waits-b")
	waitFor(t, "two submissions to queue", func() bool { return s.Metrics().Queued == 2 })
	if m := s.Metrics(); m.InFlight != n || m.Queued != 2 {
		t.Fatalf("in flight %d, queued %d with the network held, want %d and 2", m.InFlight, m.Queued, n)
	}
	if got := inFlightGauge(t, s); got != "3" {
		t.Fatalf("service_in_flight reads %s, want 3", got)
	}
	if got := s.WatchSample(time.Hour).InFlight; got != n {
		t.Fatalf("the watchdog sample reads %d in flight, want %d", got, n)
	}

	gate.Release()
	for i := 0; i < n+2; i++ {
		if res := recv(t, results); !decided(res) {
			t.Fatalf("%s resolved %s, want a decision", res.ID, res.State)
		}
	}
	if m := s.Metrics(); m.InFlight != 0 {
		t.Fatalf("%d in flight once every submission resolved", m.InFlight)
	}
	if got := inFlightGauge(t, s); got != "0" {
		t.Fatalf("service_in_flight reads %s once every submission resolved", got)
	}
}
