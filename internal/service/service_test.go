package service_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/types"
)

// newService builds a fast in-process service for tests.
func newService(t *testing.T, cfg service.Config) *service.Service {
	t.Helper()
	if cfg.N == 0 {
		cfg.N = 3
	}
	if cfg.K == 0 {
		cfg.K = 3
	}
	if cfg.TickEvery == 0 {
		cfg.TickEvery = time.Millisecond
	}
	s, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return s
}

// waitMetric polls the metrics snapshot until pred holds or the deadline
// passes.
func waitMetric(t *testing.T, s *service.Service, what string, pred func(service.Metrics) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if pred(s.Metrics()) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("%s never held; metrics = %+v", what, s.Metrics())
}

func TestSubmitCommitAndAbort(t *testing.T) {
	s := newService(t, service.Config{N: 3, Seed: 1})
	res, err := s.Submit(context.Background(), service.Request{ID: "ok"})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != service.StateCommit || res.Decision != types.DecisionCommit {
		t.Fatalf("all-commit votes resolved %+v", res)
	}
	if res.Latency <= 0 {
		t.Fatal("no latency measured")
	}
	res, err = s.Submit(context.Background(), service.Request{
		ID: "no", Votes: []bool{true, false, true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != service.StateAbort {
		t.Fatalf("abort vote resolved %+v", res)
	}
	st, ok := s.Status("no")
	if !ok || st.State != service.StateAbort {
		t.Fatalf("status = %+v %v", st, ok)
	}
	m := s.Metrics()
	if m.Committed != 1 || m.Aborted != 1 || m.SafetyViolations != 0 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.LatencyP50Ms <= 0 {
		t.Fatalf("latency percentiles empty: %+v", m)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := newService(t, service.Config{N: 3, Seed: 2})
	if _, err := s.Submit(context.Background(), service.Request{Votes: []bool{true}}); err == nil {
		t.Fatal("short vote vector accepted")
	}
	if _, err := s.Submit(context.Background(), service.Request{ID: "dup"}); err != nil {
		t.Fatal(err)
	}
	_, err := s.Submit(context.Background(), service.Request{ID: "dup"})
	var de *service.DuplicateError
	if !errors.As(err, &de) || de.ID != "dup" {
		t.Fatalf("duplicate id error = %v", err)
	}
}

// TestQueueFullTypedRejection: with one slot, batch size one, and a
// network that never delivers, the bounded queue fills and the next
// submission is rejected with a retry hint — the queue never grows.
func TestQueueFullTypedRejection(t *testing.T) {
	s := newService(t, service.Config{
		N: 3, Seed: 3,
		QueueDepth: 1, MaxInFlight: 1, BatchMax: 1,
		DefaultTimeout: 500 * time.Millisecond,
		RetryHint:      40 * time.Millisecond,
		Hub: transport.HubOptions{
			Inject: func(types.Message) transport.Fault { return transport.Fault{Drop: true} },
		},
	})
	results := make(chan service.Result, 3)
	for i := 0; i < 3; i++ {
		go func() {
			res, err := s.Submit(context.Background(), service.Request{})
			if err != nil {
				t.Error(err)
			}
			results <- res
		}()
		time.Sleep(30 * time.Millisecond) // let it occupy slot / batch / queue
	}
	_, err := s.Submit(context.Background(), service.Request{})
	var oe *service.OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("queue-full error = %v", err)
	}
	if oe.RetryAfter != 40*time.Millisecond {
		t.Fatalf("retry hint = %v", oe.RetryAfter)
	}
	// Nothing hangs: the three admitted submissions all time out.
	for i := 0; i < 3; i++ {
		select {
		case res := <-results:
			if res.State != service.StateTimeout {
				t.Fatalf("blocked submission resolved %+v", res)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("admitted submission hung")
		}
	}
	m := s.Metrics()
	if m.TimedOut != 3 || m.RejectedFull != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestDeadlineTimeoutDoesNotLeak: a request that misses its deadline
// resolves as TIMEOUT, frees its in-flight slot, and the abandoned
// protocol instance is eventually retired from every manager.
func TestDeadlineTimeoutDoesNotLeak(t *testing.T) {
	s := newService(t, service.Config{
		N: 3, Seed: 4,
		MaxAgeTicks: 80, RetireAfterTicks: 10,
		Hub: transport.HubOptions{
			Inject: func(types.Message) transport.Fault { return transport.Fault{Drop: true} },
		},
	})
	res, err := s.Submit(context.Background(), service.Request{
		ID: "doomed", Timeout: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != service.StateTimeout {
		t.Fatalf("resolved %+v", res)
	}
	st, ok := s.Status("doomed")
	if !ok || st.State != service.StateTimeout {
		t.Fatalf("status = %+v %v", st, ok)
	}
	waitMetric(t, s, "slot and instance release", func(m service.Metrics) bool {
		return m.InFlight == 0 && m.ActiveInstances == 0
	})
}

// TestGracefulDrain: Close lets already-queued submissions dispatch and
// finish; new submissions are rejected with ErrDraining.
func TestGracefulDrain(t *testing.T) {
	s, err := service.New(service.Config{
		N: 3, K: 3, Seed: 5, TickEvery: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	const load = 20
	results := make(chan service.Result, load)
	var wg sync.WaitGroup
	for i := 0; i < load; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := s.Submit(context.Background(), service.Request{})
			if err != nil {
				t.Error(err)
				return
			}
			results <- res
		}()
	}
	// Every submission admitted, most still queued or running. (A fixed
	// sleep here lost the race on a loaded box: late goroutines met
	// ErrDraining.)
	waitMetric(t, s, "every submission admitted", func(m service.Metrics) bool {
		return m.Submitted == load
	})
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(context.Background(), service.Request{}); !errors.Is(err, service.ErrDraining) {
		t.Fatalf("post-drain submit error = %v", err)
	}
	wg.Wait()
	close(results)
	got := 0
	for res := range results {
		if res.State != service.StateCommit {
			t.Fatalf("drained submission resolved %+v", res)
		}
		got++
	}
	if got != load {
		t.Fatalf("%d/%d submissions resolved", got, load)
	}
}

// TestHardStopResolvesEverything: when the drain deadline expires, every
// unresolved submission resolves as TIMEOUT — nothing hangs.
func TestHardStopResolvesEverything(t *testing.T) {
	s, err := service.New(service.Config{
		N: 3, K: 3, Seed: 6, TickEvery: time.Millisecond,
		DefaultTimeout: time.Hour, // deadlines will not save us; Close must
		Hub: transport.HubOptions{
			Inject: func(types.Message) transport.Fault { return transport.Fault{Drop: true} },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const load = 8
	results := make(chan service.Result, load)
	for i := 0; i < load; i++ {
		go func() {
			res, err := s.Submit(context.Background(), service.Request{})
			if err == nil {
				results <- res
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < load; i++ {
		select {
		case res := <-results:
			if res.State != service.StateTimeout {
				t.Fatalf("hard-stopped submission resolved %+v", res)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("submission hung through hard stop")
		}
	}
}

// TestCrashInjection: fail-stop one node mid-load; every request still
// terminates, survivors agree, and the metrics record the crash with
// zero safety violations.
func TestCrashInjection(t *testing.T) {
	s := newService(t, service.Config{
		N: 5, K: 3, Seed: 7,
		DefaultTimeout: 5 * time.Second,
	})
	const wave = 15
	burst := func() []service.State {
		var wg sync.WaitGroup
		states := make([]service.State, wave)
		for i := 0; i < wave; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := s.Submit(context.Background(), service.Request{})
				if err != nil {
					t.Error(err)
					return
				}
				states[i] = res.State
			}()
		}
		wg.Wait()
		return states
	}
	// Failure-free wave: everything commits.
	for i, st := range burst() {
		if st != service.StateCommit {
			t.Fatalf("failure-free request %d ended in %q", i, st)
		}
	}
	if err := s.Crash(types.ProcID(2)); err != nil {
		t.Fatal(err)
	}
	// Post-crash wave: commit validity no longer guaranteed, but every
	// request still terminates (the crash is within tolerance T=2).
	for i, st := range burst() {
		if !st.Terminal() {
			t.Fatalf("post-crash request %d ended in %q", i, st)
		}
	}
	m := s.Metrics()
	if m.SafetyViolations != 0 {
		t.Fatalf("safety violations: %+v", m)
	}
	if len(m.Crashed) != 1 || m.Crashed[0] != 2 {
		t.Fatalf("crashed = %v", m.Crashed)
	}
	if m.Committed < wave {
		t.Fatalf("pre-crash wave did not commit: %+v", m)
	}
}

func TestCrashValidation(t *testing.T) {
	s := newService(t, service.Config{N: 3, Seed: 8})
	if err := s.Crash(types.ProcID(7)); err == nil {
		t.Fatal("out-of-range crash accepted")
	}
	if err := s.Crash(types.ProcID(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Crash(types.ProcID(1)); err != nil {
		t.Fatal("second crash of same node should be a no-op")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []service.Config{
		{N: 0},
		{N: 4, T: 2},
		{N: 3, Transports: make([]transport.Transport, 2)},
		{N: 3, StatusRetention: txn.TombstoneCap + 1}, // a status would outlive its tombstones
	}
	for i, cfg := range bad {
		if _, err := service.New(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

// TestBatchingCoalesces: a burst of submissions lands in fewer dispatch
// batches than submissions, and all commit.
func TestBatchingCoalesces(t *testing.T) {
	s := newService(t, service.Config{N: 3, Seed: 9, BatchMax: 16})
	const load = 32
	var wg sync.WaitGroup
	for i := 0; i < load; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if res, err := s.Submit(context.Background(), service.Request{}); err != nil || res.State != service.StateCommit {
				t.Errorf("res=%+v err=%v", res, err)
			}
		}()
	}
	wg.Wait()
	m := s.Metrics()
	if m.Submitted != load || m.Committed != load {
		t.Fatalf("metrics = %+v", m)
	}
	if m.MaxBatch < 2 {
		t.Logf("note: burst never coalesced (max batch %d)", m.MaxBatch)
	}
}
