package service_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/types"
	"repro/internal/wal"
)

// opsToOpen counts the mutating filesystem operations opening an empty
// journal costs, so a FaultFS can fail from the first record on.
func opsToOpen(t *testing.T) int {
	t.Helper()
	probe := wal.NewFaultFS(wal.NewMemFS(), 0)
	j, err := wal.OpenDecisionLog(wal.SegmentedOptions{FS: probe})
	if err != nil {
		t.Fatal(err)
	}
	ops := probe.Ops()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return ops
}

// TestPoisonedJournalFailStopsTheGroup: a group whose journal fails a
// flush is a crashed resource manager. From the first failed flush it
// refuses admission with a JournalError (503 over HTTP, naming the shard),
// reports not ready, and resolves the members it had queued FAILED without
// beginning a batch for them; no member is answered COMMIT without its
// fsync.
func TestPoisonedJournalFailStopsTheGroup(t *testing.T) {
	disk := wal.NewMemFS()
	journal, err := wal.OpenDecisionLog(wal.SegmentedOptions{FS: wal.NewFaultFS(disk, opsToOpen(t)+1)})
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close() //nolint:errcheck // poisoned on purpose
	// The network is held, so three width-1 batches take the three places
	// and stay undecided while two more submissions wait in the queue.
	gate, trs := service.NewGate(3, nil)
	s, err := service.New(service.Config{
		N: 3, K: 1000, Seed: 43, TickEvery: time.Millisecond, BatchMax: 1,
		Journal: journal, Transports: trs,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	defer s.Close(ctx) //nolint:errcheck // the group is fail-stopped

	const members = 5
	results := make(chan service.Result, members)
	for i := 0; i < members; i++ {
		go func() {
			res, err := s.Submit(ctx, service.Request{ID: fmt.Sprintf("fs-%d", i)})
			if err != nil {
				t.Error(err)
			}
			results <- res
		}()
	}
	queued := func() (n int) {
		for i := 0; i < members; i++ {
			if st, ok := s.Status(fmt.Sprintf("fs-%d", i)); ok && st.State == service.StateQueued {
				n++
			}
		}
		return n
	}
	for deadline := time.Now().Add(10 * time.Second); s.Metrics().Batches < 3 || queued() < members-3; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("never reached 3 batches in flight and 2 queued: %d batches, %d queued", s.Metrics().Batches, queued())
		}
	}

	// The first flush: a decision reached outside the group (a cross
	// outcome routed here) is journaled, and its write fails.
	flushed := make(chan error, 1)
	s.Record([]string{"outside"}, []types.Decision{types.DecisionCommit}, func(err error) { flushed <- err })
	if err := <-flushed; err == nil {
		t.Fatal("the record's flush succeeded on a failing disk")
	}

	if s.Ready() {
		t.Error("a group with a failed journal reports ready")
	}
	var je *service.JournalError
	if _, err := s.Submit(ctx, service.Request{ID: "late"}); !errors.As(err, &je) || je.Shard != "0" {
		t.Errorf("admission after the failed flush: %v, want a JournalError naming shard 0", err)
	}
	ts := httptest.NewServer(service.NewHTTPHandler(s))
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/commit", "application/json", strings.NewReader(`{"id":"late-http"}`))
	if err != nil {
		t.Fatal(err)
	}
	if body := decode[service.ErrorJSON](t, resp); resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body.Error, "shard 0") {
		t.Errorf("POST /commit = %d %q, want 503 naming shard 0", resp.StatusCode, body.Error)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if h := decode[service.HealthJSON](t, resp); resp.StatusCode != http.StatusServiceUnavailable || h.Status != "journal-failed" {
		t.Errorf("GET /readyz = %d %q, want 503 journal-failed", resp.StatusCode, h.Status)
	}

	gate.Release()
	for i := 0; i < members; i++ {
		if res := <-results; res.State != service.StateFailed {
			t.Errorf("%s answered %s on a group whose journal failed, want FAILED", res.ID, res.State)
		}
	}
	if got := s.Metrics().Batches; got != 3 {
		t.Errorf("%d batches begun; the 2 members queued at the failure must resolve without one", got)
	}
	if _, err := s.Submit(ctx, service.Request{}); !errors.As(err, &je) {
		t.Errorf("admission once the queue drained: %v, want a JournalError", err)
	}
}
