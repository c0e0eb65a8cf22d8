package service_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs/span"
	"repro/internal/service"
	"repro/internal/types"
)

// TestBatchedEndToEnd: concurrent submissions coalesce into
// vector-outcome instances and every client still gets its own correct
// answer — including the one abort voter.
func TestBatchedEndToEnd(t *testing.T) {
	s := newService(t, service.Config{
		N: 3, Seed: 11, BatchMax: 32, MaxInFlight: 256,
	})
	const clients = 40
	var wg sync.WaitGroup
	results := make([]service.Result, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := service.Request{ID: fmt.Sprintf("bt-%02d", i)}
			if i%7 == 3 {
				req.Votes = []bool{true, false, true}
			}
			results[i], errs[i] = s.Submit(context.Background(), req)
		}()
	}
	wg.Wait()
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		want := service.StateCommit
		if i%7 == 3 {
			want = service.StateAbort
		}
		if results[i].State != want {
			t.Fatalf("client %d resolved %+v, want %v", i, results[i], want)
		}
	}
	m := s.Metrics()
	if m.SafetyViolations != 0 {
		t.Fatalf("safety violations: %d", m.SafetyViolations)
	}
	if m.Committed+m.Aborted != clients {
		t.Fatalf("decided %d+%d, want %d", m.Committed, m.Aborted, clients)
	}
	if m.BatchOccupancy == nil || m.BatchOccupancy.Count == 0 {
		t.Fatalf("no batch occupancy recorded: %+v", m.BatchOccupancy)
	}
	if m.BatchOccupancy.Mean < 1 {
		t.Fatalf("occupancy mean %v", m.BatchOccupancy.Mean)
	}
	waitMetric(t, s, "batches decided", func(m service.Metrics) bool {
		return m.BatchesDecided >= 1 && m.BatchesDecided == m.BatchOccupancy.Count
	})
}

// TestBatchedSingleton: a lone submission forms a batch of one — the
// paper's Protocol 2 for a single transaction.
func TestBatchedSingleton(t *testing.T) {
	s := newService(t, service.Config{N: 3, Seed: 12})
	res, err := s.Submit(context.Background(), service.Request{ID: "solo"})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != service.StateCommit || res.Decision != types.DecisionCommit {
		t.Fatalf("solo batch resolved %+v", res)
	}
	m := s.Metrics()
	if m.BatchOccupancy == nil || m.BatchOccupancy.Count != 1 || m.BatchOccupancy.Sum != 1 {
		t.Fatalf("occupancy = %+v", m.BatchOccupancy)
	}
}

// TestMoreSubmitsThanSlots: with fewer in-flight slots than queued
// submissions (and than the default BatchMax) the dispatcher still makes
// progress — a batch never needs more slots than exist.
func TestMoreSubmitsThanSlots(t *testing.T) {
	s := newService(t, service.Config{N: 3, Seed: 15, MaxInFlight: 2, DefaultTimeout: 5 * time.Second})
	const clients = 16
	var wg sync.WaitGroup
	results := make([]service.Result, clients)
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], _ = s.Submit(context.Background(), service.Request{ID: fmt.Sprintf("slot-%02d", i)})
		}()
	}
	wg.Wait()
	for i, r := range results {
		if r.State != service.StateCommit {
			t.Fatalf("client %d resolved %+v, want COMMIT", i, r)
		}
	}
	if m := s.Metrics(); m.MaxBatch > 2 {
		t.Fatalf("a batch of %d outgrew MaxInFlight=2", m.MaxBatch)
	}
}

// TestBatchedUnderCrash: batches dispatched before a minority
// crash commit; batches racing or following the crash still resolve
// (abort is the correct on-time answer when a voter is dead — the vote
// exchange times out) and no node ever disagrees with another.
func TestBatchedUnderCrash(t *testing.T) {
	s := newService(t, service.Config{
		N: 5, Seed: 13, BatchMax: 16, MaxInFlight: 128,
		DefaultTimeout: 5 * time.Second,
	})
	submitWave := func(prefix string, k int) {
		t.Helper()
		var wg sync.WaitGroup
		for i := 0; i < k; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, _ = s.Submit(context.Background(), service.Request{ID: fmt.Sprintf("%s-%02d", prefix, i)})
			}()
		}
		wg.Wait()
	}
	submitWave("pre", 12)
	m := s.Metrics()
	if m.Committed == 0 {
		t.Fatalf("nothing committed before the crash: %+v", m)
	}
	if err := s.Crash(2); err != nil {
		t.Fatal(err)
	}
	submitWave("post", 12)
	m = s.Metrics()
	if m.SafetyViolations != 0 {
		t.Fatalf("safety violations after crash: %d", m.SafetyViolations)
	}
	if got := m.Committed + m.Aborted + m.TimedOut; got != 24 {
		t.Fatalf("resolved %d of 24: %+v", got, m)
	}
}

// TestMemberCriticalPathLive: on a live batched run, every member's
// critical path runs from its own admission to its own notify stage
// through the rounds and links of the batch that decided it, and its
// contributions sum exactly to that end-to-end latency.
func TestMemberCriticalPathLive(t *testing.T) {
	s := newService(t, service.Config{N: 3, Seed: 14, BatchMax: 8, MaxInFlight: 64})
	const clients = 24
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Submit(context.Background(), service.Request{ID: fmt.Sprintf("cp-%02d", i)}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	// Submit returns once the first node decides. A round is recorded when
	// it closes, and another node's round — the coordinator's, which sent
	// GO — may still be open then, leaving the GO link without a recorded
	// sender. The path is read once every manager has reported every member.
	g := reportedGraph(t, s, "cp-", clients)
	for i := 0; i < clients; i++ {
		id := fmt.Sprintf("cp-%02d", i)
		p, err := g.CriticalPathTxn(id)
		if err != nil {
			t.Fatal(err)
		}
		first, last := p.Steps[0].Span, p.Steps[len(p.Steps)-1].Span
		if first.Txn != id || first.Name != span.StageAdmit || last.Txn != id || last.Name != span.StageNotify {
			t.Fatalf("%s: path does not run from its admit to its notify:\n%s", id, p.Render())
		}
		var sum int64
		links := 0
		for _, st := range p.Steps {
			sum += st.Contrib
			if st.Contrib < 0 {
				t.Fatalf("%s: negative contribution:\n%s", id, p.Render())
			}
			if st.Span.Kind == span.KindLink {
				links++
			}
		}
		if e2e := last.End - first.Start; sum != e2e || p.Total != e2e {
			t.Fatalf("%s: contributions sum to %d, total %d, end-to-end %d:\n%s", id, sum, p.Total, e2e, p.Render())
		}
		if p.ByKind[span.KindRound] <= 0 || links == 0 {
			t.Fatalf("%s: no round time or no link step on the path:\n%s", id, p.Render())
		}
	}
}

// decidedMarkers counts, per member and processor track, the records in
// the ring that report the member's decision: the zero-length "decided"
// markers the managers lay down, and anything else naming the decision.
func decidedMarkers(g *span.Graph, prefix string) map[[2]string]int {
	out := map[[2]string]int{}
	for _, sp := range g.Spans {
		if strings.HasPrefix(sp.Txn, prefix) && sp.Track != span.ServiceTrack &&
			(sp.Name == span.StageDecided || strings.Contains(sp.Detail, "decision=")) {
			out[[2]string{sp.Txn, sp.Track}]++
		}
	}
	return out
}

// reportedGraph snapshots the span ring once every one of the service's
// managers has reported each of the members prefix00..prefix(members-1).
func reportedGraph(t *testing.T, s *service.Service, prefix string, members int) *span.Graph {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		g := s.Spans().Graph()
		if got := len(decidedMarkers(g, prefix)); got == members*s.N() {
			return g
		} else if time.Now().After(deadline) {
			t.Fatalf("%d of %d (member, node) decisions recorded", got, members*s.N())
		}
	}
}

// TestOneDecidedRecordPerMemberAndNode: a node's decision on a member is
// one record in the one ring — the processor track's "decided" marker —
// not a marker plus an event twin.
func TestOneDecidedRecordPerMemberAndNode(t *testing.T) {
	s := newService(t, service.Config{N: 3, Seed: 16, BatchMax: 4})
	const clients = 8
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Submit(context.Background(), service.Request{ID: fmt.Sprintf("one-%02d", i)}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for key, n := range decidedMarkers(reportedGraph(t, s, "one-", clients), "one-") {
		if n != 1 {
			t.Errorf("%s on %s: %d records of its decision, want 1", key[0], key[1], n)
		}
	}
}
