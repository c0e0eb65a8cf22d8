package service

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/obs/span"
	"repro/internal/transport"
)

// TestCrashedParticipantIsTimedOutInClockTime: nodes act on arrivals, but a
// silent peer is still waited for in ticks of the clock. With a participant
// crashed, an all-YES transaction runs out its GO wait — 2K ticks, however
// many deliveries ran in between — and answers ABORT no sooner than that
// takes on the wall. The demoted vote forces the agreement input, so no
// node then waits out its vote wait too.
func TestCrashedParticipantIsTimedOutInClockTime(t *testing.T) {
	onBothTransportSets(t, 3, func(t *testing.T, trs []transport.Transport) {
		const (
			k    = 2
			tick = 10 * time.Millisecond
		)
		s, err := New(Config{N: 3, K: k, Seed: 47, TickEvery: tick, Transports: trs,
			Spans: span.NewCollector(0)})
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := s.Close(ctx); err != nil {
				t.Errorf("close: %v", err)
			}
		}()
		if err := s.Crash(2); err != nil {
			t.Fatal(err)
		}
		res, err := s.Submit(context.Background(), Request{ID: "waits"})
		if err != nil {
			t.Fatal(err)
		}
		if res.State != StateAbort {
			t.Fatalf("answered %s with a participant that never votes, want ABORT", res.State)
		}
		// One wait of 2K ticks; a tick's worth of slack for a late ticker.
		if least := (2*k - 1) * tick; res.Latency < least {
			t.Errorf("answered after %v, before the 2K-tick GO wait (%v) could have run", res.Latency, least)
		}
		// Every node that has decided did so less than 2K of its own ticks
		// after its own vote broadcast (the first to decide resolved the
		// Submit). A node's vote_cast milestone leads with its tick; its
		// decision closes its last round, whose Detail ends at the decision
		// tick.
		voted, closed, decided := map[string]int{}, map[string]int{}, map[string]bool{}
		for _, sp := range s.Spans().Graph().ByTxn("waits").Spans {
			var from, to int
			switch {
			case sp.Name == span.EventVoteCast:
				fmt.Sscanf(sp.Detail, "tick=%d", &to) //nolint:errcheck // a miss leaves 0, caught below
				voted[sp.Track] = to
			case sp.Kind == span.KindRound:
				fmt.Sscanf(sp.Detail, "ticks %d..%d", &from, &to) //nolint:errcheck // as above
				closed[sp.Track] = to
			case sp.Name == span.StageDecided && sp.Track != span.ServiceTrack:
				decided[sp.Track] = true
			}
		}
		if len(decided) == 0 {
			t.Fatal("no node recorded the decision")
		}
		for node := range decided {
			if vote, ok := voted[node]; !ok || vote == 0 || closed[node] < vote || closed[node]-vote >= 2*k {
				t.Errorf("%s decided at tick %d, voted at %d (%v): want fewer than 2K = %d ticks between", node, closed[node], vote, ok, 2*k)
			}
		}
	})
}
