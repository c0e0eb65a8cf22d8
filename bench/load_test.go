package main

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
)

func drawn(w workload, seed int64, caller, n int) []request {
	s := newStream(w, seed, caller)
	out := make([]request, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func TestSameSeedSameRequestStream(t *testing.T) {
	for _, w := range workloads {
		a, b := drawn(w, 7, 3, 200), drawn(w, 7, 3, 200)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed and caller drew different streams", w.name)
		}
		if reflect.DeepEqual(a, drawn(w, 8, 3, 200)) {
			t.Errorf("%s: a different seed drew the same stream", w.name)
		}
		if reflect.DeepEqual(a, drawn(w, 7, 4, 200)) {
			t.Errorf("%s: a different caller drew the same stream", w.name)
		}
	}
}

func TestStreamSharesAreExact(t *testing.T) {
	w, _ := findWorkload("shard_cross_c16")
	reqs := drawn(w, 11, 0, 1000)
	dissent, cross := 0, 0
	ids := map[string]bool{}
	for _, r := range reqs {
		ids[r.ID] = true
		if r.Dissent {
			dissent++
			no := 0
			for _, v := range r.Votes {
				if !v {
					no++
				}
			}
			if no != 1 {
				t.Fatalf("%s: %d dissenting votes, want exactly 1", r.ID, no)
			}
		} else if r.Votes != nil {
			t.Fatalf("%s: votes on an all-yes transaction", r.ID)
		}
		s := newStream(w, 0, 0)
		shards := s.router.RouteKeys(r.ID, r.Keys)
		if r.Cross {
			cross++
		}
		if want := map[bool]int{false: 1, true: 2}[r.Cross]; len(shards) != want {
			t.Fatalf("%s: cross=%v but keys %v span %d shards", r.ID, r.Cross, r.Keys, len(shards))
		}
	}
	if dissent != 200 || cross != 200 {
		t.Errorf("of 1000: %d dissent, %d cross; want exactly 200 each", dissent, cross)
	}
	if len(ids) != len(reqs) {
		t.Errorf("%d distinct ids in %d requests", len(ids), len(reqs))
	}
}

// stallStack answers every request at once except that it refuses
// everything (as a dead daemon refuses connections) during one outage.
type stallStack struct {
	t0       time.Time
	from, to time.Duration

	mu   sync.Mutex
	seen map[string]int
}

func (s *stallStack) submit(_ context.Context, r request) (answer, error) {
	s.mu.Lock()
	s.seen[r.ID]++
	s.mu.Unlock()
	if at := time.Since(s.t0); at >= s.from && at < s.to {
		return answer{}, errors.New("connection refused")
	}
	st := service.StateCommit
	if r.Dissent {
		st = service.StateAbort
	}
	return answer{state: st}, nil
}
func (s *stallStack) status(string) (service.State, bool, error) { return "", false, nil }
func (s *stallStack) crash(int) error                            { return nil }
func (s *stallStack) scrape() (promSnapshot, error)              { return promSnapshot{}, nil }
func (s *stallStack) cpuTime() (time.Duration, error)            { return 0, nil }
func (s *stallStack) kill() error                                { return nil }
func (s *stallStack) close() error                               { return nil }

func TestDueAtIsTheFixedSchedule(t *testing.T) {
	if got := dueAt(20*time.Millisecond, 60, 0); got != 20*time.Millisecond {
		t.Errorf("request 0 due at %v", got)
	}
	if got := dueAt(0, 60, 60); got != time.Second {
		t.Errorf("request 60 of 60/s due at %v, want 1s", got)
	}
	if got := dueAt(0, 100, 250); got != 2500*time.Millisecond {
		t.Errorf("request 250 of 100/s due at %v, want 2.5s", got)
	}
}

// An outage must be billed to every request due during it: the open loop
// times from the due instant, keeps its schedule, and resends until it
// has an answer.
func TestOpenLoopBillsAnOutageFromTheDueTime(t *testing.T) {
	w, _ := findWorkload("http_faults_c2")
	const rate, total = 200, 120 // 600 ms of schedule
	st := &stallStack{from: 200 * time.Millisecond, to: 400 * time.Millisecond, seen: map[string]int{}}
	l := newLoad(w, st, nil, 0)
	st.t0 = l.t0
	l.open(5, rate, total, 0)
	all := l.wait(5 * time.Second)
	if len(all) != total {
		t.Fatalf("%d samples, want %d", len(all), total)
	}
	resent := 0
	for i := range all {
		s := &all[i]
		if want := dueAt(0, rate, i); s.due != want {
			t.Fatalf("sample %d due %v, want %v (schedule slipped)", i, s.due, want)
		}
		if !s.acked() {
			t.Fatalf("sample %d never answered", i)
		}
		if s.wrong() {
			t.Fatalf("sample %d: COMMIT on a dissenting vote", i)
		}
		// Due 50 ms into a 200 ms outage: no answer before the outage ends.
		if s.due >= 250*time.Millisecond && s.due < 300*time.Millisecond {
			if least := st.to - s.due; s.latency() < least {
				t.Errorf("sample %d due %v answered in %v, before the outage ended (%v)", i, s.due, s.latency(), least)
			}
		}
		if s.due < 150*time.Millisecond && s.latency() > 100*time.Millisecond {
			t.Errorf("sample %d due %v before the outage took %v", i, s.due, s.latency())
		}
		if st.seen[s.req.ID] > 1 {
			resent++
		}
	}
	if resent == 0 {
		t.Error("no request was resent through the outage")
	}
}

func TestSampleVerdicts(t *testing.T) {
	ok := sample{state: service.StateCommit, done: 10 * time.Millisecond}
	late := sample{state: service.StateAbort, done: lateAfter + time.Millisecond}
	timeout := sample{state: service.StateTimeout}
	wrong := sample{state: service.StateCommit, req: request{Dissent: true}}
	if ok.failed() || !late.failed() || !timeout.failed() || !(&sample{}).failed() {
		t.Error("failed() misjudges an on-time, late, TIMEOUT or unanswered request")
	}
	if ok.wrong() || !wrong.wrong() {
		t.Error("wrong() misjudges COMMIT against the votes")
	}
}

// A late answer is still an answer: it counts in fail_share, but only an
// operation with no COMMIT/ABORT answer is failed in the result line.
func TestReduceKeepsLateOutOfFailed(t *testing.T) {
	res := &passResult{unsent: 1, window: []sample{
		{state: service.StateCommit, done: 10 * time.Millisecond},
		{state: service.StateAbort, done: lateAfter + time.Millisecond},
		{state: service.StateTimeout, done: time.Second},
		{},
	}}
	o := res.reduce()
	if o.attempted != 5 || o.failed != 3 || o.late != 1 {
		t.Errorf("attempted=%d failed=%d late=%d, want 5, 3 (TIMEOUT, unanswered, unsent) and 1", o.attempted, o.failed, o.late)
	}
	if got := o.metrics["fail_share"]; got != 0.8 {
		t.Errorf("fail_share %v, want 0.8 (late included)", got)
	}
}
