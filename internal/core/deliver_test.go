package core

// Deliver is Step without the clock tick. These tests pin the two facts
// the live runtime's arrival-driven stepping rests on: a delivery that
// carries nothing does nothing, and a timeout fires on a tick or not at
// all. Both schedules are fixed in advance — content-oblivious.

import (
	"fmt"
	"testing"

	"repro/internal/agreement"
	"repro/internal/rng"
	"repro/internal/types"
)

func newBatchSet(t *testing.T, n, k int, votes []types.Value) []*BatchCommit {
	t.Helper()
	ms := make([]*BatchCommit, n)
	for p := range ms {
		m, err := NewBatch(BatchConfig{ID: types.ProcID(p), N: n, T: (n - 1) / 2, K: k, Votes: votes})
		if err != nil {
			t.Fatal(err)
		}
		ms[p] = m
	}
	return ms
}

// observe renders everything a caller can see of a machine.
func observe(c *BatchCommit) string {
	s := fmt.Sprintf("st=%d clock=%d halted=%v decided=%d", c.st, c.clock, c.halted, c.DecidedCount())
	for i := 0; i < c.b; i++ {
		d, ok := c.OutcomeAt(i)
		s += fmt.Sprintf(" %v/%v", d, ok)
	}
	return s
}

// lockstep runs the set to quiescence, every processor taking one Step per
// round with whatever was sent to it the round before, and returns the
// transcript of every Step's output. With probe set, each Step is followed
// by empty deliveries, which must emit nothing and change nothing visible;
// visited collects the protocol states they were tried in.
func lockstep(t *testing.T, ms []*BatchCommit, probe bool, visited map[state]bool) []string {
	t.Helper()
	seeds := rng.NewCollection(77, len(ms))
	inbox := make([][]types.Message, len(ms))
	var transcript []string
	for round := 0; round < 200; round++ {
		next := make([][]types.Message, len(ms))
		halted := 0
		for p, m := range ms {
			out := m.Step(inbox[p], seeds.Stream(types.ProcID(p)))
			for _, msg := range out {
				transcript = append(transcript, fmt.Sprintf("r%d %d->%d %v", round, msg.From, msg.To, msg.Payload))
				next[msg.To] = append(next[msg.To], msg)
			}
			if probe {
				before := observe(m)
				for i := 0; i < 3; i++ {
					if got := m.Deliver(nil, seeds.Stream(types.ProcID(p))); len(got) != 0 {
						t.Fatalf("round %d proc %d (%s): Deliver(nil) emitted %v", round, p, before, got)
					}
					if after := observe(m); after != before {
						t.Fatalf("round %d proc %d: Deliver(nil) moved %s to %s", round, p, before, after)
					}
				}
				visited[m.st] = true
			}
			if m.Halted() {
				halted++
			}
		}
		inbox = next
		if halted == len(ms) {
			return transcript
		}
	}
	t.Fatal("the set never halted")
	return nil
}

func TestDeliverNilIsInertContentOblivious(t *testing.T) {
	votes := []types.Value{types.V1, types.V0}
	visited := map[state]bool{}
	probed := newBatchSet(t, 3, 2, votes)
	got := lockstep(t, probed, true, visited)
	for _, st := range []state{stWaitGo, stWaitAllGo, stWaitVotes, stAgreement} {
		if !visited[st] {
			t.Errorf("state %d was never probed", st)
		}
	}
	if !probed[0].Halted() {
		t.Error("the halted state was never probed")
	}

	// The same run without the probes sends the same messages and decides
	// the same: the empty deliveries drew no coin and left no trace.
	plain := newBatchSet(t, 3, 2, votes)
	want := lockstep(t, plain, false, nil)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("transcripts differ:\nprobed %v\nplain  %v", got, want)
	}
	for p := range plain {
		if a, b := observe(probed[p]), observe(plain[p]); a != b {
			t.Fatalf("proc %d: probed %s, plain %s", p, a, b)
		}
	}
}

// TestTimeoutFiresOnATickNeverInDeliverContentOblivious: processor 1 of 3
// (K = 2) hears from processor 0 and itself but never from processor 2.
// Its GO wait, and the vote wait of a processor that heard all n GOs, each
// end on the tick that completes 2K ticks of waiting — whether the wait
// began on a tick or in a delivery between two — and never inside a
// Deliver, however many deliveries (empty, or repeating what it already
// holds) come between the ticks.
func TestTimeoutFiresOnATickNeverInDeliverContentOblivious(t *testing.T) {
	const k = 2
	coins := []types.Value{1, 0, 1}
	msg := func(from types.ProcID, p types.Payload) types.Message {
		return types.Message{From: from, To: 1, Payload: p}
	}
	for _, startInDeliver := range []bool{false, true} {
		name := "wait begins on a tick"
		if startInDeliver {
			name = "wait begins in a delivery"
		}
		t.Run(name, func(t *testing.T) {
			var m *BatchCommit
			rnd := rng.NewStream(5)
			// begin hands a fresh machine the messages that begin a wait;
			// pester is the traffic between ticks that must not end it.
			begin := func(received []types.Message) {
				m = newBatchSet(t, 3, k, []types.Value{types.V1})[1]
				if startInDeliver {
					m.Step(nil, rnd) // a tick with nothing in it: still waiting for GO
					m.Deliver(received, rnd)
				} else {
					m.Step(received, rnd)
				}
			}
			pester := func(wantSt state) {
				t.Helper()
				for i := 0; i < 5; i++ {
					m.Deliver(nil, rnd)
					m.Deliver([]types.Message{msg(0, GoMsg{Coins: coins}), msg(0, BatchVoteMsg{Vals: []types.Value{types.V1}})}, rnd)
					if m.st != wantSt {
						t.Fatalf("a delivery moved the machine from state %d to %d", wantSt, m.st)
					}
				}
			}
			// awaitTimeout ticks until the wait that begin just began has run
			// 2K full ticks, and checks it ended on exactly that tick.
			awaitTimeout := func(during, after state) []types.Message {
				t.Helper()
				ticks := 2 * k
				if startInDeliver {
					ticks++ // the tick under way when the wait began does not count
				}
				for i := 1; i < ticks; i++ {
					pester(during)
					m.Step(nil, rnd)
					if m.st != during {
						t.Fatalf("timed out on tick %d of the wait, want tick %d", i, ticks)
					}
				}
				pester(during)
				out := m.Step(nil, rnd)
				if m.st != after {
					t.Fatalf("tick %d of the wait left state %d, want %d", ticks, m.st, after)
				}
				return out
			}

			begin([]types.Message{msg(0, GoMsg{Coins: coins})}) // first contact: relay GO
			if m.st != stWaitAllGo {
				t.Fatalf("after GO: state %d", m.st)
			}
			// The demoted vote forces the input, so the tick that broadcasts
			// it also starts agreement.
			out := awaitTimeout(stWaitAllGo, stAgreement)
			if v, ok := unwrapTo[BatchVoteMsg](out); !ok || v.Vals[0] != types.V0 {
				t.Fatalf("GO timeout broadcast %v, want the vote demoted to abort", out)
			}
			if r, ok := unwrapTo[agreement.VecReportMsg](out); !ok || r.Vals[0] != types.V0 {
				t.Fatalf("GO timeout started agreement with %v, want input 0", out)
			}

			// A machine that heard all n GOs keeps its commit vote, so
			// nothing forces its input and only the timeout ends its vote
			// wait.
			begin([]types.Message{msg(0, GoMsg{Coins: coins}), msg(1, GoMsg{Coins: coins}), msg(2, GoMsg{Coins: coins})})
			if m.st != stWaitVotes {
				t.Fatalf("after n GOs: state %d", m.st)
			}
			out = awaitTimeout(stWaitVotes, stAgreement)
			if r, ok := unwrapTo[agreement.VecReportMsg](out); !ok || r.Vals[0] != types.V0 {
				t.Fatalf("vote timeout started agreement with %v, want input 0", out)
			}
		})
	}
}

// TestForcedInputEndsTheVoteWaitContentOblivious: processor 1 of 3 (K = 2)
// ends its vote wait the moment every element holds an abort vote, in its
// own vector or in a received one, and starts agreement with the all-zero
// input — on a tick or inside a delivery, since the exit is a content
// event. An element with no abort vote in hand leaves the wait to its 2K
// ticks.
func TestForcedInputEndsTheVoteWaitContentOblivious(t *testing.T) {
	const k = 2
	coins := []types.Value{1, 0, 1}
	gos := func(from ...types.ProcID) []types.Message {
		var ms []types.Message
		for _, p := range from {
			ms = append(ms, types.Message{From: p, To: 1, Payload: GoMsg{Coins: coins}})
		}
		return ms
	}
	vote := func(from types.ProcID, vals ...types.Value) []types.Message {
		return []types.Message{{From: from, To: 1, Payload: BatchVoteMsg{Vals: vals}}}
	}
	wantZeroInput := func(t *testing.T, out []types.Message) {
		t.Helper()
		r, ok := unwrapTo[agreement.VecReportMsg](out)
		if !ok {
			t.Fatalf("agreement did not start: sent %v", out)
		}
		for i, v := range r.Vals {
			if v != types.V0 {
				t.Fatalf("agreement input %v, want 0 at element %d", r.Vals, i)
			}
		}
	}

	t.Run("own vector demoted by the GO timeout", func(t *testing.T) {
		m := newBatchSet(t, 3, k, []types.Value{types.V1, types.V1})[1]
		rnd := rng.NewStream(5)
		m.Step(gos(0), rnd) // relay GO; processor 2's never comes
		for i := 1; i < 2*k; i++ {
			m.Step(nil, rnd)
		}
		if m.st != stWaitAllGo {
			t.Fatalf("before the GO timeout: state %d", m.st)
		}
		out := m.Step(nil, rnd)
		if m.st != stAgreement {
			t.Fatalf("the GO timeout left state %d, want agreement on the same tick", m.st)
		}
		if v, ok := unwrapTo[BatchVoteMsg](out); !ok || v.Vals[0] != types.V0 || v.Vals[1] != types.V0 {
			t.Fatalf("GO timeout broadcast %v, want the vote vector demoted to abort", out)
		}
		wantZeroInput(t, out)
	})

	t.Run("own and received aborts cover the batch", func(t *testing.T) {
		m := newBatchSet(t, 3, k, []types.Value{types.V0, types.V1})[1]
		rnd := rng.NewStream(5)
		m.Step(gos(0, 1, 2), rnd)
		if m.st != stWaitVotes {
			t.Fatalf("after n GOs: state %d", m.st)
		}
		m.Deliver(vote(0, types.V1, types.V1), rnd)
		if m.st != stWaitVotes {
			t.Fatalf("element 1 holds no abort vote yet, but the wait ended (state %d)", m.st)
		}
		out := m.Deliver(vote(2, types.V1, types.V0), rnd)
		if m.st != stAgreement || m.clock != 1 {
			t.Fatalf("after the covering vector: state %d clock %d, want agreement inside the delivery", m.st, m.clock)
		}
		wantZeroInput(t, out)
	})

	t.Run("an element without an abort vote waits 2K ticks", func(t *testing.T) {
		m := newBatchSet(t, 3, k, []types.Value{types.V0, types.V1})[1]
		rnd := rng.NewStream(5)
		m.Step(gos(0, 1, 2), rnd)
		m.Deliver(append(vote(0, types.V0, types.V1), vote(1, types.V0, types.V1)...), rnd)
		for i := 1; i < 2*k; i++ {
			m.Step(nil, rnd)
			if m.st != stWaitVotes {
				t.Fatalf("the wait ended on tick %d, want tick %d", i, 2*k)
			}
		}
		out := m.Step(nil, rnd)
		if m.st != stAgreement {
			t.Fatalf("tick %d of the wait left state %d", 2*k, m.st)
		}
		wantZeroInput(t, out)
	})
}

// unwrapTo finds the first payload of type T in out, under any piggyback.
func unwrapTo[T types.Payload](out []types.Message) (T, bool) {
	for _, m := range out {
		inner, _ := Unwrap(m.Payload)
		if v, ok := inner.(T); ok {
			return v, true
		}
	}
	var zero T
	return zero, false
}
