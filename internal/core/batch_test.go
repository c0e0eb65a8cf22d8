package core_test

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/types"
)

// runBatch simulates batched Protocol 2: votes[p] is processor p's vote
// vector, all the same width.
func runBatch(t *testing.T, votes [][]types.Value, k int, adv sim.Adversary, seed uint64) (*sim.Result, []*core.BatchCommit) {
	t.Helper()
	n := len(votes)
	faults := (n - 1) / 2
	machines := make([]types.Machine, n)
	bms := make([]*core.BatchCommit, n)
	for i := 0; i < n; i++ {
		m, err := core.NewBatch(core.BatchConfig{
			ID: types.ProcID(i), N: n, T: faults, K: k,
			Votes: votes[i],
		})
		if err != nil {
			t.Fatalf("machine %d: %v", i, err)
		}
		machines[i] = m
		bms[i] = m
	}
	res, err := sim.Run(sim.Config{
		K:         k,
		Machines:  machines,
		Adversary: adv,
		Seeds:     rng.NewCollection(seed, n),
		MaxSteps:  0,
		Record:    true,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res, bms
}

// batchVotes builds n identical vote vectors from per-element bits.
func batchVotes(n int, bits ...int) [][]types.Value {
	out := make([][]types.Value, n)
	for p := range out {
		out[p] = make([]types.Value, len(bits))
		for e, b := range bits {
			out[p][e] = types.Value(b)
		}
	}
	return out
}

// TestBatchAllCommit: every processor votes commit for every element —
// all elements commit on all processors (commit validity, element-wise).
func TestBatchAllCommit(t *testing.T) {
	for _, n := range []int{3, 5} {
		votes := batchVotes(n, 1, 1, 1, 1, 1, 1, 1, 1)
		res, bms := runBatch(t, votes, 4, &adversary.RoundRobin{}, 21+uint64(n))
		if !res.AllNonfaultyDecided() {
			t.Fatalf("n=%d: not all decided", n)
		}
		for p, m := range bms {
			for e := 0; e < 8; e++ {
				d, ok := m.OutcomeAt(e)
				if !ok || d != types.DecisionCommit {
					t.Fatalf("n=%d proc %d element %d: (%v,%v), want COMMIT", n, p, e, d, ok)
				}
			}
			if m.Violation() != nil {
				t.Fatalf("n=%d proc %d: violation %v", n, p, m.Violation())
			}
		}
	}
}

// TestBatchMixedVotes: one abort vote on an element aborts exactly that
// element (abort validity); all-commit neighbors still commit when the
// run is on time (commit validity is per element, not per batch).
func TestBatchMixedVotes(t *testing.T) {
	const n = 5
	votes := batchVotes(n, 1, 1, 1, 1)
	votes[2][1] = types.V0 // processor 2 votes abort on element 1 only
	res, bms := runBatch(t, votes, 4, &adversary.RoundRobin{}, 99)
	if !res.AllNonfaultyDecided() {
		t.Fatal("not all decided")
	}
	for p, m := range bms {
		for e := 0; e < 4; e++ {
			d, ok := m.OutcomeAt(e)
			if !ok {
				t.Fatalf("proc %d element %d undecided", p, e)
			}
			want := types.DecisionCommit
			if e == 1 {
				want = types.DecisionAbort
			}
			if d != want {
				t.Fatalf("proc %d element %d decided %v, want %v", p, e, d, want)
			}
		}
	}
}

// TestBatchCommitUnderCrash: with a minority crash mid-run, every
// surviving processor decides every element, and they all agree.
func TestBatchCommitUnderCrash(t *testing.T) {
	const n, b = 5, 16
	votes := batchVotes(n, 1, 1, 1, 1, 0, 1, 1, 1, 1, 1, 1, 0, 1, 1, 1, 1)
	for p := range votes {
		votes[p][4] = types.Value(p % 2) // a genuinely split element
	}
	adv := &adversary.Crash{
		Inner: &adversary.RoundRobin{},
		Plan:  []adversary.CrashPlan{{Proc: 1, AtClock: 10}, {Proc: 3, AtClock: 30}},
	}
	res, bms := runBatch(t, votes, 4, adv, 1234)
	for e := 0; e < b; e++ {
		var agreed types.Decision
		first := true
		for p, m := range bms {
			if res.Crashed[p] {
				continue
			}
			d, ok := m.OutcomeAt(e)
			if !ok {
				t.Fatalf("proc %d element %d undecided", p, e)
			}
			if first {
				agreed, first = d, false
			} else if d != agreed {
				t.Fatalf("element %d: proc %d decided %v, others %v", e, p, d, agreed)
			}
		}
	}
}

// TestBatchWidthOne: a batch of one behaves like a scalar commit.
func TestBatchWidthOne(t *testing.T) {
	res, bms := runBatch(t, batchVotes(3, 1), 4, &adversary.RoundRobin{}, 7)
	if !res.AllNonfaultyDecided() {
		t.Fatal("not all decided")
	}
	for p, m := range bms {
		if d, ok := m.OutcomeAt(0); !ok || d != types.DecisionCommit {
			t.Fatalf("proc %d: (%v,%v)", p, d, ok)
		}
		if v, ok := m.Decision(); !ok || v != types.V1 {
			t.Fatalf("proc %d conjunction: (%v,%v)", p, v, ok)
		}
	}
}

// TestBatchConfigValidation rejects bad widths and parameters.
func TestBatchConfigValidation(t *testing.T) {
	bad := []core.BatchConfig{
		{ID: 0, N: 3, T: 1, K: 4},                                          // empty votes
		{ID: 0, N: 3, T: 1, K: 0, Votes: []types.Value{1}},                 // K < 1
		{ID: 0, N: 4, T: 2, K: 4, Votes: []types.Value{1}},                 // N <= 2T
		{ID: 3, N: 3, T: 1, K: 4, Votes: []types.Value{1}},                 // id range
		{ID: 0, N: 3, T: 1, K: 4, Votes: []types.Value{7}},                 // bad value
		{ID: 0, N: 3, T: 1, K: 4, Votes: []types.Value{1}, Coordinator: 5}, // coord range
		{ID: 0, N: 3, T: 1, K: 4, Votes: []types.Value{1}, CoinFactor: -1}, // coin factor
	}
	for i, cfg := range bad {
		if _, err := core.NewBatch(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}
