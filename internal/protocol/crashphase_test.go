package protocol_test

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/types"
)

// TestCoordinatorCrashPhases crashes the coordinator at each phase
// boundary of 2PC and 3PC under a lockstep schedule and asserts exactly
// when each protocol blocks versus decides.
//
// Under round-robin scheduling with K=2 the coordinator's steps are
// phase boundaries: at clock 1 it has broadcast its first phase
// (PREPARE / CANCOMMIT), at clock 2 its second (OUTCOME / PRECOMMIT),
// at clock 3 3PC's third (DOCOMMIT). adversary.Crash fires once the
// victim's clock reaches the given value, i.e. right after that step's
// broadcast and before the next.
func TestCoordinatorCrashPhases(t *testing.T) {
	const (
		n = 5
		k = 2
	)
	cases := []struct {
		name    string
		proto   string
		crashAt int
		// wantBlocked: nonfaulty participants stay undecided forever, and
		// the protocol's Blocked classifier identifies them as in doubt.
		wantBlocked bool
		// want is the participants' decision when not blocked.
		want types.Value
	}{
		// 2PC phase 1: coordinator crashes holding the votes. Yes-voters
		// are in doubt with no timeout rule — the classic 2PC block.
		{"2pc/crash-after-prepare", "2pc", 1, true, 0},
		// 2PC phase 2: the outcome broadcast left atomically with the
		// deciding step; participants learn COMMIT.
		{"2pc/crash-after-outcome", "2pc", 2, false, types.V1},
		// 3PC phase 1: participants voted but saw no PRECOMMIT; the WAIT
		// timeout rule fires and they abort — 3PC decides where 2PC blocks.
		{"3pc/crash-after-cancommit", "3pc", 1, false, types.V0},
		// 3PC phase 2: participants reached PRECOMMIT; its timeout rule
		// commits (sound here because the coordinator really crashed).
		{"3pc/crash-after-precommit", "3pc", 2, false, types.V1},
		// 3PC phase 3: DOCOMMIT already broadcast; participants commit.
		{"3pc/crash-after-docommit", "3pc", 3, false, types.V1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			votes := make([]types.Value, n)
			for i := range votes {
				votes[i] = types.V1
			}
			proto, err := protocol.ByName(tc.proto)
			if err != nil {
				t.Fatal(err)
			}
			// 3PC with the arena's 8K per-phase timeout.
			machines, err := proto.New(protocol.Instance{N: n, T: (n - 1) / 2, K: k, Votes: votes, Timeout: 8 * k})
			if err != nil {
				t.Fatal(err)
			}
			adv := &adversary.Crash{
				Inner: &adversary.RoundRobin{},
				Plan:  []adversary.CrashPlan{{Proc: 0, AtClock: tc.crashAt}},
			}
			res, err := sim.Run(sim.Config{
				K: k, Machines: machines, Adversary: adv,
				Seeds: rng.NewCollection(1, n), MaxSteps: 4000,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Crashed[0] {
				t.Fatal("coordinator did not crash")
			}
			if tc.wantBlocked {
				if res.AllNonfaultyDecided() {
					t.Fatalf("expected a blocked run; decisions %v", res.Values)
				}
				for p := 1; p < n; p++ {
					if res.Decided[p] {
						t.Errorf("participant %d decided %v in a blocking scenario", p, res.Values[p])
					}
					if !proto.Blocked(machines[p]) {
						t.Errorf("participant %d not classified as blocked", p)
					}
				}
				return
			}
			if !res.AllNonfaultyDecided() {
				t.Fatalf("expected all participants to decide; decided=%v", res.Decided)
			}
			for p := 1; p < n; p++ {
				if res.Values[p] != tc.want {
					t.Errorf("participant %d decided %v, want %v", p, res.Values[p], tc.want)
				}
				if proto.Blocked(machines[p]) {
					t.Errorf("participant %d classified blocked after deciding", p)
				}
			}
		})
	}
}
