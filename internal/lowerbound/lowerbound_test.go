package lowerbound_test

import (
	"strings"
	"testing"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/lowerbound"
	"repro/internal/types"
)

func procSet(ids ...types.ProcID) map[types.ProcID]bool {
	s := make(map[types.ProcID]bool)
	for _, id := range ids {
		s[id] = true
	}
	return s
}

func TestKillDeafenRestrictAlgebra(t *testing.T) {
	sched := lowerbound.Schedule{
		{Proc: 0, Sources: nil},
		{Proc: 1, Sources: []int{0}},
		{Proc: 0, Sources: []int{1}},
		{Proc: 1, Fail: true},
	}
	s := procSet(1)

	killed := lowerbound.Kill(s, sched)
	if !killed[1].Fail || len(killed[1].Sources) != 0 {
		t.Errorf("kill did not convert event 1 to a failure step: %+v", killed[1])
	}
	if killed[0].Fail || killed[2].Fail {
		t.Errorf("kill touched events outside S")
	}
	if !killed[3].Fail {
		t.Errorf("kill dropped an existing failure step")
	}

	deaf := lowerbound.Deafen(s, sched)
	if deaf[1].Fail || len(deaf[1].Sources) != 0 {
		t.Errorf("deafen did not empty event 1's deliveries: %+v", deaf[1])
	}
	if !deaf[3].Fail {
		t.Errorf("deafen must preserve failure steps")
	}
	if len(deaf[2].Sources) != 1 {
		t.Errorf("deafen touched events outside S")
	}

	restricted := lowerbound.Restrict(s, sched)
	if len(restricted) != 2 || restricted[0].Proc != 1 || restricted[1].Proc != 1 {
		t.Errorf("restrict = %+v", restricted)
	}

	if !lowerbound.EqualProjection(s, sched, deafenOther(sched)) {
		t.Errorf("projections should agree when only S̄ events change")
	}
	if lowerbound.EqualProjection(s, sched, deaf) {
		t.Errorf("projections should differ after deafening S itself")
	}
}

func deafenOther(sched lowerbound.Schedule) lowerbound.Schedule {
	return lowerbound.Deafen(map[types.ProcID]bool{0: true}, sched)
}

// agreementFactory builds n agreement machines with the given inputs.
func agreementFactory(inits []types.Value) types.Factory {
	return func() ([]types.Machine, error) {
		n := len(inits)
		out := make([]types.Machine, n)
		for i := 0; i < n; i++ {
			m, err := agreement.New(agreement.Config{
				ID: types.ProcID(i), N: n, T: (n - 1) / 2,
				Initial: inits[i], Coins: agreement.ListCoin{Coins: []types.Value{1, 0, 1, 1}},
				Gadget: true,
			})
			if err != nil {
				return nil, err
			}
			out[i] = m
		}
		return out, nil
	}
}

// commitFactory builds n Protocol 2 machines with the given votes.
func commitFactory(votes []types.Value) types.Factory {
	return func() ([]types.Machine, error) {
		n := len(votes)
		out := make([]types.Machine, n)
		for i := 0; i < n; i++ {
			m, err := core.New(core.Config{
				ID: types.ProcID(i), N: n, T: (n - 1) / 2, K: 2,
				Vote: votes[i], Gadget: true,
			})
			if err != nil {
				return nil, err
			}
			out[i] = m
		}
		return out, nil
	}
}

func TestExecutorApplicability(t *testing.T) {
	f := agreementFactory([]types.Value{1, 0, 1, 0})
	x, err := lowerbound.NewExecutor(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Step 0: proc 0 broadcasts its stage-1 report.
	if err := x.Apply(lowerbound.Event{Proc: 0}); err != nil {
		t.Fatal(err)
	}
	// Delivering from a future event must fail.
	if err := x.Apply(lowerbound.Event{Proc: 1, Sources: []int{5}}); err == nil {
		t.Error("future source accepted")
	}
	// Event 0 sent to processor 1: applicable.
	if err := x.Apply(lowerbound.Event{Proc: 1, Sources: []int{0}}); err != nil {
		t.Fatal(err)
	}
	// Double delivery of the same source must fail (buffers are sets).
	if err := x.Apply(lowerbound.Event{Proc: 1, Sources: []int{0}}); err == nil {
		t.Error("double delivery accepted")
	}
	// Fail processor 2; then stepping it normally must fail.
	if err := x.Apply(lowerbound.Event{Proc: 2, Fail: true}); err != nil {
		t.Fatal(err)
	}
	if err := x.Apply(lowerbound.Event{Proc: 2}); err == nil {
		t.Error("failed processor stepped")
	}
	if !x.Failed(2) {
		t.Error("Failed(2) = false")
	}
	// Failure steps with sources are malformed.
	if err := x.Apply(lowerbound.Event{Proc: 3, Fail: true, Sources: []int{0}}); err == nil {
		t.Error("failure step with sources accepted")
	}
	// Invalid processor.
	if err := x.Apply(lowerbound.Event{Proc: 9}); err == nil {
		t.Error("invalid processor accepted")
	}
}

func TestExecutorTurnEnforcement(t *testing.T) {
	x, err := lowerbound.NewExecutor(agreementFactory([]types.Value{1, 0, 1}), 2)
	if err != nil {
		t.Fatal(err)
	}
	x.EnforceTurn = true
	if err := x.Apply(lowerbound.Event{Proc: 1}); err == nil ||
		!strings.Contains(err.Error(), "turn") {
		t.Fatalf("turn violation not rejected: %v", err)
	}
	for _, p := range []types.ProcID{0, 1, 2, 0} {
		if err := x.Apply(lowerbound.Event{Proc: p}); err != nil {
			t.Fatalf("round-robin step %d: %v", p, err)
		}
	}
}

func TestGenerateIsolatedScheduleKeepsSidesApart(t *testing.T) {
	f := agreementFactory([]types.Value{1, 0, 1, 0})
	s := procSet(0, 1)
	sched, err := lowerbound.GenerateIsolatedSchedule(f, 3, lowerbound.IsolatedScheduleOptions{Cycles: 6, S: s})
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) != 24 {
		t.Fatalf("schedule length %d, want 24", len(sched))
	}
	for i, ev := range sched {
		for _, src := range ev.Sources {
			if s[sched[src].Proc] != s[ev.Proc] {
				t.Fatalf("event %d delivers across the boundary", i)
			}
		}
	}
}

func TestLemma12AcrossInitialConfigurations(t *testing.T) {
	// Two initial configurations that agree on S = {0, 1} and differ on
	// S̄ = {2, 3}. Replaying an S̄-isolated schedule leaves every S-state
	// identical — Lemma 12 checked on the real Protocol 1 machines.
	fa := agreementFactory([]types.Value{1, 0, 1, 0})
	fb := agreementFactory([]types.Value{1, 0, 0, 1})
	s := procSet(0, 1)
	sched, err := lowerbound.GenerateIsolatedSchedule(fa, 4, lowerbound.IsolatedScheduleOptions{Cycles: 8, S: s})
	if err != nil {
		t.Fatal(err)
	}
	if err := lowerbound.VerifyLemma12(fa, fb, 4, s, sched, sched); err != nil {
		t.Fatal(err)
	}
	// Appending extra S̄-only idle events must not disturb the S side.
	extended := append(append(lowerbound.Schedule{}, sched...),
		lowerbound.Event{Proc: 2}, lowerbound.Event{Proc: 3})
	if err := lowerbound.VerifyLemma12(fa, fb, 4, s, sched, extended); err != nil {
		t.Fatal(err)
	}
}

func TestLemma12RejectsMismatchedProjections(t *testing.T) {
	fa := agreementFactory([]types.Value{1, 0, 1, 0})
	s := procSet(0, 1)
	a := lowerbound.Schedule{{Proc: 0}, {Proc: 2}}
	b := lowerbound.Schedule{{Proc: 1}, {Proc: 2}}
	if err := lowerbound.VerifyLemma12(fa, fa, 1, s, a, b); err == nil {
		t.Error("mismatched S-projections accepted")
	}
}

func TestLemma13KillAndDeafenOnProtocol1(t *testing.T) {
	f := agreementFactory([]types.Value{1, 1, 0, 0, 1})
	s := procSet(0, 1, 2)
	sched, err := lowerbound.GenerateIsolatedSchedule(f, 7, lowerbound.IsolatedScheduleOptions{Cycles: 10, S: s})
	if err != nil {
		t.Fatal(err)
	}
	if err := lowerbound.VerifyKillInvisibility(f, 7, s, sched); err != nil {
		t.Fatalf("kill: %v", err)
	}
	if err := lowerbound.VerifyDeafenInvisibility(f, 7, s, sched); err != nil {
		t.Fatalf("deafen: %v", err)
	}
}

func TestLemma13OnProtocol2(t *testing.T) {
	f := commitFactory([]types.Value{1, 1, 1, 1})
	s := procSet(0, 1)
	sched, err := lowerbound.GenerateIsolatedSchedule(f, 9, lowerbound.IsolatedScheduleOptions{Cycles: 12, S: s})
	if err != nil {
		t.Fatal(err)
	}
	if err := lowerbound.VerifyKillInvisibility(f, 9, s, sched); err != nil {
		t.Fatalf("kill: %v", err)
	}
	if err := lowerbound.VerifyDeafenInvisibility(f, 9, s, sched); err != nil {
		t.Fatalf("deafen: %v", err)
	}
}

func TestTheorem14Demo(t *testing.T) {
	for _, tol := range []int{1, 2, 3} {
		res, err := lowerbound.Theorem14Demo(tol, uint64(tol)*11, 20_000)
		if err != nil {
			t.Fatal(err)
		}
		if !res.EvenBlocked {
			t.Errorf("t=%d: n=2t system decided; expected blocking", tol)
		}
		if res.EvenConflict {
			t.Errorf("t=%d: n=2t system produced conflicting decisions", tol)
		}
		if !res.OddDecided {
			t.Errorf("t=%d: n=2t+1 control did not decide", tol)
		}
		if res.OddDecided && res.OddValue != types.V0 {
			t.Errorf("t=%d: odd control decided %v, want abort (crashes before GO)", tol, res.OddValue)
		}
	}
}

func TestTheorem14DemoValidation(t *testing.T) {
	if _, err := lowerbound.Theorem14Demo(0, 1, 100); err == nil {
		t.Error("t=0 accepted")
	}
}
