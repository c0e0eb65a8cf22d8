package lowerbound

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/types"
)

// Theorem14Result reports the blocking demonstration at the n = 2t
// boundary (experiment E8).
//
// Theorem 14 proves no t-nonblocking transaction commit protocol exists
// for n <= 2t. Run constructively, the theorem looks like this: configure
// the protocol at n = 2t (forcing the Unsafe flag), crash t processors
// before their first step — a t-admissible adversary — and the survivors
// can never assemble a strict majority, so the protocol blocks forever.
// Safety is never lost (no conflicting decisions), which is the paper's
// graceful-degradation claim (Theorem 11) operating beyond its guarantee
// boundary. At n = 2t+1 the identical adversary leaves t+1 survivors — a
// strict majority — and every survivor decides.
type Theorem14Result struct {
	// Even system: n = 2t.
	NEven, TEven int
	EvenBlocked  bool // true: survivors never decided (run exhausted)
	EvenConflict bool // true would refute the safety claim
	// Odd control: n = 2t+1, same adversary.
	NOdd, TOdd int
	OddDecided bool
	OddValue   types.Value
}

// Theorem14Demo executes the blocking demonstration for tolerance t.
func Theorem14Demo(t int, seed uint64, maxSteps int) (*Theorem14Result, error) {
	if t < 1 {
		return nil, fmt.Errorf("lowerbound: t must be >= 1, got %d", t)
	}
	if maxSteps <= 0 {
		maxSteps = 30_000
	}
	res := &Theorem14Result{NEven: 2 * t, TEven: t, NOdd: 2*t + 1, TOdd: t}

	// Even system: crash the top t processors before their first step.
	even, err := runWithEarlyCrashes(2*t, t, t, seed, maxSteps, true)
	if err != nil {
		return nil, err
	}
	res.EvenBlocked = !even.AllNonfaultyDecided()
	res.EvenConflict = trace.CheckAgreement(even.Outcomes()) != nil

	// Odd control: same adversary shape, one more processor.
	odd, err := runWithEarlyCrashes(2*t+1, t, t, seed+1, maxSteps, false)
	if err != nil {
		return nil, err
	}
	res.OddDecided = odd.AllNonfaultyDecided()
	if res.OddDecided {
		res.OddValue = odd.Values[0]
	}
	return res, nil
}

// runWithEarlyCrashes runs Protocol 2 with all-commit votes, crashing the
// highest-numbered `crashes` processors before their first step.
func runWithEarlyCrashes(n, faults, crashes int, seed uint64, maxSteps int, unsafe bool) (*sim.Result, error) {
	votes := make([]types.Value, n)
	for i := range votes {
		votes[i] = types.V1
	}
	set, err := core.NewSet(core.Config{N: n, T: faults, K: 2, Gadget: true, Unsafe: unsafe}, votes)
	if err != nil {
		return nil, err
	}
	var plan []adversary.CrashPlan
	for i := 0; i < crashes; i++ {
		plan = append(plan, adversary.CrashPlan{Proc: types.ProcID(n - 1 - i), AtClock: 0})
	}
	return sim.Run(sim.Config{
		K:         2,
		Machines:  types.Machines(set),
		Adversary: &adversary.Crash{Inner: &adversary.RoundRobin{}, Plan: plan},
		Seeds:     rng.NewCollection(seed, n),
		MaxSteps:  maxSteps,
	})
}
