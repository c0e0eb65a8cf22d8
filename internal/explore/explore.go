// Package explore systematically checks the protocol's safety over whole
// families of executions rather than sampled ones:
//
//   - CrashSweep enumerates every crash schedule (which processors crash,
//     and when) up to a clock horizon and audits each run against the
//     §2.4 conditions. It machine-checks "no crash pattern within the
//     model produces conflicting decisions" exhaustively for small
//     systems.
//   - Explore performs a bounded breadth-first search over scheduler
//     nondeterminism (who steps next, what gets delivered), memoizing
//     visited global configurations by fingerprint, and reports the first
//     safety violation found, if any. This is bounded model checking of
//     the actual implementation, not of an abstraction.
//
// Both tools are exhaustive only within their bounds; they complement the
// randomized property tests, which go deep but sparse.
package explore

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/types"
)

// CrashSweepConfig parameterizes an exhaustive crash-schedule sweep.
type CrashSweepConfig struct {
	Factory types.Factory
	N       int
	K       int
	Seed    uint64
	// Votes are used for the validity audits.
	Votes []types.Value
	// MaxCrashed bounds the number of crashed processors per schedule.
	MaxCrashed int
	// ClockHorizon bounds the crash clocks swept: each victim crashes at
	// some clock in [0, ClockHorizon].
	ClockHorizon int
	// MaxSteps bounds each run.
	MaxSteps int
}

// SweepResult aggregates a sweep.
type SweepResult struct {
	Runs       int
	Decided    int // runs where every nonfaulty processor decided
	Blocked    int
	Conflicts  int
	Violations int // abort/commit-validity violations
	// FirstViolation describes the first failing schedule, if any.
	FirstViolation string
}

// CrashSweep enumerates crash schedules exhaustively and audits each run.
func CrashSweep(cfg CrashSweepConfig) (*SweepResult, error) {
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 30_000
	}
	res := &SweepResult{}
	victims := subsets(cfg.N, cfg.MaxCrashed)
	for _, set := range victims {
		if err := sweepClocks(cfg, set, nil, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// sweepClocks recursively assigns a crash clock to every victim.
func sweepClocks(cfg CrashSweepConfig, victims []types.ProcID, clocks []int, res *SweepResult) error {
	if len(clocks) == len(victims) {
		return runOne(cfg, victims, clocks, res)
	}
	for c := 0; c <= cfg.ClockHorizon; c++ {
		if err := sweepClocks(cfg, victims, append(clocks, c), res); err != nil {
			return err
		}
	}
	return nil
}

func runOne(cfg CrashSweepConfig, victims []types.ProcID, clocks []int, res *SweepResult) error {
	machines, err := cfg.Factory()
	if err != nil {
		return err
	}
	adv := crashRoundRobin{plan: map[types.ProcID]int{}}
	for i, v := range victims {
		adv.plan[v] = clocks[i]
	}
	run, err := sim.Run(sim.Config{
		K: cfg.K, Machines: machines, Adversary: &adv,
		Seeds:    rng.NewCollection(cfg.Seed, cfg.N),
		MaxSteps: cfg.MaxSteps,
	})
	if err != nil {
		return err
	}
	res.Runs++
	if run.AllNonfaultyDecided() {
		res.Decided++
	} else {
		res.Blocked++
	}
	if trace.CheckAgreement(run.Outcomes()) != nil {
		res.Conflicts++
		if res.FirstViolation == "" {
			res.FirstViolation = fmt.Sprintf("agreement: victims=%v clocks=%v", victims, clocks)
		}
	}
	if trace.CheckAbortValidity(cfg.Votes, run.Outcomes()) != nil {
		res.Violations++
		if res.FirstViolation == "" {
			res.FirstViolation = fmt.Sprintf("abort validity: victims=%v clocks=%v", victims, clocks)
		}
	}
	return nil
}

// crashRoundRobin is a round-robin scheduler with an exact crash plan.
type crashRoundRobin struct {
	plan map[types.ProcID]int
	next int
	del  []int // scratch reused across Next calls
}

func (a *crashRoundRobin) Next(v *sim.View) sim.Choice {
	n := v.N()
	for i := 0; i < n; i++ {
		p := types.ProcID((a.next + i) % n)
		if v.Crashed(p) {
			continue
		}
		a.next = (int(p) + 1) % n
		if c, ok := a.plan[p]; ok && v.Clock(p) >= c {
			delete(a.plan, p)
			return sim.Choice{Proc: p, Crash: true}
		}
		a.del = a.del[:0]
		for _, pm := range v.Pending(p) {
			a.del = append(a.del, pm.Seq)
		}
		return sim.Choice{Proc: p, Deliver: a.del}
	}
	return sim.Choice{Proc: 0}
}

// subsets enumerates all processor subsets of size 0..maxSize.
func subsets(n, maxSize int) [][]types.ProcID {
	var out [][]types.ProcID
	var rec func(start int, cur []types.ProcID)
	rec = func(start int, cur []types.ProcID) {
		out = append(out, append([]types.ProcID(nil), cur...))
		if len(cur) == maxSize {
			return
		}
		for p := start; p < n; p++ {
			rec(p+1, append(cur, types.ProcID(p)))
		}
	}
	rec(0, nil)
	return out
}
