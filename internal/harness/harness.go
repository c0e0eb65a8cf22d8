// Package harness drives the paper-reproduction experiments (E1–E13 and
// E15) cataloged in DESIGN.md and renders their tables. Each experiment
// regenerates one quantitative claim of Coan & Lundelius (PODC '86); the
// bench targets in bench_test.go and `lab experiments` are thin wrappers
// over this package.
package harness

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/types"
)

// Report is one experiment's rendered result.
type Report struct {
	ID    string
	Title string
	// Claim is the paper statement being reproduced.
	Claim string
	Table *stats.Table
	Notes []string
	// Pass summarizes whether the measured shape matches the claim.
	Pass bool
}

// String renders the report.
func (r *Report) String() string {
	s := fmt.Sprintf("%s — %s\nPaper claim: %s\n\n%s", r.ID, r.Title, r.Claim, r.Table)
	for _, n := range r.Notes {
		s += "note: " + n + "\n"
	}
	if r.Pass {
		s += "shape: MATCHES paper\n"
	} else {
		s += "shape: DOES NOT MATCH paper\n"
	}
	return s
}

// Options tunes experiment size.
type Options struct {
	// Runs is the number of seeds per configuration (default 50).
	Runs int
	// Seed is the master seed.
	Seed uint64
	// Quick shrinks sweeps for fast CI runs.
	Quick bool
	// Workers bounds the goroutines used for seed sweeps: 0 means
	// GOMAXPROCS, negative means serial. Results are identical at any
	// worker count (each run is a pure function of its seed; outputs
	// merge in seed order).
	Workers int
}

func (o Options) runs(def int) int {
	if o.Runs > 0 {
		return o.Runs
	}
	if o.Quick {
		return def / 5
	}
	return def
}

// sweep executes fn for every run index in [0, runs) across the
// configured workers and returns the per-run results in run order. Every
// experiment's inner seed loop goes through here: fn must derive all
// randomness from its run index (seeds), never from shared state, which
// keeps the sweep's output independent of scheduling.
func sweep[T any](opt Options, runs int, fn func(r int) (T, error)) ([]T, error) {
	return parallel.Map(runs, opt.Workers, fn)
}

// CommitRun configures one simulated Protocol 2 execution.
type CommitRun struct {
	N          int
	T          int // default (N-1)/2
	K          int // default 4
	Votes      []types.Value
	CoinFactor int
	Seed       uint64
	Adversary  sim.Adversary // default RoundRobin
	MaxSteps   int
	Record     bool
	Unsafe     bool
}

// RunCommit executes Protocol 2 under the simulator and returns the result
// plus the machines (for stage inspection).
func RunCommit(cfg CommitRun) (*sim.Result, []*core.Commit, error) {
	if cfg.K == 0 {
		cfg.K = 4
	}
	if cfg.T == 0 && !cfg.Unsafe {
		cfg.T = (cfg.N - 1) / 2
	}
	votes := cfg.Votes
	if votes == nil {
		votes = AllVotes(cfg.N, types.V1)
	}
	adv := cfg.Adversary
	if adv == nil {
		adv = &adversary.RoundRobin{}
	}
	commits, err := core.NewSet(core.Config{
		N: cfg.N, T: cfg.T, K: cfg.K, CoinFactor: cfg.CoinFactor, Gadget: true,
		Unsafe: cfg.Unsafe,
	}, votes)
	if err != nil {
		return nil, nil, err
	}
	res, err := sim.Run(sim.Config{
		K: cfg.K, Machines: types.Machines(commits), Adversary: adv,
		Seeds:    rng.NewCollection(cfg.Seed, cfg.N),
		MaxSteps: cfg.MaxSteps, Record: cfg.Record,
	})
	if err != nil {
		return nil, nil, err
	}
	return res, commits, nil
}

// runNamed executes one protocol from the one name table under the
// simulator, recording its trace (votes nil: every processor votes
// commit; adv nil: round-robin; maxSteps 0: the simulator's default).
func runNamed(name string, n, k int, votes []types.Value, seed uint64, adv sim.Adversary, maxSteps int) (*sim.Result, error) {
	p, err := protocol.ByName(name)
	if err != nil {
		return nil, err
	}
	if votes == nil {
		votes = AllVotes(n, types.V1)
	}
	if adv == nil {
		adv = &adversary.RoundRobin{}
	}
	res, _, err := p.Run(protocol.Instance{N: n, T: (n - 1) / 2, K: k, Votes: votes, Seed: seed}, adv, maxSteps)
	return res, err
}

// coordinatorCrash crashes processor 0 right after its first broadcast,
// under an otherwise round-robin schedule: the crash 2PC cannot survive.
func coordinatorCrash() sim.Adversary {
	return &adversary.Crash{Inner: &adversary.RoundRobin{},
		Plan: []adversary.CrashPlan{{Proc: 0, AtClock: 1}}}
}

// AgreementRun configures one simulated agreement execution.
type AgreementRun struct {
	N         int
	T         int // default (N-1)/2
	Initial   []types.Value
	Shared    bool // true: Protocol 1 (a list of N coins); false: plain Ben-Or
	Seed      uint64
	Adversary sim.Adversary
	MaxSteps  int
	Record    bool
}

// RunAgreement executes Protocol 1 or Ben-Or under the simulator.
func RunAgreement(cfg AgreementRun) (*sim.Result, []*agreement.Machine, error) {
	if cfg.T == 0 {
		cfg.T = (cfg.N - 1) / 2
	}
	adv := cfg.Adversary
	if adv == nil {
		adv = &adversary.RoundRobin{}
	}
	var src agreement.CoinSource = agreement.LocalCoin{}
	if cfg.Shared {
		src = agreement.ListCoin{Coins: rng.NewStream(cfg.Seed ^ 0xC0175).Bits(cfg.N)}
	}
	ams, err := agreement.NewSet(agreement.Config{N: cfg.N, T: cfg.T, Coins: src, Gadget: true}, cfg.Initial)
	if err != nil {
		return nil, nil, err
	}
	res, err := sim.Run(sim.Config{
		K: 2, Machines: types.Machines(ams), Adversary: adv,
		Seeds:    rng.NewCollection(cfg.Seed, cfg.N),
		MaxSteps: cfg.MaxSteps, Record: cfg.Record,
	})
	if err != nil {
		return nil, nil, err
	}
	return res, ams, nil
}

// AllVotes returns n copies of v.
func AllVotes(n int, v types.Value) []types.Value {
	out := make([]types.Value, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// SplitVotes returns a maximally split input vector (alternating 1, 0).
func SplitVotes(n int) []types.Value {
	out := make([]types.Value, n)
	for i := range out {
		out[i] = types.Value((i + 1) % 2)
	}
	return out
}

// MaxStage returns the largest decided stage among the machines.
func MaxStage(ams []*agreement.Machine) int {
	max := 0
	for _, m := range ams {
		if s := m.DecidedStage(); s > max {
			max = s
		}
	}
	return max
}

// checkRun audits a finished commit run against every applicable §2.4
// condition; it returns an error on any violation.
func checkRun(votes []types.Value, res *sim.Result) error {
	onTime := false
	if res.Trace != nil {
		onTime = res.Trace.OnTime()
	}
	return trace.CheckAll(votes, res.Outcomes(), res.FailureFree(), onTime)
}
