package tcommit

import (
	"fmt"
	"io"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/rounds"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/types"
)

// SimResult reports one simulated run.
type SimResult struct {
	// Decisions[p] is p's outcome (None if it never decided).
	Decisions []Decision
	// Crashed[p] reports whether the fault schedule crashed p.
	Crashed []bool
	// Steps is the total number of scheduler events.
	Steps int
	// Blocked is true when some nonfaulty processor never decided within
	// the step budget (expected when more than T processors crash).
	Blocked bool
	// OnTime reports whether the run contained no late messages (§2.2).
	OnTime bool
	// Rounds is the asynchronous round by which the last nonfaulty
	// processor decided (0 if blocked).
	Rounds int
	// MaxDecisionClock is the largest clock value at which a processor
	// decided (-1 if none).
	MaxDecisionClock int
	// Messages is the number of messages sent.
	Messages int
}

// Unanimous returns the common decision, or (None, false) if undecided or
// split (a split would violate the protocol's agreement guarantee and is
// checked against in Simulate).
func (r *SimResult) Unanimous() (Decision, bool) {
	var d Decision
	for p, dp := range r.Decisions {
		if r.Crashed[p] && dp == None {
			continue
		}
		if dp == None {
			return None, false
		}
		if d == None {
			d = dp
		} else if d != dp {
			return None, false
		}
	}
	if d == None {
		return None, false
	}
	return d, true
}

// SimOption customizes a simulation.
type SimOption func(*simSettings)

type simSettings struct {
	adversary   sim.Adversary
	crashes     []adversary.CrashPlan
	partition   *adversary.Partition
	maxSteps    int
	traceWriter io.Writer
}

// WithRandomScheduling drives the run with a chaotic but fair scheduler
// seeded independently of the protocol's coins.
func WithRandomScheduling(seed uint64) SimOption {
	return func(s *simSettings) {
		s.adversary = &adversary.Random{Rand: rng.NewStream(seed)}
	}
}

// WithBoundedDelay delays every message until its recipient has taken d
// steps since the send. Values above K make every message late.
func WithBoundedDelay(d int) SimOption {
	return func(s *simSettings) { s.adversary = &adversary.BoundedDelay{D: d} }
}

// WithCrash schedules processor p to crash when its clock reaches c
// (c = 0 crashes it before its first step).
func WithCrash(p ProcID, c int) SimOption {
	return func(s *simSettings) {
		s.crashes = append(s.crashes, adversary.CrashPlan{Proc: p, AtClock: c})
	}
}

// WithLateMessage makes the flow from one processor to another late: the
// first skipFirst messages pass normally; later ones are withheld until
// the recipient's clock reaches holdUntilClock. This is the paper's "a
// single late message" scenario — against 2PC/3PC it flips the answer
// (see EXPERIMENTS.md E7); against this protocol it can only surface as
// a safe abort.
func WithLateMessage(from, to ProcID, skipFirst, holdUntilClock int) SimOption {
	return func(s *simSettings) {
		base := s.adversary
		if base == nil {
			base = &adversary.RoundRobin{}
		}
		s.adversary = &adversary.TargetedLate{
			Inner: base,
			Plan: []adversary.LatePlan{{
				From: from, To: to, SkipFirst: skipFirst, HoldUntilClock: holdUntilClock,
			}},
		}
	}
}

// WithPartition splits processors into two groups (by groupOf[p]) whose
// cross traffic is withheld until the healEvent-th scheduler event
// (healEvent < 0: never).
func WithPartition(groupOf []int, healEvent int) SimOption {
	return func(s *simSettings) {
		s.partition = &adversary.Partition{GroupOf: groupOf, HealEvent: healEvent}
	}
}

// WithStepBudget bounds the run length (default 200000 events).
func WithStepBudget(steps int) SimOption {
	return func(s *simSettings) { s.maxSteps = steps }
}

// WithTraceWriter streams the recorded run as JSON to w after the
// simulation finishes; render it with cmd/tracedump.
func WithTraceWriter(w io.Writer) SimOption {
	return func(s *simSettings) { s.traceWriter = w }
}

// Simulate runs the protocol once under the formal model. votes[p] = true
// means processor p wants to commit. The run is deterministic in
// (cfg.Seed, votes, options).
func Simulate(cfg Config, votes []bool, opts ...SimOption) (*SimResult, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	vals, err := votesToValues(cfg.N, votes)
	if err != nil {
		return nil, err
	}
	var settings simSettings
	for _, o := range opts {
		o(&settings)
	}
	adv := settings.adversary
	if adv == nil {
		adv = &adversary.RoundRobin{}
	}
	if settings.partition != nil {
		settings.partition.Inner = adv
		adv = settings.partition
	}
	if len(settings.crashes) > 0 {
		adv = &adversary.Crash{Inner: adv, Plan: settings.crashes}
	}

	set, err := core.NewSet(core.Config{N: cfg.N, T: cfg.T, K: cfg.K, CoinFactor: cfg.CoinFactor, Gadget: true}, vals)
	if err != nil {
		return nil, err
	}
	res, err := sim.Run(sim.Config{
		K:         cfg.K,
		Machines:  types.Machines(set),
		Adversary: adv,
		Seeds:     rng.NewCollection(cfg.Seed, cfg.N),
		MaxSteps:  settings.maxSteps,
		Record:    true,
	})
	if err != nil {
		return nil, err
	}

	// The protocol's core guarantee is machine-checked on every simulated
	// run: a violation here is a bug, not a user error.
	if vErr := trace.CheckAgreement(res.Outcomes()); vErr != nil {
		return nil, fmt.Errorf("tcommit: internal protocol violation: %w", vErr)
	}

	out := &SimResult{
		Decisions:        make([]Decision, cfg.N),
		Crashed:          append([]bool(nil), res.Crashed...),
		Steps:            res.Steps,
		Blocked:          !res.AllNonfaultyDecided(),
		OnTime:           res.Trace.OnTime(),
		MaxDecisionClock: res.MaxDecidedClock(),
		Messages:         res.Trace.Stats().Sent,
	}
	for p := 0; p < cfg.N; p++ {
		if res.Decided[p] {
			out.Decisions[p] = types.DecisionOf(res.Values[p])
		}
	}
	if !out.Blocked {
		if an, aErr := rounds.Analyze(res.Trace, 0); aErr == nil {
			if r, ok := an.DecisionRound(res.DecidedClock); ok {
				out.Rounds = r
			}
		}
	}
	if settings.traceWriter != nil {
		if wErr := res.Trace.WriteJSON(settings.traceWriter); wErr != nil {
			return nil, fmt.Errorf("tcommit: write trace: %w", wErr)
		}
	}
	return out, nil
}
