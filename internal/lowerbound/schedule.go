// Package lowerbound implements the stronger model of the paper's lower
// bound sections (§4–§5) — lockstep round-robin processors with explicit
// failure steps — together with the schedule-surgery operators kill(S, σ)
// and deafen(S, σ) the Theorem 14 proof manipulates, and replay machinery
// that machine-checks Lemmas 12 and 13 on the actual protocol code.
//
// Messages are identified positionally, as in the paper's message
// patterns: a delivery names the indices of the earlier events whose sends
// it receives. That makes a schedule a pure pattern object that can be
// replayed against different initial configurations — the heart of the
// indistinguishability arguments.
package lowerbound

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/types"
)

// Event is one event of the lower-bound model: either a normal step in
// which Proc receives the messages sent to it at the events indexed by
// Sources, or an explicit failure step (p, ⊥).
type Event struct {
	Proc types.ProcID
	// Sources lists indices of earlier events; the step delivers every
	// message those events sent to Proc.
	Sources []int
	// Fail makes this a failure step; Sources must be empty.
	Fail bool
}

// Schedule is a finite sequence of events.
type Schedule []Event

// Kill returns kill(S, σ): every event of a processor in S becomes a
// failure step (the paper replaces (p, *, f) with (p, ⊥, f)).
func Kill(s map[types.ProcID]bool, sched Schedule) Schedule {
	out := make(Schedule, len(sched))
	for i, e := range sched {
		if s[e.Proc] {
			out[i] = Event{Proc: e.Proc, Fail: true}
		} else {
			out[i] = e
		}
	}
	return out
}

// Deafen returns deafen(S, σ): every event of a processor in S receives
// the empty message set (the paper replaces (p, *, f) with (p, ∅, f)).
// Failure steps are preserved.
func Deafen(s map[types.ProcID]bool, sched Schedule) Schedule {
	out := make(Schedule, len(sched))
	for i, e := range sched {
		if s[e.Proc] && !e.Fail {
			out[i] = Event{Proc: e.Proc}
		} else {
			out[i] = e
		}
	}
	return out
}

// Restrict returns σ|S: the subsequence of events involving processors in
// S (the paper's projection used in Lemma 12).
func Restrict(s map[types.ProcID]bool, sched Schedule) Schedule {
	var out Schedule
	for _, e := range sched {
		if s[e.Proc] {
			out = append(out, e)
		}
	}
	return out
}

// EqualProjection reports whether σ|S and τ|S are identical event
// sequences (same processors, same source sets, same failure flags).
func EqualProjection(s map[types.ProcID]bool, a, b Schedule) bool {
	ra, rb := Restrict(s, a), Restrict(s, b)
	if len(ra) != len(rb) {
		return false
	}
	for i := range ra {
		if ra[i].Proc != rb[i].Proc || ra[i].Fail != rb[i].Fail {
			return false
		}
		if len(ra[i].Sources) != len(rb[i].Sources) {
			return false
		}
		for j := range ra[i].Sources {
			if ra[i].Sources[j] != rb[i].Sources[j] {
				return false
			}
		}
	}
	return true
}

// Executor replays a schedule against a configuration. It mirrors §4's
// model: events apply in order; failure steps silence a processor; message
// delivery is by source-event index.
type Executor struct {
	machines []types.Machine
	seeds    *rng.Collection
	// sentTo[e] holds the messages sent at event e keyed by recipient.
	sentTo []map[types.ProcID][]types.Message
	failed []bool
	// delivered[e][p] marks that p already received event e's messages
	// (a message buffer is a set: delivery removes it).
	delivered []map[types.ProcID]bool
	// EnforceTurn requires events to follow round-robin order p1..pn
	// (the turn component of §4). Off by default.
	EnforceTurn bool
	turn        int
}

// NewExecutor builds an executor over fresh machines.
func NewExecutor(f types.Factory, seedMaster uint64) (*Executor, error) {
	machines, err := f()
	if err != nil {
		return nil, err
	}
	if len(machines) == 0 {
		return nil, fmt.Errorf("lowerbound: factory produced no machines")
	}
	return &Executor{
		machines: machines,
		seeds:    rng.NewCollection(seedMaster, len(machines)),
		failed:   make([]bool, len(machines)),
	}, nil
}

// N returns the number of processors.
func (x *Executor) N() int { return len(x.machines) }

// Machine returns processor p's machine.
func (x *Executor) Machine(p types.ProcID) types.Machine { return x.machines[p] }

// Failed reports whether p has taken a failure step.
func (x *Executor) Failed(p types.ProcID) bool { return x.failed[p] }

// Events returns the number of events applied so far.
func (x *Executor) Events() int { return len(x.sentTo) }

// PendingFor lists the event indices whose messages to p are still
// undelivered.
func (x *Executor) PendingFor(p types.ProcID) []int {
	var out []int
	for e := range x.sentTo {
		if len(x.sentTo[e][p]) == 0 || x.delivered[e][p] {
			continue
		}
		out = append(out, e)
	}
	return out
}

// Apply executes one event. It returns an error if the event is not
// applicable (per the paper: every referenced message must be in the
// buffer, a failed processor may only take failure steps, and the turn
// order must be respected when enforced).
func (x *Executor) Apply(ev Event) error {
	n := len(x.machines)
	if int(ev.Proc) < 0 || int(ev.Proc) >= n {
		return fmt.Errorf("lowerbound: event for invalid processor %d", ev.Proc)
	}
	if x.EnforceTurn && int(ev.Proc) != x.turn {
		return fmt.Errorf("lowerbound: turn violation: event for %d, turn is %d", ev.Proc, x.turn)
	}
	if x.failed[ev.Proc] && !ev.Fail {
		return fmt.Errorf("lowerbound: failed processor %d must take failure steps", ev.Proc)
	}

	idx := len(x.sentTo)
	x.sentTo = append(x.sentTo, map[types.ProcID][]types.Message{})
	x.delivered = append(x.delivered, map[types.ProcID]bool{})
	if x.EnforceTurn {
		x.turn = (x.turn + 1) % n
	}

	if ev.Fail {
		if len(ev.Sources) != 0 {
			return fmt.Errorf("lowerbound: failure step with deliveries")
		}
		x.failed[ev.Proc] = true
		return nil
	}

	var received []types.Message
	for _, e := range ev.Sources {
		if e < 0 || e >= idx {
			return fmt.Errorf("lowerbound: source event %d out of range", e)
		}
		msgs := x.sentTo[e][ev.Proc]
		if len(msgs) == 0 {
			return fmt.Errorf("lowerbound: event %d sent nothing to %d (schedule not applicable)", e, ev.Proc)
		}
		if x.delivered[e][ev.Proc] {
			return fmt.Errorf("lowerbound: event %d already delivered to %d", e, ev.Proc)
		}
		x.delivered[e][ev.Proc] = true
		received = append(received, msgs...)
	}

	out := x.machines[ev.Proc].Step(received, x.seeds.Stream(ev.Proc))
	for i := range out {
		m := out[i]
		m.SentEvent = idx
		x.sentTo[idx][m.To] = append(x.sentTo[idx][m.To], m)
	}
	return nil
}

// Run applies a whole schedule, stopping at the first inapplicable event.
func (x *Executor) Run(sched Schedule) error {
	for i, ev := range sched {
		if err := x.Apply(ev); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
	}
	return nil
}

// Snapshot returns the deterministic state encoding of processor p, or an
// error if its machine does not support snapshots.
func (x *Executor) Snapshot(p types.ProcID) ([]byte, error) {
	s, ok := x.machines[p].(types.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("lowerbound: machine %d does not implement Snapshotter", p)
	}
	return s.Snapshot(), nil
}
