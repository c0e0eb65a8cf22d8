package lowerbound

import "repro/internal/types"

// Direction labels which way intergroup messages flow within a phase of
// the Theorem 14 construction.
type Direction int

// Phase directions, relative to a partition (S, S̄).
const (
	// FlowNone means the phase delivered no intergroup messages.
	FlowNone Direction = 0
	// FlowIntoS means messages crossed from S̄ into S.
	FlowIntoS Direction = 1
	// FlowOutOfS means messages crossed from S into S̄.
	FlowOutOfS Direction = -1
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case FlowIntoS:
		return "into-S"
	case FlowOutOfS:
		return "out-of-S"
	default:
		return "none"
	}
}

// Phase is a maximal schedule segment in which all received intergroup
// messages flow in one direction — the unit the Theorem 14 proof
// manipulates ("define a phase to be a schedule consisting of one or more
// semicycles in which all intergroup messages received flow in the same
// direction").
type Phase struct {
	Events    Schedule
	Direction Direction
}

// DecomposePhases splits a schedule into phases relative to the partition
// S / S̄. Delivery direction is derived from the source events: event e's
// delivery of a message sent at event e' crosses the boundary when the
// acting processors of e and e' are on different sides. The decomposition
// is greedy: a phase extends until a delivery in the opposite direction
// appears. Concatenating the returned phases yields the input schedule.
//
// The paper cuts at semicycle granularity; this implementation cuts at
// event granularity (finer, same alternation structure), which is all the
// surgery lemmas need.
func DecomposePhases(sched Schedule, s map[types.ProcID]bool) []Phase {
	var phases []Phase
	var cur Phase
	flush := func() {
		if len(cur.Events) > 0 {
			phases = append(phases, cur)
			cur = Phase{}
		}
	}
	for i, ev := range sched {
		dir := eventDirection(sched, i, s)
		switch {
		case dir == FlowNone:
			// Direction-free events extend any phase.
		case cur.Direction == FlowNone:
			cur.Direction = dir
		case dir != cur.Direction:
			flush()
			cur.Direction = dir
		}
		cur.Events = append(cur.Events, ev)
	}
	flush()
	return phases
}

// eventDirection classifies event i's deliveries relative to S.
func eventDirection(sched Schedule, i int, s map[types.ProcID]bool) Direction {
	ev := sched[i]
	if ev.Fail {
		return FlowNone
	}
	dir := FlowNone
	for _, src := range ev.Sources {
		if src < 0 || src >= len(sched) {
			continue
		}
		sender := sched[src].Proc
		if s[sender] == s[ev.Proc] {
			continue // intra-group
		}
		var d Direction
		if s[ev.Proc] {
			d = FlowIntoS
		} else {
			d = FlowOutOfS
		}
		if dir == FlowNone {
			dir = d
		} else if dir != d {
			// Mixed-direction single event: the paper's phases cannot
			// contain it; classify by the first flow (the decomposer
			// will still cut before the next conflicting event).
			return dir
		}
	}
	return dir
}

// GenerateAlternatingSchedule produces an applicable schedule whose
// intergroup deliveries alternate direction phase by phase, exercising
// the Theorem 14 phase structure on real machines: cycles of round-robin
// steps where odd cycles deliver only S̄→S traffic and even cycles only
// S→S̄ traffic (intra-group traffic flows freely).
func GenerateAlternatingSchedule(f types.Factory, seedMaster uint64, s map[types.ProcID]bool, cycles int) (Schedule, error) {
	x, err := NewExecutor(f, seedMaster)
	if err != nil {
		return nil, err
	}
	n := x.N()
	var sched Schedule
	for c := 0; c < cycles; c++ {
		allowIntoS := c%2 == 0
		for p := 0; p < n; p++ {
			proc := types.ProcID(p)
			var sources []int
			for _, e := range x.PendingFor(proc) {
				sender := sched[e].Proc
				sameSide := s[sender] == s[proc]
				crossesIntoS := !sameSide && s[proc]
				crossesOutOfS := !sameSide && !s[proc]
				if sameSide || (allowIntoS && crossesIntoS) || (!allowIntoS && crossesOutOfS) {
					sources = append(sources, e)
				}
			}
			ev := Event{Proc: proc, Sources: sources}
			if err := x.Apply(ev); err != nil {
				return nil, err
			}
			sched = append(sched, ev)
		}
	}
	return sched, nil
}
