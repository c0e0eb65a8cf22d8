package lowerbound

import (
	"bytes"
	"fmt"

	"repro/internal/types"
)

// VerifyLemma12 machine-checks Lemma 12 on concrete runs: if two
// executions start from configurations whose S-side states agree and apply
// schedules with equal S-projections — and the S-side never receives
// messages from outside S in either run — then every processor in S ends
// in the same state in both.
//
// The caller supplies the two schedules; this function replays both from
// fresh machine sets built by the two factories (which must agree on the
// S-side machines) and compares snapshots. The same per-processor random
// seeds are used in both runs, matching the paper's fixed collection F.
func VerifyLemma12(fa, fb types.Factory, seedMaster uint64, s map[types.ProcID]bool, sa, sb Schedule) error {
	if !EqualProjection(s, sa, sb) {
		return fmt.Errorf("lowerbound: schedules differ on S-projection; Lemma 12 does not apply")
	}
	xa, err := NewExecutor(fa, seedMaster)
	if err != nil {
		return err
	}
	xb, err := NewExecutor(fb, seedMaster)
	if err != nil {
		return err
	}
	if err := xa.Run(sa); err != nil {
		return fmt.Errorf("run A: %w", err)
	}
	if err := xb.Run(sb); err != nil {
		return fmt.Errorf("run B: %w", err)
	}
	for p := range s {
		if !s[p] {
			continue
		}
		snapA, err := xa.Snapshot(p)
		if err != nil {
			return err
		}
		snapB, err := xb.Snapshot(p)
		if err != nil {
			return err
		}
		if !bytes.Equal(snapA, snapB) {
			return fmt.Errorf("lowerbound: Lemma 12 violated: processor %d diverged\nA: %s\nB: %s",
				p, snapA, snapB)
		}
	}
	return nil
}

// VerifyKillInvisibility checks the operative content of Lemma 13(a): for
// a schedule σ in which processors in S receive no messages from outside
// S, the surgery kill(S̄, σ) is applicable and leaves every S-side state
// unchanged. The S̄-side is silenced by explicit failure steps, exactly as
// in the Theorem 14 construction.
func VerifyKillInvisibility(f types.Factory, seedMaster uint64, s map[types.ProcID]bool, sched Schedule) error {
	comp := complement(f, s)
	killed := Kill(comp, sched)
	return verifySurgery(f, seedMaster, s, sched, killed, "kill")
}

// VerifyDeafenInvisibility checks Lemma 13(b) analogously: deafen(S̄, σ)
// is applicable and S-side states are unchanged, provided σ delivered no
// S̄→S messages.
func VerifyDeafenInvisibility(f types.Factory, seedMaster uint64, s map[types.ProcID]bool, sched Schedule) error {
	comp := complement(f, s)
	deaf := Deafen(comp, sched)
	return verifySurgery(f, seedMaster, s, sched, deaf, "deafen")
}

func complement(f types.Factory, s map[types.ProcID]bool) map[types.ProcID]bool {
	machines, err := f()
	if err != nil {
		return nil
	}
	comp := make(map[types.ProcID]bool)
	for i := range machines {
		if !s[types.ProcID(i)] {
			comp[types.ProcID(i)] = true
		}
	}
	return comp
}

func verifySurgery(f types.Factory, seedMaster uint64, s map[types.ProcID]bool, orig, surgered Schedule, label string) error {
	// The surgery must preserve the S-projection by construction.
	if !EqualProjection(s, orig, surgered) {
		return fmt.Errorf("lowerbound: %s surgery changed the S-projection", label)
	}
	xa, err := NewExecutor(f, seedMaster)
	if err != nil {
		return err
	}
	if err := xa.Run(orig); err != nil {
		return fmt.Errorf("original run: %w", err)
	}
	xb, err := NewExecutor(f, seedMaster)
	if err != nil {
		return err
	}
	if err := xb.Run(surgered); err != nil {
		return fmt.Errorf("%s run not applicable: %w", label, err)
	}
	for p := range s {
		if !s[p] {
			continue
		}
		snapA, err := xa.Snapshot(p)
		if err != nil {
			return err
		}
		snapB, err := xb.Snapshot(p)
		if err != nil {
			return err
		}
		if !bytes.Equal(snapA, snapB) {
			return fmt.Errorf("lowerbound: %s surgery changed processor %d's state", label, p)
		}
	}
	return nil
}

// IsolatedScheduleOptions tunes GenerateIsolatedSchedule.
type IsolatedScheduleOptions struct {
	// Cycles is the number of round-robin cycles to schedule.
	Cycles int
	// DeliverWithin restricts deliveries to messages between processors
	// on the same side of the S / S̄ split.
	S map[types.ProcID]bool
}

// GenerateIsolatedSchedule produces an applicable schedule of the given
// length in which messages cross the S / S̄ boundary in neither direction
// — the precondition shared by the Lemma 13 checks. Processors step in
// round-robin order; every intra-group message is delivered at the
// earliest following step of its recipient.
func GenerateIsolatedSchedule(f types.Factory, seedMaster uint64, opt IsolatedScheduleOptions) (Schedule, error) {
	x, err := NewExecutor(f, seedMaster)
	if err != nil {
		return nil, err
	}
	n := x.N()
	var sched Schedule
	for c := 0; c < opt.Cycles; c++ {
		for p := 0; p < n; p++ {
			proc := types.ProcID(p)
			var sources []int
			for _, e := range x.PendingFor(proc) {
				// Deliver only same-side messages. The sender of event e
				// is the acting processor of that event.
				sender := sched[e].Proc
				if opt.S[sender] == opt.S[proc] {
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
