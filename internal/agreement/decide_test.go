package agreement_test

import (
	"fmt"
	"testing"

	"repro/internal/adversary"
	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/types"
)

// stopWatch runs a VectorMachine in the simulator and checks, step
// by step, what decide-and-stop promises: the machine halts in the very
// step its last element decides, sends one DECIDED broadcast, and sends
// no frame of a later stage than the one it decided in.
type stopWatch struct {
	*agreement.VectorMachine
	t *testing.T

	decidedIn int // stage of the last element's decision; 0 until then
	decidedTo []int
	bursts    int  // steps that sent DECIDED
	adopted   bool // halted on a peer's DECIDED
}

// Decision implements types.Machine: decided once every element has.
func (w *stopWatch) Decision() (types.Value, bool) {
	if w.DecidedCount() < w.Width() {
		return 0, false
	}
	return types.V1, true
}

func (w *stopWatch) Step(received []types.Message, rnd types.Rand) []types.Message {
	was := w.Halted()
	out := w.VectorMachine.Step(received, rnd)
	all := w.DecidedCount() == w.Width()
	if w.Halted() != all {
		w.t.Errorf("proc %d: halted=%v with %d of %d elements decided", w.ID(), w.Halted(), w.DecidedCount(), w.Width())
	}
	if all && w.decidedIn == 0 {
		w.decidedIn = w.Stage()
		for _, m := range received {
			_, peer := m.Payload.(agreement.VecDecidedMsg)
			w.adopted = w.adopted || (peer && !was)
		}
	}
	sentDecided := false
	for _, m := range out {
		stage := 0
		switch p := m.Payload.(type) {
		case agreement.VecDecidedMsg:
			sentDecided = true
			w.decidedTo = append(w.decidedTo, int(m.To))
		case agreement.VecReportMsg:
			stage = p.Stage
		case agreement.VecProposalMsg:
			stage = p.Stage
		}
		if w.decidedIn > 0 && stage > w.decidedIn {
			w.t.Errorf("proc %d: sent %v after deciding every element at stage %d", w.ID(), m.Payload, w.decidedIn)
		}
	}
	if sentDecided {
		w.bursts++
	}
	return out
}

// TestDecideAndStopContentOblivious: a vector machine stops the
// moment its last element decides, and its DECIDED broadcast replaces the
// stage-s+1 rounds — under round-robin, random-asynchronous and crashing
// schedules, none of which reads a payload. Theorem 11's agreement and
// validity hold per element, and a failure-free on-time width-1 batch at
// n = 3 costs at most 45 frames (63 when the machine waited for the
// decision to recur).
func TestDecideAndStopContentOblivious(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 2
	}
	const k = 3
	runs, crashes, adopted, later := 0, 0, 0, 0
	for _, n := range []int{3, 5} {
		faults := (n - 1) / 2
		for width := 1; width <= 6; width++ {
			for _, kind := range []string{"round-robin", "random-async", "crash"} {
				for s := 0; s < seeds; s++ {
					seed := uint64(1000*n + 100*width + 10*s + len(kind))
					name := fmt.Sprintf("n=%d width=%d %s seed=%d", n, width, kind, seed)
					r := rng.NewStream(seed)
					initials := make([][]types.Value, n)
					for p := range initials {
						initials[p] = make([]types.Value, width)
						for e := range initials[p] {
							// Even elements unanimous, odd ones split at random.
							initials[p][e] = types.Value(e / 2 % 2)
							if e%2 == 1 {
								initials[p][e] = types.Value(r.Intn(2))
							}
						}
					}
					coins := agreement.ListCoin{Coins: r.Bits(n)}
					watches := make([]*stopWatch, n)
					machines := make([]types.Machine, n)
					for p := range machines {
						m, err := agreement.NewVector(agreement.VectorConfig{
							ID: types.ProcID(p), N: n, T: faults,
							Initial: initials[p], Coins: coins,
						})
						if err != nil {
							t.Fatal(err)
						}
						watches[p] = &stopWatch{VectorMachine: m, t: t}
						machines[p] = watches[p]
					}
					var adv sim.Adversary
					switch kind {
					case "round-robin":
						adv = &adversary.RoundRobin{}
					case "random-async":
						adv = &adversary.RandomAsync{Seed: seed, Dist: adversary.Dists()[s%3], Cap: 3 * k}
					default:
						var plan []adversary.CrashPlan
						first := r.Intn(n)
						for i := 1 + r.Intn(faults); i > 0; i-- {
							p := types.ProcID((first + i) % n)
							plan = append(plan, adversary.CrashPlan{Proc: p, AtClock: r.Intn(6)})
						}
						adv = &adversary.Crash{Inner: &adversary.RoundRobin{}, Plan: plan}
					}
					res, err := sim.Run(sim.Config{
						K: k, Machines: machines, Adversary: adv, Seeds: rng.NewCollection(seed, n),
						Stop: sim.StopWhenHalted, MaxSteps: 20_000,
					})
					if err != nil {
						t.Fatal(err)
					}
					if res.Exhausted {
						t.Fatalf("%s: live machines never halted", name)
					}
					runs++
					for e := 0; e < width; e++ {
						col := make([]types.Value, n)
						outs := make([]trace.Outcome, n)
						for p, w := range watches {
							col[p] = initials[p][e]
							v, ok := w.DecidedAt(e)
							outs[p] = trace.Outcome{Decided: ok, Value: v, Crashed: res.Crashed[p]}
						}
						if err := trace.CheckAgreement(outs); err != nil {
							t.Fatalf("%s element %d: %v", name, e, err)
						}
						if err := trace.CheckAgreementValidity(col, outs); err != nil {
							t.Fatalf("%s element %d: %v", name, e, err)
						}
					}
					for p, w := range watches {
						if res.Crashed[p] {
							crashes++
						}
						if w.adopted {
							adopted++
						}
						if w.decidedIn > 1 {
							later++
						}
						if err := w.Violation(); err != nil {
							t.Fatalf("%s proc %d: %v", name, p, err)
						}
						if res.Crashed[p] && !w.Halted() {
							continue // crashed before it could finish
						}
						if w.bursts != 1 || len(w.decidedTo) != n {
							t.Fatalf("%s proc %d: DECIDED sent in %d steps to %v, want one broadcast to all %d",
								name, p, w.bursts, w.decidedTo, n)
						}
						if w.Stage() != w.decidedIn {
							t.Fatalf("%s proc %d: halted in stage %d, last element decided in stage %d", name, p, w.Stage(), w.decidedIn)
						}
					}
				}
			}
		}
	}
	t.Logf("%d runs: %d crashed processors, %d halted on a peer's DECIDED, %d decided after stage 1", runs, crashes, adopted, later)
	if crashes == 0 || adopted == 0 || later == 0 {
		t.Fatal("the sweep must crash processors, halt some on a peer's DECIDED and run some past stage 1")
	}

	// The frame budget of one batch: GO flood and relays, votes, one stage's
	// reports and proposals, one DECIDED broadcast each — 5n² at n = 3.
	const n = 3
	machines := make([]types.Machine, n)
	for p := range machines {
		m, err := core.NewBatch(core.BatchConfig{
			ID: types.ProcID(p), N: n, T: 1, K: k, Votes: []types.Value{types.V1},
		})
		if err != nil {
			t.Fatal(err)
		}
		machines[p] = m
	}
	res, err := sim.Run(sim.Config{
		K: k, Machines: machines, Adversary: &adversary.RoundRobin{}, Seeds: rng.NewCollection(1, n),
		Stop: sim.StopWhenHalted, Record: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FailureFree() || !res.Trace.OnTime() {
		t.Fatal("the round-robin run is not failure-free and on time")
	}
	for p := range machines {
		if !res.Decided[p] || res.Values[p] != types.V1 {
			t.Fatalf("proc %d: decided=%v value=%v, want COMMIT", p, res.Decided[p], res.Values[p])
		}
	}
	if sent := res.Trace.Stats().Sent; sent > 45 {
		t.Fatalf("a failure-free on-time width-1 batch at n = 3 sent %d frames, want at most 45", sent)
	}
}
