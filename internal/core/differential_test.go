package core_test

import (
	"fmt"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/types"
)

// diffCase is one seeded input of the batch-versus-scalar differential:
// a vote matrix and the parameters of one adversary. newAdversary builds
// a fresh instance per run, so the width-B batch and each of the B
// scalar runs face the same fault schedule (same victims, same held
// flows, same delay seed) over their own message patterns.
type diffCase struct {
	n, k  int
	votes [][]types.Value // votes[p][e]
	kind  string          // "crash", "late" or "random-async"

	crashes []adversary.CrashPlan
	late    []adversary.LatePlan
	dist    adversary.Dist
	advSeed uint64
}

func (c *diffCase) newAdversary() sim.Adversary {
	switch c.kind {
	case "crash":
		return &adversary.Crash{Inner: &adversary.RoundRobin{}, Plan: c.crashes}
	case "late":
		return &adversary.TargetedLate{Inner: &adversary.RoundRobin{}, Plan: c.late}
	default:
		return &adversary.RandomAsync{Seed: c.advSeed, Dist: c.dist, Cap: 3 * c.k}
	}
}

// coordinatorSilenced reports whether the plan crashes the coordinator
// before its vote can leave: at clock 0 it never steps, its GO never
// goes out and nobody ever hears of the run; at clock 1 the GO is out
// but its vote is not, so every survivor times the vote exchange out.
func (c *diffCase) coordinatorSilenced() bool {
	for _, cp := range c.crashes {
		if cp.Proc == 0 && cp.AtClock <= 1 {
			return true
		}
	}
	return false
}

func newDiffCase(seed uint64) *diffCase {
	r := rng.NewStream(seed)
	c := &diffCase{n: 3 + 2*r.Intn(2), k: 3, advSeed: seed}
	width := 1 + r.Intn(6)
	c.votes = make([][]types.Value, c.n)
	for p := range c.votes {
		c.votes[p] = make([]types.Value, width)
		for e := range c.votes[p] {
			c.votes[p][e] = types.V1
			if r.Intn(8) == 0 {
				c.votes[p][e] = types.V0
			}
		}
	}
	switch seed % 3 {
	case 0:
		c.kind = "crash"
		victims := r.Intn((c.n-1)/2 + 1) // up to t, possibly none
		for _, p := range []int{0, 2, 1}[:victims] {
			at := 1 + r.Intn(4*c.k)
			if p == 0 && r.Intn(2) == 0 {
				at = r.Intn(2)
			}
			c.crashes = append(c.crashes, adversary.CrashPlan{Proc: types.ProcID(p), AtClock: at})
		}
	case 1:
		c.kind = "late"
		for i := 0; i <= r.Intn(2); i++ {
			from := r.Intn(c.n)
			c.late = append(c.late, adversary.LatePlan{
				From: types.ProcID(from), To: types.ProcID((from + 1 + r.Intn(c.n-1)) % c.n),
				SkipFirst: r.Intn(3), HoldUntilClock: c.k + 1 + r.Intn(3*c.k),
			})
		}
	default:
		c.kind = "random-async"
		c.dist = adversary.Dists()[r.Intn(len(adversary.Dists()))]
	}
	return c
}

// diffRun is one simulated run reduced to what Theorem 11 speaks about,
// plus, for a batch run, whether some processor's vote wait ended on the
// forced exit.
type diffRun struct {
	outcomes    [][]trace.Outcome // per element, per processor
	failureFree bool
	onTime      bool
	exhausted   bool
	forcedExit  bool
}

// exitWatch is a batch machine seen from outside: it records whether the
// vote wait ended because the input was forced — agreement started with
// fewer than n vote vectors in hand, less than 2K ticks after the
// processor's own vote left.
type exitWatch struct {
	*core.BatchCommit
	n, k    int
	voters  map[types.ProcID]bool
	votedAt int // clock of the vote broadcast; -1 before it
	forced  bool
}

func (w *exitWatch) Step(received []types.Message, rnd types.Rand) []types.Message {
	for _, m := range received {
		if isVote(m) {
			w.voters[m.From] = true
		}
	}
	started := w.Agreement() != nil
	out := w.BatchCommit.Step(received, rnd)
	for _, m := range out {
		if w.votedAt < 0 && isVote(m) {
			w.votedAt = w.Clock()
		}
	}
	if !started && w.Agreement() != nil && len(w.voters) < w.n && w.Clock()-w.votedAt < 2*w.k {
		w.forced = true
	}
	return out
}

func isVote(m types.Message) bool {
	inner, _ := core.Unwrap(m.Payload)
	_, ok := inner.(core.BatchVoteMsg)
	return ok
}

const diffMaxSteps = 20_000

func (c *diffCase) runBatch(t *testing.T) diffRun {
	t.Helper()
	machines := make([]types.Machine, c.n)
	ws := make([]*exitWatch, c.n)
	for p := range machines {
		m, err := core.NewBatch(core.BatchConfig{
			ID: types.ProcID(p), N: c.n, T: (c.n - 1) / 2, K: c.k,
			Votes: c.votes[p],
		})
		if err != nil {
			t.Fatal(err)
		}
		ws[p] = &exitWatch{BatchCommit: m, n: c.n, k: c.k, voters: map[types.ProcID]bool{}, votedAt: -1}
		machines[p] = ws[p]
	}
	res := c.simulate(t, machines)
	run := c.reduce(res)
	for _, w := range ws {
		run.forcedExit = run.forcedExit || w.forced
	}
	for e := range c.votes[0] {
		out := make([]trace.Outcome, c.n)
		for p, m := range ws {
			d, ok := m.OutcomeAt(e)
			out[p] = trace.Outcome{Decided: ok, Crashed: res.Crashed[p]}
			if d == types.DecisionCommit {
				out[p].Value = types.V1
			}
			if err := m.Violation(); err != nil {
				t.Fatalf("batch proc %d: %v", p, err)
			}
		}
		run.outcomes = append(run.outcomes, out)
	}
	return run
}

func (c *diffCase) runScalar(t *testing.T, e int) diffRun {
	t.Helper()
	machines := make([]types.Machine, c.n)
	for p := range machines {
		m, err := core.New(core.Config{
			ID: types.ProcID(p), N: c.n, T: (c.n - 1) / 2, K: c.k,
			Vote: c.votes[p][e], Gadget: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		machines[p] = m
	}
	res := c.simulate(t, machines)
	run := c.reduce(res)
	run.outcomes = [][]trace.Outcome{res.Outcomes()}
	return run
}

func (c *diffCase) simulate(t *testing.T, machines []types.Machine) *sim.Result {
	t.Helper()
	res, err := sim.Run(sim.Config{
		K: c.k, Machines: machines, Adversary: c.newAdversary(),
		Seeds: rng.NewCollection(c.advSeed, c.n), MaxSteps: diffMaxSteps, Record: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func (c *diffCase) reduce(res *sim.Result) diffRun {
	return diffRun{
		failureFree: len(res.Trace.CrashedSet()) == 0,
		onTime:      res.Trace.OnTime(),
		exhausted:   res.Exhausted,
	}
}

func (c *diffCase) column(e int) []types.Value {
	col := make([]types.Value, c.n)
	for p := range col {
		col[p] = c.votes[p][e]
	}
	return col
}

// TestBatchVersusScalarDifferential runs core.BatchCommit at width B
// against B runs of core.Commit, the paper-faithful oracle, over seeded
// vote matrices under the crash, late-message and random-asynchronous
// adversaries. Both sides must satisfy Theorem 11 on every element —
// agreement, abort validity, and commit validity on failure-free on-time
// runs — and terminate whenever the coordinator got its GO out. The two
// machines see different message patterns, so their decisions may differ
// where the adversary decides; wherever the inputs force the answer they
// must be equal: any abort vote, or a coordinator silenced before its
// vote, forces ABORT; unanimous commit votes on a failure-free on-time
// run force COMMIT. The sweep also counts the seeds where some batch
// processor's vote wait ended on the forced exit (an abort vote in hand at
// every element), which the scalar oracle does not have.
func TestBatchVersusScalarDifferential(t *testing.T) {
	seeds := 90
	if testing.Short() {
		seeds = 18
	}
	forcedAborts, forcedCommits, free, forcedExits := 0, 0, 0, 0
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		c := newDiffCase(seed)
		name := fmt.Sprintf("seed %d (%s n=%d width=%d)", seed, c.kind, c.n, len(c.votes[0]))
		batch := c.runBatch(t)
		if batch.forcedExit {
			forcedExits++
		}
		for e := range c.votes[0] {
			scalar := c.runScalar(t, e)
			col := c.column(e)
			anyAbortVote := false
			for _, v := range col {
				anyAbortVote = anyAbortVote || v == types.V0
			}
			sides := []struct {
				name string
				run  diffRun
				out  []trace.Outcome
			}{{"batch", batch, batch.outcomes[e]}, {"scalar", scalar, scalar.outcomes[0]}}
			for _, s := range sides {
				if err := trace.CheckAll(col, s.out, s.run.failureFree, s.run.onTime); err != nil {
					t.Fatalf("%s element %d: %s violates Theorem 11: %v", name, e, s.name, err)
				}
				nobodyHeard := c.coordinatorSilenced() && c.crashes[0].AtClock == 0
				if s.run.exhausted != nobodyHeard {
					t.Fatalf("%s element %d: %s exhausted=%v, want %v", name, e, s.name, s.run.exhausted, nobodyHeard)
				}
			}

			var forced *types.Value
			switch {
			case anyAbortVote || c.coordinatorSilenced():
				forced = new(types.Value) // V0
				forcedAborts++
			case batch.failureFree && batch.onTime && scalar.failureFree && scalar.onTime:
				v := types.V1
				forced = &v
				forcedCommits++
			default:
				free++
				continue
			}
			for _, s := range sides {
				for p, o := range s.out {
					if o.Decided && o.Value != *forced {
						t.Fatalf("%s element %d: %s proc %d decided %v, inputs force %v",
							name, e, s.name, p, o.Value, *forced)
					}
				}
			}
		}
	}
	t.Logf("elements: forced abort %d, forced commit %d, adversary's choice %d; seeds with a forced vote-wait exit %d",
		forcedAborts, forcedCommits, free, forcedExits)
	// The sweep must actually visit all three regimes, and the batch
	// machine's forced exit from the vote wait.
	if forcedAborts == 0 || forcedCommits == 0 || free == 0 || forcedExits == 0 {
		t.Fatalf("regimes visited: forced abort %d, forced commit %d, adversary's choice %d; forced vote-wait exits %d",
			forcedAborts, forcedCommits, free, forcedExits)
	}
}
