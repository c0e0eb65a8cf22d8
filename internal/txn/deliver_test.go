package txn_test

import (
	"fmt"
	"hash/fnv"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/txn"
	"repro/internal/types"
)

// The scheduling-bug net for arrival-driven stepping: three managers
// (t = 1) under a seeded scheduler whose events are a clock tick (Step with
// everything that has arrived) or a delivery between ticks (Deliver with a
// random non-empty subset of it), over two or three overlapping width-2
// batches. The scheduler draws from its own seed and never looks inside a
// frame: content-oblivious.

const (
	schedN = 3
	schedK = 3
)

// schedMode is what a seed's schedule may do.
type schedMode int

const (
	// ticksOnly: no delivery events at all — the schedule the runtime ran
	// before deliveries existed.
	ticksOnly schedMode = iota
	// onTime: deliveries mixed in, every clock ticking together (the
	// runtime's tick gate), no frame in flight longer than K−1 receiver
	// ticks, so none waits more than K; no loss, no crash.
	onTime
	// free: clocks tick independently, frames may be lost or held for up to
	// 3K receiver ticks, and one processor may crash.
	free
)

type heldFrame struct {
	msg  types.Message
	hold int // receiver ticks left before the frame arrives
}

type schedRun struct {
	mode     schedMode
	sched    *rng.Stream
	coins    *rng.Collection
	managers []*txn.Manager
	flight   [][]heldFrame     // sent, not yet arrived, by receiver
	arrived  [][]types.Message // arrived, not yet handed over, by receiver
	crashed  []bool
	ticks    []int
	reported []map[txn.ID]types.Decision      // by node: what OnOutcome said
	hash     io.Writer                        // tick-only runs: the transcript's checksum
	observe  func(p int, out []types.Message) // if set, sees every output
}

func newSchedRun(t *testing.T, seed uint64, mode schedMode, votes map[txn.ID][]bool) *schedRun {
	r := &schedRun{
		mode:    mode,
		sched:   rng.NewStream(seed*2 + 1),
		coins:   rng.NewCollection(seed, schedN),
		flight:  make([][]heldFrame, schedN),
		arrived: make([][]types.Message, schedN),
		crashed: make([]bool, schedN),
		ticks:   make([]int, schedN),
	}
	for p := 0; p < schedN; p++ {
		p := p
		r.reported = append(r.reported, map[txn.ID]types.Decision{})
		mgr, err := txn.NewManager(txn.Config{
			ID: types.ProcID(p), N: schedN, K: schedK,
			Vote: func(id txn.ID) bool { return votes[id][p] },
			OnOutcome: func(o txn.Outcome) {
				if _, twice := r.reported[p][o.Txn]; twice {
					t.Errorf("node %d: %s reported twice", p, o.Txn)
				}
				r.reported[p][o.Txn] = o.Decision
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		r.managers = append(r.managers, mgr)
	}
	return r
}

// send puts p's output on the network.
func (r *schedRun) send(p int, out []types.Message) {
	if r.observe != nil {
		r.observe(p, out)
	}
	for _, msg := range out {
		msg.From = types.ProcID(p)
		if r.hash != nil {
			// Field by field: the envelope's three wire fields, as %v
			// printed them before it gained an unexported one.
			env := msg.Payload.(txn.BatchEnvelope)
			fmt.Fprintf(r.hash, "%d@%d>%d {%v %v %v}|", p, r.ticks[p], msg.To, env.Batch, env.Txns, env.Inner)
		}
		hold := 0
		switch r.mode {
		case onTime:
			hold = r.sched.Intn(schedK)
		case free:
			if r.sched.Intn(10) == 0 {
				continue // lost
			}
			hold = r.sched.Intn(3*schedK + 1)
		}
		if r.crashed[msg.To] {
			continue
		}
		if hold == 0 {
			r.arrived[msg.To] = append(r.arrived[msg.To], msg)
		} else {
			r.flight[msg.To] = append(r.flight[msg.To], heldFrame{msg, hold})
		}
	}
}

// tick is one clock tick of p: a Step with everything that has arrived,
// after which frames in flight to p are one tick nearer.
func (r *schedRun) tick(p int) {
	r.ticks[p]++
	in := r.arrived[p]
	r.arrived[p] = nil
	r.send(p, r.managers[p].Step(in, r.coins.Stream(types.ProcID(p))))
	kept := r.flight[p][:0]
	for _, f := range r.flight[p] {
		if f.hold--; f.hold == 0 {
			r.arrived[p] = append(r.arrived[p], f.msg)
		} else {
			kept = append(kept, f)
		}
	}
	r.flight[p] = kept
}

// deliver is one delivery event at p: a random non-empty subset of what has
// arrived, or — the runtime's Wake — nothing at all when wake is set.
func (r *schedRun) deliver(p int, wake bool) {
	var in, rest []types.Message
	if !wake {
		for _, msg := range r.arrived[p] {
			if r.sched.Intn(2) == 0 {
				in = append(in, msg)
			} else {
				rest = append(rest, msg)
			}
		}
		if len(in) == 0 {
			in, rest = rest[:1], rest[1:]
		}
		r.arrived[p] = rest
	}
	r.send(p, r.managers[p].Deliver(in, r.coins.Stream(types.ProcID(p))))
}

// live picks a random processor that has not crashed.
func (r *schedRun) live() int {
	for {
		if p := r.sched.Intn(schedN); !r.crashed[p] {
			return p
		}
	}
}

func TestSeededTickAndDeliverySchedulesContentOblivious(t *testing.T) {
	const seeds = 2400
	transcript, decisions := fnv.New64a(), fnv.New64a()
	for seed := uint64(0); seed < seeds; seed++ {
		if testing.Short() && seed >= seeds/4 && seed%4 != 0 {
			continue // -short keeps every tick-only seed: the checksum covers them all
		}
		mode := []schedMode{ticksOnly, onTime, free, free}[seed%4]
		plan := rng.NewStream(seed ^ 0x5eed)

		// Two or three width-2 batches, begun a few events apart so they
		// overlap, with random votes.
		type batch struct {
			id      txn.BatchID
			members []txn.ID
			coord   int
			at      int
		}
		var batches []batch
		var ids []txn.ID
		votes := map[txn.ID][]bool{}
		for b := 0; b < 2+plan.Intn(2); b++ {
			bt := batch{id: txn.BatchID(fmt.Sprintf("b%d", b)), coord: plan.Intn(schedN), at: b * plan.Intn(6)}
			for e := 0; e < 2; e++ {
				id := txn.ID(fmt.Sprintf("b%d-%d", b, e))
				bt.members = append(bt.members, id)
				ids = append(ids, id)
				votes[id] = make([]bool, schedN)
				for p := range votes[id] {
					votes[id][p] = plan.Intn(5) != 0
				}
			}
			batches = append(batches, bt)
		}
		crashAt := -1
		if mode == free && plan.Intn(2) == 0 {
			crashAt = plan.Intn(60)
		}

		r := newSchedRun(t, seed, mode, votes)
		if mode == ticksOnly {
			r.hash = transcript
		}
		done := func() bool {
			for p, mgr := range r.managers {
				if !r.crashed[p] && !mgr.Halted() {
					return false
				}
			}
			return len(batches) == 0
		}
		for ev := 0; ev < 1500 && !done(); ev++ {
			for len(batches) > 0 && batches[0].at <= ev {
				bt := batches[0]
				batches = batches[1:]
				if r.crashed[bt.coord] {
					continue
				}
				own := make([]bool, len(bt.members))
				for e, id := range bt.members {
					own[e] = votes[id][bt.coord]
				}
				if err := r.managers[bt.coord].BeginBatch(bt.id, bt.members, own); err != nil {
					t.Fatal(err)
				}
				if mode != ticksOnly && r.sched.Intn(2) == 0 {
					r.deliver(bt.coord, true)
				}
			}
			if ev == crashAt {
				p := r.live()
				r.crashed[p] = true
				r.arrived[p], r.flight[p] = nil, nil
			}
			p := r.live()
			switch {
			case mode != ticksOnly && len(r.arrived[p]) > 0 && r.sched.Intn(3) != 0:
				r.deliver(p, false)
			case mode == free:
				r.tick(p)
			default:
				// One clock: every processor ticks, starting anywhere.
				for i := 0; i < schedN; i++ {
					r.tick((p + i) % schedN)
				}
			}
		}

		for p, mgr := range r.managers {
			if mgr.Clock() != r.ticks[p] {
				t.Fatalf("seed %d: node %d Clock() = %d after %d ticks", seed, p, mgr.Clock(), r.ticks[p])
			}
		}
		for _, id := range ids {
			vs, allYes := votes[id], true
			for _, v := range vs {
				allYes = allYes && v
			}
			var agreed types.Decision
			for p, mgr := range r.managers {
				d, ok := mgr.DecisionOf(id)
				if rep, reported := r.reported[p][id]; reported != ok || rep != d {
					t.Fatalf("seed %d: node %d %s: OnOutcome said %v,%v but DecisionOf %v,%v", seed, p, id, rep, reported, d, ok)
				}
				if !ok {
					if mode != free {
						t.Fatalf("seed %d: node %d never decided %s in a run with no faults", seed, p, id)
					}
					continue
				}
				if agreed == types.DecisionNone {
					agreed = d
				}
				if d != agreed {
					t.Fatalf("seed %d: %s decided %v at node %d and %v elsewhere", seed, id, d, p, agreed)
				}
				if d == types.DecisionCommit && !allYes {
					t.Fatalf("seed %d: node %d committed %s against votes %v", seed, p, id, vs)
				}
				if d == types.DecisionAbort && allYes && mode != free {
					t.Fatalf("seed %d: node %d aborted all-yes %s though every frame was on time", seed, p, id)
				}
			}
			if r.hash != nil {
				fmt.Fprintf(io.MultiWriter(r.hash, decisions), "%s=%v|", id, agreed)
			}
		}
	}
	// Two sums over the tick-only seeds. What every transaction was decided
	// to be must not move when the messages that decide it change: this is
	// what these seeds' decisions hashed to at the commit before
	// decide-and-stop (29f20db).
	const decisionsSum = 0x2a5b3bdd71d49d41
	if got := decisions.Sum64(); got != decisionsSum {
		t.Errorf("tick-only decisions hash to %#x, the parent's to %#x", got, uint64(decisionsSum))
	}
	// The full transcript, frames included, is pinned so that any change to
	// what the managers send shows up here first. Re-pinned for
	// decide-and-stop: a processor whose last element decides at stage s
	// sends one DECIDED broadcast where its stage-s+1 report and proposal
	// rounds (and the DECIDED after them) used to go. Re-pinned for the
	// forced vote-wait exit: a processor holding an abort vote at every
	// element starts agreement at once instead of waiting for the rest of
	// the vote vectors.
	const transcriptSum = 0xcc40ee7391a714ce
	if got := transcript.Sum64(); got != transcriptSum {
		t.Errorf("tick-only transcripts hash to %#x, pinned %#x", got, uint64(transcriptSum))
	}
}

// BenchmarkDeliverOneFrame: the cost of one frame's delivery must not grow
// with what the manager merely holds. With RetireAfterTicks 64 a busy
// service manager keeps several hundred decided instances awaiting
// retirement; a per-arrival walk of them would cost more than the tick wait
// arrival-driven stepping saves. held=1000 must stay within 2× of held=0.
func BenchmarkDeliverOneFrame(b *testing.B) {
	for _, held := range []int{0, 1000} {
		b.Run(fmt.Sprintf("held=%d", held), func(b *testing.B) {
			mgr, err := txn.NewManager(txn.Config{ID: 1, N: 3, K: 1})
			if err != nil {
				b.Fatal(err)
			}
			rnd := rng.NewStream(9)
			// Halted instances: each joins on a peer's DECIDED frame, times
			// out its GO wait (2K ticks), starts agreement on the forced
			// input at once, adopts and halts.
			for i := 0; i < held; i++ {
				joinDecided(mgr, fmt.Sprintf("old%d", i), rnd)
			}
			for tick := 0; tick < 6; tick++ {
				mgr.Step(nil, rnd)
			}
			for i := 0; i < held; i++ {
				if _, ok := mgr.DecisionOf(txn.ID(fmt.Sprintf("old%d-m", i))); !ok {
					b.Fatalf("held instance %d never halted", i)
				}
			}
			// The live one has every GO and waits for votes; a repeated vote
			// runs its whole transition and changes nothing.
			var gos []types.Message
			for from := types.ProcID(0); from < 3; from++ {
				gos = append(gos, batchFrame("hot", from, core.GoMsg{Coins: []types.Value{1, 0, 1}}))
			}
			mgr.Deliver(gos, rnd)
			vote := []types.Message{batchFrame("hot", 0, core.BatchVoteMsg{Vals: []types.Value{1}})}
			if mgr.Active() != held+1 {
				b.Fatalf("holding %d instances, want %d", mgr.Active(), held+1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if out := mgr.Deliver(vote, rnd); len(out) != 0 {
					b.Fatalf("a repeated vote emitted %v", out)
				}
			}
		})
	}
}
