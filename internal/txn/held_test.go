package txn_test

import (
	"fmt"
	"testing"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/obs/span"
	"repro/internal/rng"
	"repro/internal/txn"
	"repro/internal/types"
)

// batchFrame builds a frame of batch's width-1 instance (member
// "<batch>-m") for node 1, carrying the coins a participant needs to join.
func batchFrame(batch string, from types.ProcID, inner types.Payload) types.Message {
	return types.Message{From: from, To: 1, Payload: txn.BatchEnvelope{
		Batch: txn.BatchID(batch), Txns: []txn.ID{txn.ID(batch + "-m")},
		Inner: core.Piggyback{Inner: inner, Coins: []types.Value{1, 0, 1}},
	}}
}

// joinDecided makes mgr join batch on a peer's DECIDED frame: with no other
// peer heard from it times out its GO wait (2K ticks), and the demoted vote
// forces its input, so agreement starts on that tick; it adopts the decision
// and halts — a held instance made from one frame.
func joinDecided(mgr *txn.Manager, batch string, rnd types.Rand) {
	mgr.Deliver([]types.Message{batchFrame(batch, 0, agreement.VecDecidedMsg{Vals: []types.Value{1}})}, rnd)
}

// TestTickVisitsOnlyRunningContentOblivious: a tick costs what is running,
// not what is held, and the split changes nothing a tick used to decide.
// Node 1 of 3 (K = 1) holds 1 000 instances that halted in four waves and
// wait out RetireAfter, between one running instance begun before them and
// one begun after; neither can finish (no peer answers), so MaxAge abandons
// both. Every Step in between advanced exactly the two, every held instance
// retired on tick haltedAt+RetireAfter in creation order, a straggler for a
// halted instance is dropped without a trace, and the tick that both
// abandons the older runner and retires a wave created after it lays their
// tombstones in creation order.
func TestTickVisitsOnlyRunningContentOblivious(t *testing.T) {
	const (
		waves, perWave = 4, 250
		retireAfter    = 64
		// The tick wave 2 retires on (see the geometry check below).
		maxAge   = 71
		hotBegun = 12
	)
	spans := span.NewCollectorClock(1<<16, func() int64 { return 0 })
	decidedAt := map[txn.ID]int{}
	var mgr *txn.Manager
	mgr, err := txn.NewManager(txn.Config{
		ID: 1, N: 3, K: 1, RetireAfter: retireAfter, MaxAge: maxAge, Spans: spans,
		OnOutcome: func(o txn.Outcome) {
			if o.Decision != types.DecisionCommit {
				t.Errorf("%s decided %v, want the adopted COMMIT", o.Txn, o.Decision)
			}
			decidedAt[o.Txn] = mgr.Clock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rnd := rng.NewStream(9)
	member := func(i int) txn.ID { return txn.ID(fmt.Sprintf("old%d-m", i)) }

	if err := mgr.Begin("early-m", true); err != nil {
		t.Fatal(err)
	}
	step := func(in []types.Message) (visited int) {
		before := mgr.Ticked()
		mgr.Step(in, rnd)
		return mgr.Ticked() - before
	}

	for tick := 1; mgr.Active() > 0; tick++ {
		if tick > 200 {
			t.Fatalf("still holding %d instances after %d ticks", mgr.Active(), tick)
		}
		if w := tick - 1; w < waves {
			for i := w * perWave; i < (w+1)*perWave; i++ {
				joinDecided(mgr, fmt.Sprintf("old%d", i), rnd)
			}
		}
		var in []types.Message
		switch tick {
		case hotBegun:
			if len(decidedAt) != waves*perWave {
				t.Fatalf("%d of %d held instances decided by tick %d", len(decidedAt), waves*perWave, tick)
			}
			if err := mgr.Begin("hot-m", true); err != nil {
				t.Fatal(err)
			}
		case 20:
			// Stragglers, between ticks and on one: the machine is halted,
			// nothing answers, nothing is kept, retirement is not put off.
			if out := mgr.Deliver([]types.Message{batchFrame("old5", 2, core.BatchVoteMsg{Vals: []types.Value{0}})}, rnd); len(out) != 0 {
				t.Fatalf("a straggler for a halted instance emitted %v", out)
			}
			in = []types.Message{batchFrame("old6", 2, core.GoMsg{Coins: []types.Value{1, 0, 1}})}
		}
		visited := step(in)
		if tick > hotBegun && tick < maxAge {
			if visited != 2 {
				t.Fatalf("tick %d advanced %d machines while holding %d, want the 2 running", tick, visited, mgr.Active())
			}
			if mgr.Halted() {
				t.Fatalf("tick %d: Halted with two instances running", tick)
			}
		}
		if tick == hotBegun+1 && mgr.Active() != waves*perWave+2 {
			t.Fatalf("holding %d instances, want %d halted and 2 running", mgr.Active(), waves*perWave)
		}
	}

	// The retired and abandoned milestones, as laid down, with the tick
	// their Detail leads with.
	type tombstone struct {
		txn  string
		tick int
	}
	var retiredOrder []tombstone
	abandonedAt := map[txn.ID]int{}
	for _, s := range spans.Graph().Spans {
		if s.Kind != span.KindEvent || (s.Name != span.EventRetired && s.Name != span.EventAbandoned) {
			continue
		}
		var at int
		if _, err := fmt.Sscanf(s.Detail, "tick=%d", &at); err != nil {
			t.Fatalf("%s milestone without a tick: %q", s.Name, s.Detail)
		}
		retiredOrder = append(retiredOrder, tombstone{s.Txn, at})
		if s.Name == span.EventAbandoned {
			abandonedAt[txn.ID(s.Txn)] = at
		}
	}

	// An adopting machine decides as its agreement starts and halts on its
	// next transition, one tick on; the tick after that finds it halted, and
	// it retires RetireAfter ticks later.
	const foundHalted = 2 // ticks from decision to haltedAt
	var want []string
	if abandonedAt["early-m"] != maxAge || abandonedAt["hot-m"] != hotBegun-1+maxAge {
		t.Fatalf("abandoned at %v, want early-m at %d and hot-m at %d", abandonedAt, maxAge, hotBegun-1+maxAge)
	}
	if at := decidedAt[member(2*perWave)] + foundHalted + retireAfter; at != maxAge {
		t.Fatalf("wave 2 retires on tick %d, early-m is abandoned on %d: set maxAge so they coincide", at, maxAge)
	}
	for i := 0; i < waves*perWave; i++ {
		if i == 2*perWave {
			want = append(want, "early-m") // created before every wave
		}
		want = append(want, string(member(i)))
	}
	want = append(want, "hot-m")
	if len(retiredOrder) != len(want) {
		t.Fatalf("%d tombstones laid, want %d", len(retiredOrder), len(want))
	}
	for k, e := range retiredOrder {
		if e.txn != want[k] {
			t.Fatalf("tombstone %d is %s's, want %s's: not creation order", k, e.txn, want[k])
		}
		if at, held := decidedAt[txn.ID(e.txn)]; held && e.tick != at+foundHalted+retireAfter {
			t.Fatalf("%s decided on tick %d and retired on %d, want %d", e.txn, at, e.tick, at+foundHalted+retireAfter)
		}
	}
	if lastRetire := retiredOrder[len(retiredOrder)-1].tick; lastRetire != hotBegun-1+maxAge {
		t.Fatalf("last tombstone on tick %d, want hot-m's at %d", lastRetire, hotBegun-1+maxAge)
	}
	for i := 0; i < waves*perWave; i++ {
		if d, ok := mgr.DecisionOf(member(i)); ok {
			t.Fatalf("retired %s answers %v", member(i), d)
		}
	}
	if d, ok := mgr.DecisionOf("early-m"); ok {
		t.Fatalf("abandoned early-m answers %v", d)
	}
	if !mgr.Halted() {
		t.Fatal("manager holding nothing does not report Halted")
	}
}

// BenchmarkManagerTickHeld: a tick's cost must not grow with what the
// manager merely holds — the micro-benchmark behind cpu_ms_per_txn. Two
// instances run (past their timeouts, in an agreement no peer joins); the
// held ones are halted and wait out a RetireAfter longer than the benchmark.
// held=512 must stay within 1.5× of held=0.
func BenchmarkManagerTickHeld(b *testing.B) {
	for _, held := range []int{0, 64, 512} {
		b.Run(fmt.Sprintf("held=%d", held), func(b *testing.B) {
			mgr, err := txn.NewManager(txn.Config{ID: 1, N: 3, K: 1, RetireAfter: 1 << 30})
			if err != nil {
				b.Fatal(err)
			}
			rnd := rng.NewStream(9)
			for i := 0; i < held; i++ {
				joinDecided(mgr, fmt.Sprintf("old%d", i), rnd)
			}
			for _, id := range []txn.ID{"hot1", "hot2"} {
				if err := mgr.Begin(id, true); err != nil {
					b.Fatal(err)
				}
			}
			for tick := 0; tick < 8; tick++ {
				mgr.Step(nil, rnd)
			}
			for i := 0; i < held; i++ {
				if _, ok := mgr.DecisionOf(txn.ID(fmt.Sprintf("old%d-m", i))); !ok {
					b.Fatalf("held instance %d never halted", i)
				}
			}
			if mgr.Active() != held+2 || mgr.Halted() {
				b.Fatalf("holding %d instances (all halted: %v), want %d with two running", mgr.Active(), mgr.Halted(), held+2)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if out := mgr.Step(nil, rnd); len(out) != 0 {
					b.Fatalf("a waiting instance emitted %v", out)
				}
			}
		})
	}
}
