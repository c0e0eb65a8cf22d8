package txn_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/rng"
	"repro/internal/txn"
	"repro/internal/types"
)

// lockstep drives n managers over a synchronous network: what a manager
// emits in one tick is every peer's input in the next.
type lockstep struct {
	managers []*txn.Manager
	inbox    [][]types.Message
	seeds    *rng.Collection
}

// newLockstep builds n managers from cfg; onOutcome, if non-nil, becomes
// each node's OnOutcome with the node's index.
func newLockstep(t *testing.T, n int, cfg txn.Config, onOutcome func(p int, o txn.Outcome)) *lockstep {
	t.Helper()
	l := &lockstep{inbox: make([][]types.Message, n), seeds: rng.NewCollection(17, n)}
	for p := 0; p < n; p++ {
		p := p
		cfg.ID, cfg.N = types.ProcID(p), n
		if onOutcome != nil {
			cfg.OnOutcome = func(o txn.Outcome) { onOutcome(p, o) }
		}
		mgr, err := txn.NewManager(cfg)
		if err != nil {
			t.Fatal(err)
		}
		l.managers = append(l.managers, mgr)
	}
	return l
}

func (l *lockstep) tick() {
	next := make([][]types.Message, len(l.managers))
	for p, mgr := range l.managers {
		for _, msg := range mgr.Step(l.inbox[p], l.seeds.Stream(types.ProcID(p))) {
			msg.From = types.ProcID(p)
			next[msg.To] = append(next[msg.To], msg)
		}
	}
	l.inbox = next
}

// quiesce ticks until no manager holds an instance.
func (l *lockstep) quiesce(t *testing.T) {
	t.Helper()
	for i := 0; i < 10_000; i++ {
		active := 0
		for _, mgr := range l.managers {
			active += mgr.Active()
		}
		if active == 0 {
			return
		}
		l.tick()
	}
	t.Fatal("managers never quiesced")
}

// TestManagerOneLockConcurrent hammers the calls a serving manager takes
// from other goroutines — BeginBatch with a fresh, a duplicate and an
// already-retired id, Active, DecisionOf — from two goroutines while a
// third steps the cluster 200 ticks. Run under -race; every fresh batch
// must still decide COMMIT on every node.
func TestManagerOneLockConcurrent(t *testing.T) {
	const n, ticks = 3, 200
	l := newLockstep(t, n, txn.Config{K: 3, RetireAfter: 4}, nil)
	coord := l.managers[0]
	if err := coord.Begin("old", true); err != nil {
		t.Fatal(err)
	}
	l.quiesce(t)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	begun := make([][]txn.ID, 2)
	var began [2]atomic.Int32
	for g := range begun {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One fresh batch per observed tick keeps the step loop short;
			// the refused calls and the reads spin freely.
			bid, ids, lastClock := txn.BatchID("old"), []txn.ID{"old"}, -1
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if c := coord.Clock(); c != lastClock {
					lastClock = c
					bid = txn.BatchID(fmt.Sprintf("g%d-%d", g, i))
					ids = []txn.ID{txn.ID(bid + "-a"), txn.ID(bid + "-b")}
					if err := coord.BeginBatch(bid, ids, []bool{true, true}); err != nil {
						t.Errorf("fresh batch %s: %v", bid, err)
						return
					}
					begun[g] = append(begun[g], ids...)
					began[g].Add(1)
				}
				if err := coord.BeginBatch(bid, ids, make([]bool, len(ids))); err == nil {
					t.Errorf("duplicate batch %s accepted", bid)
				}
				if err := coord.Begin("old", true); err == nil {
					t.Error("retired batch accepted again")
				}
				if coord.Active() < 0 {
					t.Error("negative Active")
				}
				if d, ok := coord.DecisionOf("old"); !ok || d != types.DecisionCommit {
					t.Errorf("tombstone answered %v,%v", d, ok)
				}
				runtime.Gosched()
			}
		}()
	}
	// On one core the stepper could finish before a hammer is scheduled:
	// keep stepping until each has begun a few batches.
	for i := 0; i < ticks || began[0].Load() < 10 || began[1].Load() < 10; i++ {
		l.tick()
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
	l.quiesce(t)
	for g := range begun {
		for _, id := range begun[g] {
			for p, mgr := range l.managers {
				if d, ok := mgr.DecisionOf(id); !ok || d != types.DecisionCommit {
					t.Fatalf("node %d: %s decided %v,%v", p, id, d, ok)
				}
			}
		}
	}
}
