package tcommit_test

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"

	tcommit "repro"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/types"
	"repro/internal/wal"
)

// TestSoakRandomizedInvariants is a breadth pass: hundreds of seeded
// configurations across adversaries, vote patterns, crash loads, and
// system sizes, every run audited for the paper's safety conditions
// (Simulate itself re-checks agreement and fails hard on violation).
func TestSoakRandomizedInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	runs := 0
	for _, n := range []int{2, 3, 5, 7} {
		faults := (n - 1) / 2
		for seed := uint64(0); seed < 12; seed++ {
			for scenario := 0; scenario < 4; scenario++ {
				votes := make([]bool, n)
				for i := range votes {
					votes[i] = (seed+uint64(i*scenario))%4 != 0
				}
				var opts []tcommit.SimOption
				switch scenario {
				case 0:
					// On-time round robin.
				case 1:
					opts = append(opts, tcommit.WithRandomScheduling(seed*31+uint64(n)))
				case 2:
					opts = append(opts, tcommit.WithBoundedDelay(int(seed%10)+1),
						tcommit.WithStepBudget(400_000))
				case 3:
					for f := 0; f < faults; f++ {
						opts = append(opts, tcommit.WithCrash(
							tcommit.ProcID(n-1-f), int(seed%7)))
					}
				}
				res, err := tcommit.Simulate(
					tcommit.Config{N: n, K: 3, Seed: seed*7919 + uint64(n)},
					votes, opts...)
				if err != nil {
					t.Fatalf("n=%d seed=%d scenario=%d: %v", n, seed, scenario, err)
				}
				runs++
				if res.Blocked {
					t.Fatalf("n=%d seed=%d scenario=%d: blocked within tolerance", n, seed, scenario)
				}
				// Abort validity: if any vote was false, outcome is abort.
				anyNo := false
				for _, v := range votes {
					if !v {
						anyNo = true
					}
				}
				d, unanimous := res.Unanimous()
				if !unanimous {
					t.Fatalf("n=%d seed=%d scenario=%d: no unanimous outcome", n, seed, scenario)
				}
				if anyNo && d != tcommit.Abort {
					t.Fatalf("n=%d seed=%d scenario=%d: abort validity violated (%v)", n, seed, scenario, d)
				}
			}
		}
	}
	t.Logf("soak: %d runs clean", runs)
}

// soakDecision derives a transaction's decision from its id, so the soak
// auditor can verify any recovered decision without remembering a million
// appended values.
func soakDecision(id string) types.Decision {
	sum := 0
	for i := 0; i < len(id); i++ {
		sum += int(id[i])
	}
	if sum%3 == 0 {
		return types.DecisionAbort
	}
	return types.DecisionCommit
}

// soakAnswer is the answer a journal holding d gives.
func soakAnswer(d types.Decision) trace.Answer {
	if d == types.DecisionNone {
		return trace.Unknown
	}
	return trace.Answer(d.String())
}

// TestSoakWALMillionTxnRestarts is the nightly endurance pass for the
// segmented decision journal: over a million transactions are journaled
// by concurrent clients under group commit, across repeated restarts —
// half of them kill -9 style (the journal abandoned mid-load, then the
// simulated disk truncated past its fsync frontier under rotating
// torn-tail assumptions). Every restart is checked as a history
// (internal/trace):
//
//	every acked decision inside the journal's window is recovered with
//	its exact value (stability)
//	every recovered decision matches what was appended (consistency)
//
// and the run logs recovery time and fsync amortization per epoch.
// Gated behind SOAK_NIGHTLY (several tens of seconds of wall time).
func TestSoakWALMillionTxnRestarts(t *testing.T) {
	if os.Getenv("SOAK_NIGHTLY") == "" {
		t.Skip("set SOAK_NIGHTLY=1 to run the million-transaction WAL soak")
	}
	const (
		target   = 1_000_000
		clients  = 64
		perEpoch = 100_000
	)
	rng := rand.New(rand.NewSource(20260808))
	reg := obs.NewRegistry() // every epoch's journal counts into it
	opts := func(fs wal.FS) wal.SegmentedOptions {
		return wal.SegmentedOptions{
			FS:            slowSyncFS{fs},
			SegmentBytes:  1 << 20,
			SnapshotEvery: 50_000,
			Registry:      reg,
		}
	}

	disk := wal.NewMemFS()
	// acked lists acked ids in journal order: each is recorded by its ack,
	// which the writer fires group by group in record order. An id is
	// inside the window while fewer than DecisionWindow members follow it
	// in the journal; margin covers the unacked ones a kill left on disk
	// (at most one per client per kill) over the epoch or two an id stays
	// inside.
	var acked []string
	const margin = 4 * clients
	var mu sync.Mutex // guards acked and ackedTotal during an epoch
	var ackedTotal, kills int
	var slowestReplay time.Duration

	epoch := 0
	for ackedTotal < target {
		epoch++
		if epoch > 200 {
			t.Fatalf("soak stalled: %d acked after %d epochs", ackedTotal, epoch)
		}
		dl, err := wal.OpenDecisionLog(opts(disk))
		if err != nil {
			t.Fatalf("epoch %d: recovery failed: %v", epoch, err)
		}
		rs := dl.ReplayStats()
		if rs.Duration > slowestReplay {
			slowestReplay = rs.Duration
		}

		// The auditor, as a history: every acked decision inside the
		// window was acked before this restart and must be answered the
		// same after it (stability), and nothing recovery holds may
		// contradict what was appended (consistency).
		rec := dl.Recovered()
		h := trace.NewHistory()
		window := acked[max(0, len(acked)-(wal.DecisionWindow-margin)):]
		for _, id := range window {
			h.Ack(id, soakAnswer(soakDecision(id)))
		}
		h.Restart()
		for id, d := range rec {
			h.Decide(id, 0, soakDecision(id))
			h.Durable(id, d)
		}
		for _, id := range window {
			h.Status(id, soakAnswer(rec[id]))
		}
		if vs := h.Check(); vs != nil {
			t.Fatalf("epoch %d: %v", epoch, vs)
		}
		if len(rec) > wal.DecisionWindow {
			t.Fatalf("epoch %d: recovered %d decisions, more than the window", epoch, len(rec))
		}
		t.Logf("epoch %3d: replayed %6d records in %8v (snap %d, %6d in the window) — %d/%d acked",
			epoch, rs.Records, rs.Duration.Round(time.Microsecond), rs.SnapshotSeq, len(rec), ackedTotal, target)
		if len(acked) > 2*wal.DecisionWindow {
			acked = append([]string(nil), acked[len(acked)-wal.DecisionWindow:]...)
		}

		// Load phase: concurrent clients journaling decisions; on kill
		// epochs a timer yanks the log out from under them mid-flight.
		killEpoch := epoch%2 == 0
		var killTimer *time.Timer
		if killEpoch {
			delay := time.Duration(100+rng.Intn(400)) * time.Millisecond
			killTimer = time.AfterFunc(delay, dl.Kill)
		}
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for k := 0; k < perEpoch/clients; k++ {
					id := fmt.Sprintf("e%03d-c%02d-%05d", epoch, c, k)
					done := make(chan error, 1)
					err := dl.Append(id, soakDecision(id), func(err error) {
						if err == nil {
							mu.Lock()
							acked = append(acked, id)
							ackedTotal++
							mu.Unlock()
						}
						done <- err
					})
					if err == nil {
						err = <-done
					}
					if err != nil {
						return // killed mid-epoch: everything unacked stays unacked
					}
				}
			}(c)
		}
		wg.Wait()

		killed := killEpoch && !killTimer.Stop()
		if killed {
			kills++
			dl.Kill() // join: idempotent, waits for the writer to stop
			// The machine reboots on whatever the disk held: the fsynced
			// prefix plus none / all / half of the volatile suffix.
			var keep func(string, int) int
			switch rng.Intn(3) {
			case 1:
				keep = func(string, int) int { return 1 << 30 }
			case 2:
				keep = func(_ string, unsynced int) int { return unsynced / 2 }
			}
			disk = disk.CrashCopy(keep)
			continue
		}
		if err := dl.Close(); err != nil {
			t.Fatalf("epoch %d: close: %v", epoch, err)
		}
	}
	appendsTotal := reg.CounterVec("wal_appends_total", "", "log").With("decisions").Value()
	fsyncsTotal := reg.CounterVec("wal_fsyncs_total", "", "log").With("decisions").Value()

	amort := float64(appendsTotal) / float64(fsyncsTotal)
	t.Logf("soak: %d decisions acked across %d epochs, %d kill -9 restarts", ackedTotal, epoch, kills)
	t.Logf("soak: %d appends / %d fsyncs = %.1f records per fsync; slowest recovery %v", appendsTotal, fsyncsTotal, amort, slowestReplay)
	if fsyncsTotal*5 > appendsTotal {
		t.Errorf("group-commit amortization collapsed: %d fsyncs for %d appends (%.1fx)", fsyncsTotal, appendsTotal, amort)
	}
}

// syncCost is what slowSyncFS charges per fsync: the order of a journal
// fsync on a server SSD. The writer forces whatever queued while it was
// busy, so an fsync that costs nothing coalesces nothing.
const syncCost = 100 * time.Microsecond

// slowSyncFS is an FS whose files take syncCost to Sync.
type slowSyncFS struct{ wal.FS }

func (f slowSyncFS) OpenAppend(name string) (wal.File, error) {
	inner, err := f.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return slowSyncFile{inner}, nil
}

func (f slowSyncFS) Create(name string) (wal.File, error) {
	inner, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return slowSyncFile{inner}, nil
}

type slowSyncFile struct{ wal.File }

func (f slowSyncFile) Sync() error {
	time.Sleep(syncCost)
	return f.File.Sync()
}
