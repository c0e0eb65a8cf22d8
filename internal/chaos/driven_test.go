package chaos

import (
	"context"
	"fmt"
	goruntime "runtime"
	"testing"
	"time"

	rt "repro/internal/runtime"
	"repro/internal/txn"
	"repro/internal/types"
)

// TestClusterRestartInADrivenGroupContentOblivious: with an idle group
// already running at two Ps, a cluster run's group makes the process's
// second and is driven, so a crash-restart plan's recovery client runs
// inside the group's driver (runtime.Cluster.Restart) instead of on a loop
// of its own. Every plan still passes its audit, and at least one restarted
// processor learns the outcome through the client — it had not decided
// before its crash. The schedules are the plans' and the wall clock's; the
// test reads decisions and verdicts only.
func TestClusterRestartInADrivenGroupContentOblivious(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(2))
	const n = 3
	idle := make([]*txn.Manager, n)
	for p := range idle {
		m, err := txn.NewManager(txn.Config{ID: types.ProcID(p), N: n, Vote: func(txn.ID) bool { return true }})
		if err != nil {
			t.Fatal(err)
		}
		idle[p] = m
	}
	sibling, err := rt.NewCluster(types.Machines(idle), nil, rt.ClusterOptions{TickEvery: time.Millisecond, Persistent: true})
	if err != nil {
		t.Fatal(err)
	}
	sibling.Start(context.Background())
	defer func() {
		sibling.Stop()
		if err := sibling.Wait(); err != nil {
			t.Error(err)
		}
	}()

	byClient := 0
	for s := uint64(0); s < 8; s++ {
		for _, size := range []int{3, 5} {
			cfg := PlanConfig{Seed: s*1_000_003 + uint64(size)*101 + 13, N: size, Shape: ShapeCrashRestart}
			t.Run(fmt.Sprintf("n%d/seed%d", size, cfg.Seed), func(t *testing.T) {
				p, err := NewPlan(cfg)
				if err != nil {
					t.Fatal(err)
				}
				rep, data, err := RunCluster(p, RunOptions{TickEvery: sweepTick})
				if err != nil {
					t.Fatalf("run error: %v", err)
				}
				if !rep.Pass() {
					t.Fatalf("FAILING SEED %d in a driven group\n%s", cfg.Seed, rep.Log())
				}
				for q := range data.Recovered {
					if !data.Decided[q] && data.RecoveredOK[q] {
						byClient++
					}
				}
			})
		}
	}
	if byClient == 0 {
		t.Error("no restarted processor learned its outcome through the recovery client; the driver's restart path went unexercised")
	}
}
