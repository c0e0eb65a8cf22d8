package chaos

import (
	"context"
	"errors"
	"fmt"
	goruntime "runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/obs"
	rt "repro/internal/runtime"
	"repro/internal/txn"
	"repro/internal/types"
)

// TestClusterRestartInADrivenGroupContentOblivious: at two Ps, a cluster
// run's group started together with an idle one makes two groups, so both
// are driven, and a crash-restart plan's recovery client runs inside the
// group's driver (runtime.Cluster.Restart) instead of on a loop of its own.
// No node of the run takes a frame from a channel — none is read inside a
// driver — while frames flow. Every plan still passes its audit, and at
// least one restarted processor learns the outcome through the client — it
// had not decided before its crash. The schedules are the plans' and the
// wall clock's, so whether a restarted processor had decided is not fixed
// by the seeds: on a loaded box a crash timer fires late, and a whole
// second of plans can see every victim decide first. So when none of the
// 16 plans exercised the client, up to 16 more run, each under the same
// checks, with one crash moved to the run's start: its victim, not the
// coordinator, has taken no frame, so it restarts without a decision
// unless the group decided before the crash was armed. The test reads
// decisions, verdicts and counters only.
func TestClusterRestartInADrivenGroupContentOblivious(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(2))
	byClient := 0
	run := func(s uint64, size int, atStart bool) {
		cfg := PlanConfig{Seed: s*1_000_003 + uint64(size)*101 + 13, N: size, Shape: ShapeCrashRestart}
		t.Run(fmt.Sprintf("n%d/seed%d", size, cfg.Seed), func(t *testing.T) {
			p, err := NewPlan(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if atStart {
				p.Crashes = []CrashEvent{{Node: size - 1, Tick: 0, RestartTick: p.Crashes[0].RestartTick}}
			}
			reg := obs.NewRegistry()
			sibling := idleCluster(t, size)
			rep, data, err := RunCluster(p, RunOptions{TickEvery: sweepTick, Registry: reg, startWith: []*rt.Cluster{sibling}})
			if err != nil {
				t.Fatalf("run error: %v", err)
			}
			// The run's context, cancelled as it returns, ends the sibling.
			if err := sibling.Wait(); err != nil && !errors.Is(err, context.Canceled) {
				t.Error(err)
			}
			if !rep.Pass() {
				t.Fatalf("FAILING SEED %d in a driven group\n%s", cfg.Seed, rep.Log())
			}
			var handoffs, received uint64
			for q := 0; q < size; q++ {
				node := strconv.Itoa(q)
				handoffs += reg.CounterVec("runtime_node_channel_handoffs_total", "", "node").With(node).Value()
				received += reg.CounterVec("runtime_node_messages_received_total", "", "node").With(node).Value()
			}
			if received == 0 || handoffs != 0 {
				t.Errorf("%d frames received, %d of them taken from a node's channel: the group was not driven", received, handoffs)
			}
			for q := range data.Recovered {
				if !data.Outcomes[q].Decided && data.RecoveredOK[q] {
					byClient++
				}
			}
		})
	}
	for s := uint64(0); s < 8; s++ {
		for _, size := range []int{3, 5} {
			run(s, size, false)
		}
	}
	for s := uint64(8); s < 8+16 && byClient == 0; s++ {
		run(s, []int{3, 5}[s%2], true)
	}
	if byClient == 0 {
		t.Error("no restarted processor of 32 plans learned its outcome through the recovery client; the driver's restart path went unexercised")
	}
}

// idleCluster builds an idle persistent cluster of n managers, not yet
// started.
func idleCluster(t *testing.T, n int) *rt.Cluster {
	t.Helper()
	idle := make([]*txn.Manager, n)
	for p := range idle {
		m, err := txn.NewManager(txn.Config{ID: types.ProcID(p), N: n, Vote: func(txn.ID) bool { return true }})
		if err != nil {
			t.Fatal(err)
		}
		idle[p] = m
	}
	c, err := rt.NewCluster(types.Machines(idle), nil, rt.ClusterOptions{TickEvery: time.Millisecond, Persistent: true})
	if err != nil {
		t.Fatal(err)
	}
	return c
}
