package runtime_test

// The group driver's own promises: starved of CPU it still decides every
// all-YES transaction COMMIT, because it hands each machine every queued
// frame before a tick can time one out; a restarted processor's recovery
// client runs inside it, on no goroutine of its own; and Wait joins it.
// The schedules are wall time, a busy goroutine and a crash; what is read
// is decisions, never a message: content-oblivious.

import (
	"context"
	"fmt"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/recovery"
	"repro/internal/runtime"
	"repro/internal/txn"
	"repro/internal/types"
)

// TestStarvedDriverCommitsAllYesContentOblivious: one P, shared with a
// goroutine that never blocks, so the driver runs in the scheduler's 10 ms
// slices — longer than the 2K ticks (4 ms) a manager waits for a vote. A
// frame never waits in another goroutine while a timeout runs, so every
// all-YES transaction commits, whichever processor coordinates it.
func TestStarvedDriverCommitsAllYesContentOblivious(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	var stop atomic.Bool
	var busy sync.WaitGroup
	busy.Add(1)
	go func() {
		defer busy.Done()
		for !stop.Load() {
		}
	}()
	defer busy.Wait()
	defer stop.Store(true)

	const n, txns = 3, 24
	ms := make([]*txn.Manager, n)
	for p := range ms {
		m, err := txn.NewManager(txn.Config{ID: types.ProcID(p), N: n, K: 2, Vote: func(txn.ID) bool { return true }})
		if err != nil {
			t.Fatal(err)
		}
		ms[p] = m
	}
	c := startCluster(t, types.Machines(ms), time.Millisecond, nil)
	for i := 0; i < txns; i++ {
		id, coord := txn.ID(fmt.Sprintf("starved-%d", i)), i%n
		if err := ms[coord].Begin(id, true); err != nil {
			t.Fatal(err)
		}
		c.Node(types.ProcID(coord)).Wake()
		waitFor(t, string(id)+" to be decided everywhere", func() bool {
			for _, m := range ms {
				if _, ok := m.DecisionOf(id); !ok {
					return false
				}
			}
			return true
		})
		for p, m := range ms {
			if d, _ := m.DecisionOf(id); d != types.DecisionCommit {
				t.Fatalf("%s: processor %d decided %v on a starved driver, want COMMIT", id, p, d)
			}
		}
	}
}

// TestRestartRunsARecoveryClientInTheDriverContentOblivious: processor 2
// crashes before it votes, so the others abort. Restarted with a recovery
// client, it is hosted by the group's driver — the goroutine count does not
// move — polls its peers on the group's ticks, learns ABORT and ends; a
// second restart is refused, and Wait joins the driver.
func TestRestartRunsARecoveryClientInTheDriverContentOblivious(t *testing.T) {
	const n = 3
	ms := managers(t, n, 4, votesOf(n, types.V1))
	c, err := runtime.NewCluster(types.Machines(ms), nil, runtime.ClusterOptions{
		TickEvery: time.Millisecond, Seed: 21, Persistent: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Crash(2) // before the first tick floods the GO
	c.Drive()
	c.Start(context.Background())
	waitFor(t, "the live processors to decide", func() bool {
		for _, m := range ms[:2] {
			if _, ok := m.DecisionOf(theTxn); !ok {
				return false
			}
		}
		return true
	})
	want, _ := ms[0].DecisionOf(theTxn)
	if want != types.DecisionAbort {
		t.Fatalf("processor 0 decided %v with a voter crashed before GO, want ABORT", want)
	}
	<-c.Node(2).Done()

	before := goruntime.NumGoroutine()
	client, err := recovery.NewClient(recovery.ClientConfig{ID: 2, N: n, QueryEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	node, err := c.Restart(2, client)
	if err != nil {
		t.Fatal(err)
	}
	if after := goruntime.NumGoroutine(); after != before {
		t.Errorf("a restart moved the goroutine count %d → %d; the driver hosts the client", before, after)
	}
	select {
	case <-node.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("the recovery client never halted")
	}
	if v, ok := client.Decision(); !ok || types.DecisionOf(v) != want {
		t.Errorf("the recovery client learned %v (%v), want %v", types.DecisionOf(v), ok, want)
	}
	if _, err := c.Restart(2, client); err == nil {
		t.Error("a second restart of a processor that is up was accepted")
	}

	c.Stop()
	joined := make(chan error, 1)
	go func() { joined <- c.Wait() }()
	select {
	case err := <-joined:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait did not join the driver")
	}
}
