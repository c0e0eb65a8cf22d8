package tcommit_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	tcommit "repro"
)

// TestJournaledNodeLifecycle exercises the full journal flow through the
// public API: run a journaled cluster, then restart each node offline and
// confirm the journaled decision short-circuits.
func TestJournaledNodeLifecycle(t *testing.T) {
	dir := t.TempDir()
	n := 3
	cfg := tcommit.Config{N: n, K: 10, Seed: 77}
	journal := func(p int) string { return filepath.Join(dir, fmt.Sprintf("p%d.journal", p)) }

	nodes := make([]*tcommit.Node, n)
	peers := make(map[tcommit.ProcID]string, n)
	for i := 0; i < n; i++ {
		node, err := tcommit.StartNode(cfg, tcommit.NodeSpec{
			ID: tcommit.ProcID(i), Listen: "127.0.0.1:0", Vote: true,
			TickEvery: time.Millisecond, MaxTicks: 4000,
			ServeOutcomeTicks: 5, JournalPath: journal(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		if node.Mode() != "protocol" {
			t.Fatalf("fresh journal node mode = %q", node.Mode())
		}
		nodes[i] = node
		peers[tcommit.ProcID(i)] = node.Addr()
	}
	for _, node := range nodes {
		node.SetPeers(peers)
	}
	var wg sync.WaitGroup
	decisions := make([]tcommit.Decision, n)
	for i, node := range nodes {
		wg.Add(1)
		go func(i int, node *tcommit.Node) {
			defer wg.Done()
			d, err := node.Run(context.Background())
			if err != nil {
				t.Errorf("node %d: %v", i, err)
			}
			decisions[i] = d
		}(i, node)
	}
	wg.Wait()
	for i, d := range decisions {
		if d != tcommit.Commit {
			t.Fatalf("node %d decided %v", i, d)
		}
	}

	// Offline restart: journal mode, immediate decision, no listener.
	for i := 0; i < n; i++ {
		re, err := tcommit.StartNode(cfg, tcommit.NodeSpec{
			ID: tcommit.ProcID(i), JournalPath: journal(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		if re.Mode() != "journal" {
			t.Fatalf("node %d restart mode = %q, want journal", i, re.Mode())
		}
		if re.Addr() != "" {
			t.Errorf("journal-mode node bound a listener")
		}
		d, err := re.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if d != tcommit.Commit {
			t.Fatalf("node %d journaled decision = %v", i, d)
		}
	}
}

// TestRecoveryModeOverTCP kills a journaled node before its first step,
// restarts it, and checks that it recovers the outcome from the survivors'
// managers — the decision every survivor journaled — and that a second
// restart short-circuits from the freshly journaled decision. The victim's
// vote never leaves it, so the outcome is ABORT whatever the timing.
func TestRecoveryModeOverTCP(t *testing.T) {
	dir := t.TempDir()
	n := 5
	victim := tcommit.ProcID(4)
	cfg := tcommit.Config{N: n, K: 20, Seed: 99}
	journal := func(p tcommit.ProcID) string { return filepath.Join(dir, fmt.Sprintf("p%d.journal", p)) }

	nodes := make([]*tcommit.Node, n)
	peers := make(map[tcommit.ProcID]string, n)
	for i := 0; i < n; i++ {
		node, err := tcommit.StartNode(cfg, tcommit.NodeSpec{
			ID: tcommit.ProcID(i), Listen: "127.0.0.1:0", Vote: true,
			TickEvery: time.Millisecond, MaxTicks: 8000,
			ServeOutcomeTicks: 500, JournalPath: journal(tcommit.ProcID(i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		peers[tcommit.ProcID(i)] = node.Addr()
	}
	// The victim dies before its first step, leaving an empty journal.
	nodes[victim].Kill()
	restarted, err := tcommit.StartNode(cfg, tcommit.NodeSpec{
		ID: victim, Listen: "127.0.0.1:0",
		TickEvery: time.Millisecond, MaxTicks: 4000,
		JournalPath: journal(victim),
	})
	if err != nil {
		t.Fatal(err)
	}
	if restarted.Mode() != "recovery" {
		t.Fatalf("restart mode = %q, want recovery", restarted.Mode())
	}
	peers[victim] = restarted.Addr()
	restarted.SetPeers(peers)

	survivors := make([]tcommit.Decision, n-1)
	var wg sync.WaitGroup
	for i := 0; i < n-1; i++ {
		nodes[i].SetPeers(peers)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, err := nodes[i].Run(context.Background())
			if err != nil {
				t.Errorf("survivor %d: %v", i, err)
			}
			survivors[i] = d
		}(i)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	d, err := restarted.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if d != tcommit.Abort {
		t.Fatalf("recovered %v, want ABORT (the victim never voted)", d)
	}
	for i, sd := range survivors {
		if sd != d {
			t.Errorf("survivor %d decided %v, the victim recovered %v", i, sd, d)
		}
	}

	// Every journal — the survivors' and, on a second restart, the
	// victim's — holds the recovered decision.
	for p := 0; p < n; p++ {
		again, err := tcommit.StartNode(cfg, tcommit.NodeSpec{ID: tcommit.ProcID(p), JournalPath: journal(tcommit.ProcID(p))})
		if err != nil {
			t.Fatal(err)
		}
		if again.Mode() != "journal" {
			t.Fatalf("node %d restart mode = %q, want journal", p, again.Mode())
		}
		jd, err := again.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if jd != d {
			t.Errorf("node %d journaled %v, the victim recovered %v", p, jd, d)
		}
	}
}

// TestSingleFileJournalRefused: a JournalPath naming a regular file — a
// journal in the retired single-file format — fails StartNode by name
// instead of starting the node over an empty journal.
func TestSingleFileJournalRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p0.wal")
	if err := os.WriteFile(path, []byte("single-file journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := tcommit.StartNode(tcommit.Config{N: 3}, tcommit.NodeSpec{ID: 0, JournalPath: path})
	if err == nil || !strings.Contains(err.Error(), "single-file journals are no longer read: "+path) {
		t.Fatalf("err = %v, want the single-file refusal naming %s", err, path)
	}
}
