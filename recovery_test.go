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

// TestRecoveryModeOverTCP kills a journaled node mid-protocol, restarts
// it, and checks it recovers the outcome from the lingering survivors —
// then that a second restart short-circuits from the freshly journaled
// decision.
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
			ServeOutcomeTicks: 4000, JournalPath: journal(tcommit.ProcID(i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		peers[tcommit.ProcID(i)] = node.Addr()
	}
	for _, node := range nodes {
		node.SetPeers(peers)
	}
	var wg sync.WaitGroup
	for i, node := range nodes {
		wg.Add(1)
		go func(i int, node *tcommit.Node) {
			defer wg.Done()
			_, _ = node.Run(context.Background()) // survivors are wound down by Kill below
		}(i, node)
	}
	// Kill the victim only once its journal holds a record (it must have
	// taken at least one step, or the restart has nothing to resume from).
	firstSegment := filepath.Join(journal(victim), "wal-00000001.seg")
	go func() {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if fi, err := os.Stat(firstSegment); err == nil && fi.Size() > 0 {
				break
			}
			time.Sleep(time.Millisecond)
		}
		nodes[victim].Kill()
	}()

	// Wait for the survivors to decide (poll their journals offline).
	deadline := time.Now().Add(10 * time.Second)
	for {
		re, err := tcommit.StartNode(cfg, tcommit.NodeSpec{ID: 0, JournalPath: journal(0)})
		if err != nil {
			t.Fatal(err)
		}
		if re.Mode() == "journal" {
			break
		}
		// Not decided yet — but StartNode consumed the journal in
		// recovery mode; that instance is unused. Spin.
		if time.Now().After(deadline) {
			t.Fatal("survivors never decided")
		}
		time.Sleep(20 * time.Millisecond)
	}

	restarted, err := tcommit.StartNode(cfg, tcommit.NodeSpec{
		ID: victim, Listen: "127.0.0.1:0", Peers: peers,
		TickEvery: time.Millisecond, MaxTicks: 4000,
		JournalPath: journal(victim),
	})
	if err != nil {
		t.Fatal(err)
	}
	if restarted.Mode() != "recovery" {
		// The victim may have decided before the kill landed; then the
		// journal already has the decision and there is nothing to test.
		if restarted.Mode() == "journal" {
			t.Skip("victim decided before the kill; journal short-circuit covered elsewhere")
		}
		t.Fatalf("restart mode = %q", restarted.Mode())
	}
	for i := 0; i < n; i++ {
		if tcommit.ProcID(i) != victim {
			nodes[i].SetPeers(map[tcommit.ProcID]string{victim: restarted.Addr()})
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	d, err := restarted.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if d == tcommit.None {
		t.Fatal("recovery-mode node never learned the outcome")
	}

	// Second restart: the adopted decision was journaled.
	again, err := tcommit.StartNode(cfg, tcommit.NodeSpec{ID: victim, JournalPath: journal(victim)})
	if err != nil {
		t.Fatal(err)
	}
	if again.Mode() != "journal" {
		t.Fatalf("second restart mode = %q, want journal", again.Mode())
	}
	d2, err := again.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if d2 != d {
		t.Fatalf("journaled decision %v != recovered %v", d2, d)
	}

	for i := 0; i < n; i++ {
		nodes[i].Kill()
	}
	wg.Wait()
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
