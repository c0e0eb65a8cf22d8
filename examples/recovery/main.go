// Recovery: crash a journaled node mid-protocol, restart it, and watch it
// recover the cluster's decision from its peers.
//
//	go run ./examples/recovery
//
// The paper's graceful-degradation pitch — "by not producing a wrong
// answer, we leave open the opportunity to recover" — as an operational
// flow: every node write-ahead-logs its protocol transitions; one node is
// killed mid-protocol (within the crash tolerance, so the survivors still
// decide and keep serving the outcome); the node then restarts with the
// same journal, detects its unfinished participation, switches into
// recovery mode, and polls the survivors until it learns the decision.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	tcommit "repro"
)

func main() {
	dir, err := os.MkdirTemp("", "tcommit-recovery")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir) //nolint:errcheck // best-effort cleanup

	const n = 5
	victim := tcommit.ProcID(4)
	cfg := tcommit.Config{N: n, K: 25, Seed: uint64(time.Now().UnixNano())}
	journal := func(p tcommit.ProcID) string {
		return filepath.Join(dir, fmt.Sprintf("proc%d.journal", p))
	}

	// Phase 1: five journaled nodes; survivors keep serving the outcome
	// for a generous window after deciding.
	nodes := make([]*tcommit.Node, n)
	peers := make(map[tcommit.ProcID]string, n)
	for i := 0; i < n; i++ {
		node, err := tcommit.StartNode(cfg, tcommit.NodeSpec{
			ID:                tcommit.ProcID(i),
			Listen:            "127.0.0.1:0",
			Vote:              true,
			TickEvery:         4 * time.Millisecond,
			MaxTicks:          5000,
			ServeOutcomeTicks: 2000, // ~8s serve window
			JournalPath:       journal(tcommit.ProcID(i)),
		})
		if err != nil {
			log.Fatal(err)
		}
		nodes[i] = node
		peers[tcommit.ProcID(i)] = node.Addr()
	}
	for _, node := range nodes {
		node.SetPeers(peers)
	}

	ctx := context.Background()
	type outcome struct {
		p tcommit.ProcID
		d tcommit.Decision
	}
	results := make(chan outcome, n)
	for i, node := range nodes {
		go func(p tcommit.ProcID, node *tcommit.Node) {
			d, err := node.Run(ctx)
			if err != nil {
				log.Printf("node %d: %v", p, err)
			}
			results <- outcome{p, d}
		}(tcommit.ProcID(i), node)
	}

	// Kill the victim mid-protocol: its journal holds the vote (and
	// probably the coins) but no decision.
	time.AfterFunc(15*time.Millisecond, func() {
		fmt.Printf("*** killing processor %d mid-protocol ***\n", victim)
		nodes[victim].Kill()
	})

	// Give the survivors time to decide (they then linger, serving).
	time.Sleep(500 * time.Millisecond)

	// Phase 2: restart the victim from its journal. StartNode sees the
	// unfinished participation and enters recovery mode.
	restarted, err := tcommit.StartNode(cfg, tcommit.NodeSpec{
		ID:          victim,
		Listen:      "127.0.0.1:0",
		Peers:       peers,
		TickEvery:   4 * time.Millisecond,
		MaxTicks:    2000,
		JournalPath: journal(victim),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("processor %d restarted in %q mode at %s\n", victim, restarted.Mode(), restarted.Addr())

	// Tell the survivors where the reincarnated victim lives so their
	// outcome replies reach the new process.
	for i := 0; i < n-1; i++ {
		nodes[i].SetPeers(map[tcommit.ProcID]string{victim: restarted.Addr()})
	}

	recovered, err := restarted.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("processor %d recovered the outcome from its peers: %s\n", victim, recovered)

	// Wind the survivors down and collect their decisions.
	for i := 0; i < n-1; i++ {
		nodes[i].Kill()
	}
	fmt.Println("\nfinal decisions:")
	seen := 0
	for seen < n {
		r := <-results
		seen++
		d := r.d
		if r.p == victim {
			d = recovered // the restart superseded the killed process
		}
		fmt.Printf("  processor %d: %s\n", r.p, d)
	}

	// Bonus: a second restart of the victim now short-circuits entirely —
	// wait: the victim's journal has no decision record (the recovery
	// client does not journal). Restarting a *survivor* from its journal
	// returns the decision with no network at all.
	offline, err := tcommit.StartNode(cfg, tcommit.NodeSpec{ID: 0, JournalPath: journal(0)})
	if err != nil {
		log.Fatal(err)
	}
	d, err := offline.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsurvivor 0 restarted offline in %q mode: journaled decision %s\n", offline.Mode(), d)
}
