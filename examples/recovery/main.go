// Recovery: crash a journaled node, restart it, and watch it recover the
// cluster's decision from its peers.
//
//	go run ./examples/recovery
//
// The paper's graceful-degradation pitch — "by not producing a wrong
// answer, we leave open the opportunity to recover" — as an operational
// flow: every node journals its decision before acting on it; one node is
// killed before it takes a single step (within the crash tolerance, so the
// survivors still decide and keep serving the outcome); the node then
// restarts with the same journal, finds it present but without a decision,
// switches into recovery mode, and polls the survivors until it learns the
// decision. The victim's vote never left it, so the survivors time out
// waiting for it and the decision is ABORT: a crashed participant is
// indistinguishable from one that voted no.
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
			ServeOutcomeTicks: 250, // ~1s serve window
			JournalPath:       journal(tcommit.ProcID(i)),
		})
		if err != nil {
			log.Fatal(err)
		}
		nodes[i] = node
		peers[tcommit.ProcID(i)] = node.Addr()
	}

	// Kill the victim before its first step: its journal exists, its vote
	// never leaves it.
	fmt.Printf("*** killing processor %d before it takes a step ***\n", victim)
	nodes[victim].Kill()

	// Phase 2: restart the victim from its journal. StartNode finds the
	// journal without a decision and enters recovery mode.
	restarted, err := tcommit.StartNode(cfg, tcommit.NodeSpec{
		ID:          victim,
		Listen:      "127.0.0.1:0",
		TickEvery:   4 * time.Millisecond,
		MaxTicks:    2000,
		JournalPath: journal(victim),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("processor %d restarted in %q mode at %s\n", victim, restarted.Mode(), restarted.Addr())
	peers[victim] = restarted.Addr()
	restarted.SetPeers(peers)

	ctx := context.Background()
	type outcome struct {
		p tcommit.ProcID
		d tcommit.Decision
	}
	results := make(chan outcome, n-1)
	for i := 0; i < n-1; i++ {
		nodes[i].SetPeers(peers)
		go func(p tcommit.ProcID, node *tcommit.Node) {
			d, err := node.Run(ctx)
			if err != nil {
				log.Printf("node %d: %v", p, err)
			}
			results <- outcome{p, d}
		}(tcommit.ProcID(i), nodes[i])
	}

	recovered, err := restarted.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("processor %d recovered the outcome from its peers: %s\n", victim, recovered)

	// The survivors stop on their own once their serve window closes.
	decisions := make([]tcommit.Decision, n)
	decisions[victim] = recovered
	for i := 0; i < n-1; i++ {
		r := <-results
		decisions[r.p] = r.d
	}
	fmt.Println("\nfinal decisions:")
	for p, d := range decisions {
		fmt.Printf("  processor %d: %s\n", p, d)
	}

	// A second restart of the victim short-circuits: the recovered
	// decision was journaled, so it comes back with no network at all.
	offline, err := tcommit.StartNode(cfg, tcommit.NodeSpec{ID: victim, JournalPath: journal(victim)})
	if err != nil {
		log.Fatal(err)
	}
	d, err := offline.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nprocessor %d restarted offline in %q mode: journaled decision %s\n", victim, offline.Mode(), d)
}
