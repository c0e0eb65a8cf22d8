// Inventory: reserve stock across warehouse services over real TCP.
//
//	go run ./examples/inventory
//
// Five warehouse services, each a TCP node on localhost, atomically
// reserve the items of a multi-warehouse order using the PODC '86 commit
// protocol. The network is real (stdlib TCP, binary framing); one
// warehouse is killed mid-protocol to show the fault tolerance: with
// t = 2 of 5 processors allowed to crash, the survivors still decide.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	tcommit "repro"
)

// warehouse is one service's local state.
type warehouse struct {
	name  string
	stock map[string]int
}

// canReserve is the warehouse's vote for an order.
func (w *warehouse) canReserve(items map[string]int) bool {
	for item, qty := range items {
		if w.stock[item] < qty {
			return false
		}
	}
	return true
}

func main() {
	warehouses := []*warehouse{
		{name: "berlin", stock: map[string]int{"widget": 10, "gadget": 3}},
		{name: "paris", stock: map[string]int{"widget": 5}},
		{name: "madrid", stock: map[string]int{"gadget": 8}},
		{name: "rome", stock: map[string]int{"widget": 2, "gadget": 2}},
		{name: "oslo", stock: map[string]int{"widget": 7}},
	}
	// The order asks each warehouse for a slice of the items.
	order := []map[string]int{
		{"widget": 4},
		{"widget": 2},
		{"gadget": 5},
		{"gadget": 1},
		{"widget": 3},
	}

	n := len(warehouses)
	cfg := tcommit.Config{N: n, K: 25, Seed: uint64(time.Now().UnixNano())}

	// Start one TCP node per warehouse on an ephemeral port.
	nodes := make([]*tcommit.Node, n)
	peers := make(map[tcommit.ProcID]string, n)
	for i, w := range warehouses {
		vote := w.canReserve(order[i])
		node, err := tcommit.StartNode(cfg, tcommit.NodeSpec{
			ID:        tcommit.ProcID(i),
			Listen:    "127.0.0.1:0",
			Vote:      vote,
			TickEvery: 5 * time.Millisecond,
			MaxTicks:  3000,
		})
		if err != nil {
			log.Fatal(err)
		}
		nodes[i] = node
		peers[tcommit.ProcID(i)] = node.Addr()
		fmt.Printf("%-7s listening on %s, vote=%v (needs %v)\n", w.name, node.Addr(), vote, order[i])
	}
	for _, node := range nodes {
		node.SetPeers(peers)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	decisions := make([]tcommit.Decision, n)
	var wg sync.WaitGroup
	for i, node := range nodes {
		wg.Add(1)
		go func(i int, node *tcommit.Node) {
			defer wg.Done()
			d, err := node.Run(ctx)
			if err != nil {
				log.Printf("%s: %v", warehouses[i].name, err)
			}
			decisions[i] = d
		}(i, node)
	}

	// Kill madrid mid-protocol: within the t=2 tolerance, so the
	// survivors still decide (and agree).
	time.AfterFunc(75*time.Millisecond, func() {
		fmt.Println("\n*** madrid crashes mid-protocol ***")
		nodes[2].Kill()
	})

	wg.Wait()

	fmt.Println("\ndecisions:")
	committed := false
	for i, d := range decisions {
		fmt.Printf("  %-7s %s\n", warehouses[i].name, d)
		if d == tcommit.Commit {
			committed = true
		}
	}
	if committed {
		fmt.Println("\nreserving stock at surviving warehouses:")
		for i, w := range warehouses {
			if decisions[i] != tcommit.Commit {
				continue
			}
			for item, qty := range order[i] {
				w.stock[item] -= qty
			}
			fmt.Printf("  %-7s stock now %v\n", w.name, w.stock)
		}
	} else {
		fmt.Println("\norder aborted; no stock reserved anywhere")
	}
}
