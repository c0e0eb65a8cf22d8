// Command commitnode runs one processor of a TCP transaction commit
// cluster. Start n processes (one with -id 0, the coordinator), give each
// the full peer directory, and they will run the protocol and print their
// decision.
//
// Example (three terminals):
//
//	commitnode -id 0 -n 3 -listen 127.0.0.1:7000 -peers 0=127.0.0.1:7000,1=127.0.0.1:7001,2=127.0.0.1:7002 -vote 1
//	commitnode -id 1 -n 3 -listen 127.0.0.1:7001 -peers 0=127.0.0.1:7000,1=127.0.0.1:7001,2=127.0.0.1:7002 -vote 1
//	commitnode -id 2 -n 3 -listen 127.0.0.1:7002 -peers 0=127.0.0.1:7000,1=127.0.0.1:7001,2=127.0.0.1:7002 -vote 1
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	tcommit "repro"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "commitnode:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("commitnode", flag.ContinueOnError)
	var (
		id       = fs.Int("id", 0, "this processor's id (0 = coordinator)")
		n        = fs.Int("n", 3, "total number of processors")
		k        = fs.Int("k", 20, "timing constant K in ticks")
		listen   = fs.String("listen", "127.0.0.1:0", "TCP listen address")
		peersStr = fs.String("peers", "", "peer directory id=addr[,id=addr...]")
		vote     = fs.Bool("vote", true, "vote commit (false: abort)")
		seed     = fs.Uint64("seed", 0, "randomness seed (0: derived from time)")
		tick     = fs.Duration("tick", 5*time.Millisecond, "period of the timeout clock")
		timeout  = fs.Duration("timeout", 30*time.Second, "overall deadline")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	peers, err := parsePeers(*peersStr)
	if err != nil {
		return err
	}
	if *seed == 0 {
		*seed = uint64(time.Now().UnixNano())
	}

	node, err := tcommit.StartNode(
		tcommit.Config{N: *n, K: *k, Seed: *seed},
		tcommit.NodeSpec{
			ID:        tcommit.ProcID(*id),
			Listen:    *listen,
			Peers:     peers,
			Vote:      *vote,
			TickEvery: *tick,
			MaxTicks:  int(*timeout / *tick),
		},
	)
	if err != nil {
		return err
	}
	fmt.Printf("processor %d listening on %s (vote=%v)\n", *id, node.Addr(), *vote)

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	decision, err := node.Run(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("processor %d decision: %s\n", *id, decision)
	if decision == tcommit.None {
		return fmt.Errorf("no decision within deadline (peers crashed or unreachable?)")
	}
	return nil
}

func parsePeers(s string) (map[tcommit.ProcID]string, error) {
	peers := make(map[tcommit.ProcID]string)
	if s == "" {
		return peers, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad peer entry %q (want id=addr)", part)
		}
		id, err := strconv.Atoi(kv[0])
		if err != nil {
			return nil, fmt.Errorf("bad peer id %q", kv[0])
		}
		peers[tcommit.ProcID(id)] = kv[1]
	}
	return peers, nil
}
