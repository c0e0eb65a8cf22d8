package tcommit

import (
	"context"
	"fmt"

	"repro/internal/runtime"
	"repro/internal/txn"
	"repro/internal/types"
)

// TxnSpec describes one transaction in a batch: which node coordinates it
// and how every node votes on it.
type TxnSpec struct {
	// ID names the transaction (unique within the batch).
	ID string
	// Coordinator is the node that begins the protocol for this
	// transaction. Any node may coordinate.
	Coordinator ProcID
	// Votes[p] is node p's vote (true = commit). Length N.
	Votes []bool
}

// TxnOutcomes maps transaction ids to their cluster-wide decisions.
type TxnOutcomes map[string]Decision

// RunTransactions executes a batch of transactions concurrently over one
// live in-memory cluster: every node runs a transaction manager that
// multiplexes a Protocol 2 instance per transaction, so the instances
// interleave on the same processors — the distributed database setting of
// the paper's introduction. It returns each transaction's unanimous
// decision.
//
// All safety guarantees are per transaction: a late or crashed node can
// push an individual transaction to abort but can never split a decision.
func RunTransactions(cfg Config, specs []TxnSpec, opts ...ClusterOption) (TxnOutcomes, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		return TxnOutcomes{}, nil
	}
	seen := make(map[string]bool, len(specs))
	for i, spec := range specs {
		if spec.ID == "" {
			return nil, fmt.Errorf("tcommit: transaction %d has no id", i)
		}
		if seen[spec.ID] {
			return nil, fmt.Errorf("tcommit: duplicate transaction id %q", spec.ID)
		}
		seen[spec.ID] = true
		if int(spec.Coordinator) < 0 || int(spec.Coordinator) >= cfg.N {
			return nil, fmt.Errorf("tcommit: transaction %q coordinator %d out of range", spec.ID, spec.Coordinator)
		}
		if len(spec.Votes) != cfg.N {
			return nil, fmt.Errorf("tcommit: transaction %q has %d votes for %d nodes", spec.ID, len(spec.Votes), cfg.N)
		}
	}

	// voteOf[p][id] is node p's vote for a transaction it joins.
	voteOf := make([]map[txn.ID]bool, cfg.N)
	for p := 0; p < cfg.N; p++ {
		voteOf[p] = make(map[txn.ID]bool, len(specs))
		for _, spec := range specs {
			voteOf[p][txn.ID(spec.ID)] = spec.Votes[p]
		}
	}

	managers := make([]*txn.Manager, cfg.N)
	machines := make([]types.Machine, cfg.N)
	for p := 0; p < cfg.N; p++ {
		votes := voteOf[p]
		mgr, err := txn.NewManager(txn.Config{
			ID: ProcID(p), N: cfg.N, T: cfg.T, K: cfg.K,
			CoinFactor: cfg.CoinFactor,
			Vote: func(id txn.ID) bool {
				v, ok := votes[id]
				return ok && v
			},
		})
		if err != nil {
			return nil, err
		}
		managers[p] = mgr
		machines[p] = mgr
	}
	for _, spec := range specs {
		if err := managers[spec.Coordinator].Begin(txn.ID(spec.ID), spec.Votes[spec.Coordinator]); err != nil {
			return nil, err
		}
	}

	var settings clusterSettings
	for _, o := range opts {
		o(&settings)
	}
	cluster, err := runtime.NewLocalCluster(machines, runtime.ClusterOptions{
		TickEvery: settings.tickEvery,
		MaxTicks:  settings.maxTicks,
		Seed:      cfg.Seed,
		Hub:       settings.hubOptions(),
	})
	if err != nil {
		return nil, err
	}
	if _, err := cluster.Run(context.Background()); err != nil {
		return nil, err
	}

	out := make(TxnOutcomes, len(specs))
	for _, spec := range specs {
		id := txn.ID(spec.ID)
		agreed := DecisionNone
		for p := 0; p < cfg.N; p++ {
			d, ok := managers[p].DecisionOf(id)
			if !ok {
				continue
			}
			if agreed == DecisionNone {
				agreed = d
			} else if agreed != d {
				return nil, fmt.Errorf("tcommit: internal protocol violation: transaction %q split (%v vs %v)", spec.ID, agreed, d)
			}
		}
		out[spec.ID] = agreed
	}
	return out, nil
}

// DecisionNone re-exports types.DecisionNone under a clearer name for the
// transaction API (None is also available).
const DecisionNone = types.DecisionNone
