package tcommit

import (
	"context"
	"fmt"

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

	// votesOf[id][p] is node p's vote on transaction id.
	votesOf := make(map[txn.ID][]bool, len(specs))
	for _, spec := range specs {
		votesOf[txn.ID(spec.ID)] = spec.Votes
	}
	c, err := newCluster(cfg, func(p ProcID, id txn.ID) bool {
		votes, ok := votesOf[id]
		return ok && votes[p]
	}, opts)
	if err != nil {
		return nil, err
	}
	for _, spec := range specs {
		if err := c.managers[spec.Coordinator].Begin(txn.ID(spec.ID), spec.Votes[spec.Coordinator]); err != nil {
			return nil, err
		}
	}
	if err := c.inner.Run(context.Background()); err != nil {
		return nil, err
	}

	out := make(TxnOutcomes, len(specs))
	for _, spec := range specs {
		agreed := DecisionNone
		for _, d := range c.decisions(txn.ID(spec.ID)) {
			if d == DecisionNone {
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
