// Package tcommit is a Go implementation of the randomized transaction
// commit protocol of Coan & Lundelius (Welch), "Transaction Commit in a
// Realistic Fault Model" (PODC 1986).
//
// The protocol solves atomic commit in an almost-asynchronous system:
// messages usually arrive within K clock ticks but may be late, up to
// t < n/2 processors may crash, and the adversary scheduling the network
// sees message patterns but never contents. Against that model the
// protocol guarantees:
//
//   - Agreement, always: no two processors ever decide differently, no
//     matter how late messages are or how many processors crash.
//   - Abort validity, always: if any participant votes abort, the outcome
//     is abort.
//   - Commit validity, when timely: if everyone votes commit and the run
//     is failure-free and on-time, the outcome is commit — within 8K
//     clock ticks.
//   - Termination: all nonfaulty processors decide in a small constant
//     expected number of asynchronous rounds (≤ 14) when at most t
//     processors crash; with more crashes the protocol blocks rather
//     than answer wrongly.
//
// Four ways to use the package:
//
//   - Simulate: run the paper's Protocol 2, exactly as printed, under the
//     formal model with a chosen adversary (delays, crashes, partitions)
//     and inspect the outcome. Deterministic given a seed.
//   - NewCluster (and RunTransactions for many transactions at once): run
//     a live in-memory cluster, one goroutine per processor, with optional
//     latency/loss/crash injection.
//   - StartNode: run one processor of a TCP cluster, for multi-process
//     deployments, with an optional decision journal and recovery after a
//     restart.
//   - Serve: run a long-lived commit service over a live cluster —
//     bounded admission, per-request deadlines, batched dispatch, and
//     graceful drain. cmd/commitd exposes it over HTTP/JSON and
//     cmd/loadgen load-tests it.
//
// The three live ways run one machine: each processor hosts a transaction
// manager (internal/txn) that runs Protocol 2 as a batch of width 1 and
// acts on each message as it arrives. Simulate runs the formal machine the
// live one is checked against. In Simulate, NewCluster and StartNode
// processor 0 is the coordinator; RunTransactions and Serve let any
// processor coordinate.
package tcommit

import (
	"fmt"

	"repro/internal/types"
)

// Decision is the outcome of the protocol at one processor.
type Decision = types.Decision

// Decision values.
const (
	None   = types.DecisionNone
	Abort  = types.DecisionAbort
	Commit = types.DecisionCommit
)

// ProcID identifies a processor (0..N-1; 0 coordinates).
type ProcID = types.ProcID

// Config parameterizes a protocol instance.
type Config struct {
	// N is the number of processors (required, >= 1).
	N int
	// T is the number of crash faults tolerated. Default (N-1)/2, the
	// optimum (Theorem 14 proves N > 2T is necessary).
	T int
	// K is the timing constant: messages arriving within K clock ticks
	// are on time. Default 4.
	K int
	// CoinFactor c makes the coordinator flip c*N shared coins; more
	// coins shave the expected stage count (paper Remark 3). Default 1.
	CoinFactor int
	// Seed makes runs reproducible. Two runs with equal Config, votes,
	// and fault schedule behave identically in the simulator.
	Seed uint64
}

// withDefaults validates and fills defaults.
func (c Config) withDefaults() (Config, error) {
	if c.N < 1 {
		return c, fmt.Errorf("tcommit: N must be >= 1, got %d", c.N)
	}
	if c.T == 0 {
		c.T = (c.N - 1) / 2
	}
	if c.T < 0 || c.N <= 2*c.T {
		return c, fmt.Errorf("tcommit: need N > 2T, got N=%d T=%d", c.N, c.T)
	}
	if c.K == 0 {
		c.K = 4
	}
	if c.K < 1 {
		return c, fmt.Errorf("tcommit: K must be >= 1, got %d", c.K)
	}
	if c.CoinFactor == 0 {
		c.CoinFactor = 1
	}
	if c.CoinFactor < 0 {
		return c, fmt.Errorf("tcommit: CoinFactor must be >= 1, got %d", c.CoinFactor)
	}
	return c, nil
}

// votesToValues converts bool votes (true = commit) to protocol values.
func votesToValues(n int, votes []bool) ([]types.Value, error) {
	if len(votes) != n {
		return nil, fmt.Errorf("tcommit: %d votes for %d processors", len(votes), n)
	}
	return types.Values(votes), nil
}
