// Package recovery implements the outcome-recovery protocol that turns
// the paper's graceful degradation into an operational story. A processor
// that crashed (or was started after the fact) replays its write-ahead
// log; if the log lacks a decision, it runs a Client, which polls the
// cluster with outcome queries until some processor that decided answers.
// It never rejoins the protocol: a processor with amnesia could send two
// different values for one stage. Live processors are transaction managers
// (txn.Manager), which answer a query from their decisions; in the
// simulator the formal machines answer through the Responder middleware.
//
// Recovery is safe for the same reason the termination gadget is: a
// decided value is backed by n−t matching S-messages (Lemma 3 evidence),
// and decisions are absorbing — whoever answers, the value is the value.
package recovery

import (
	"fmt"

	"repro/internal/types"
	"repro/internal/wal"
)

// SoleTxn is the id of the one transaction a single-transaction deployment
// runs (tcommit's NewCluster and StartNode, the chaos cluster mode): the
// transaction a Client asks about.
const SoleTxn = "txn"

// QueryMsg asks "what was decided for transaction Txn?".
type QueryMsg struct {
	Txn string
}

// Kind implements types.Payload.
func (QueryMsg) Kind() string { return "rc.query" }

// SizeBits implements types.Sized: tag + a 64-bit id hash.
func (QueryMsg) SizeBits() int { return 8 + 64 }

// ReplyMsg answers an outcome query from a decided processor.
type ReplyMsg struct {
	Val types.Value
}

// Kind implements types.Payload.
func (ReplyMsg) Kind() string { return "rc.reply" }

// SizeBits implements types.Sized.
func (ReplyMsg) SizeBits() int { return 8 + 1 }

// Responder wraps any protocol machine and answers outcome queries once
// the inner machine has decided, whatever transaction they name: the inner
// machine runs one. Undecided responders stay silent; the
// client keeps polling. The wrapper is transparent to the inner protocol:
// query payloads are filtered out of its deliveries.
type Responder struct {
	Inner types.Machine
	// Linger is how many further steps the responder stays schedulable
	// after its inner machine halts, so late queries still get answers.
	// Zero (the default) lingers forever — the node's own lifetime bound
	// (MaxTicks, context) ends it.
	Linger int

	lingered int
}

var _ types.Machine = (*Responder)(nil)

// ID implements types.Machine.
func (r *Responder) ID() types.ProcID { return r.Inner.ID() }

// Clock implements types.Machine.
func (r *Responder) Clock() int { return r.Inner.Clock() }

// Decision implements types.Machine.
func (r *Responder) Decision() (types.Value, bool) { return r.Inner.Decision() }

// Halted implements types.Machine: halted only once the inner machine has
// halted and the linger budget is spent (never, when Linger is zero).
func (r *Responder) Halted() bool {
	if !r.Inner.Halted() {
		return false
	}
	return r.Linger > 0 && r.lingered >= r.Linger
}

// Step implements types.Machine.
func (r *Responder) Step(received []types.Message, rnd types.Rand) []types.Message {
	var rest []types.Message
	var askers []types.ProcID
	for i := range received {
		if _, ok := received[i].Payload.(QueryMsg); ok {
			askers = append(askers, received[i].From)
			continue
		}
		rest = append(rest, received[i])
	}
	out := r.Inner.Step(rest, rnd)
	if r.Inner.Halted() {
		r.lingered++
	}
	if v, ok := r.Inner.Decision(); ok {
		for _, q := range askers {
			out = append(out, types.Message{From: r.Inner.ID(), To: q, Payload: ReplyMsg{Val: v}})
		}
	}
	return out
}

// ClientConfig parameterizes a recovery client.
type ClientConfig struct {
	ID types.ProcID
	N  int
	// QueryEvery is the polling period in clock ticks (default 4).
	QueryEvery int
	// Resume is the state replayed from the processor's write-ahead log;
	// a logged decision short-circuits recovery entirely.
	Resume wal.State
}

// Client is the machine a recovering processor runs: poll, adopt, halt.
type Client struct {
	cfg      ClientConfig
	clock    int
	decided  bool
	decision types.Value
	halted   bool
}

var _ types.Machine = (*Client)(nil)

// NewClient builds a recovery client.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("recovery: N must be positive, got %d", cfg.N)
	}
	if int(cfg.ID) < 0 || int(cfg.ID) >= cfg.N {
		return nil, fmt.Errorf("recovery: id %d out of range [0,%d)", cfg.ID, cfg.N)
	}
	if cfg.QueryEvery <= 0 {
		cfg.QueryEvery = 4
	}
	c := &Client{cfg: cfg}
	if cfg.Resume.Decided {
		c.decided, c.decision, c.halted = true, cfg.Resume.Decision, true
	}
	return c, nil
}

// ID implements types.Machine.
func (c *Client) ID() types.ProcID { return c.cfg.ID }

// Clock implements types.Machine.
func (c *Client) Clock() int { return c.clock }

// Decision implements types.Machine.
func (c *Client) Decision() (types.Value, bool) { return c.decision, c.decided }

// Halted implements types.Machine.
func (c *Client) Halted() bool { return c.halted }

// Step implements types.Machine: adopt a reply, else poll on a timer —
// the first poll happens on the first step.
func (c *Client) Step(received []types.Message, rnd types.Rand) []types.Message {
	c.clock++
	if c.Deliver(received, rnd); c.halted {
		return nil
	}
	if (c.clock-1)%c.cfg.QueryEvery == 0 {
		var out []types.Message
		for p := 0; p < c.cfg.N; p++ {
			if types.ProcID(p) == c.cfg.ID {
				continue
			}
			out = append(out, types.Message{From: c.cfg.ID, To: types.ProcID(p), Payload: QueryMsg{Txn: SoleTxn}})
		}
		return out
	}
	return nil
}

// Deliver hands the client messages between ticks: a reply is adopted the
// moment it arrives, and the poll clock stands still. It sends nothing.
func (c *Client) Deliver(received []types.Message, _ types.Rand) []types.Message {
	for i := range received {
		if rep, ok := received[i].Payload.(ReplyMsg); ok && !c.halted {
			c.decided, c.decision, c.halted = true, rep.Val, true
		}
	}
	return nil
}
