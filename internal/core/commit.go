package core

import (
	"fmt"

	"repro/internal/agreement"
	"repro/internal/types"
)

// Config parameterizes a Protocol 2 machine.
type Config struct {
	ID types.ProcID
	N  int // total processors
	T  int // fault tolerance; requires N > 2T
	K  int // the timing constant of §2.2 (on-time delivery bound)
	// Vote is the processor's initial value: 1 to commit, 0 to abort.
	Vote types.Value
	// CoinFactor c makes the coordinator flip c*n coins instead of n.
	// The paper's Remark 3: more coins push the expected stage count of
	// Protocol 1 toward 3 and the round count toward 12. Zero means 1.
	CoinFactor int
	// Gadget enables the agreement termination gadget (see agreement
	// package). Default-on in all constructors; strict-paper tests
	// disable it.
	Gadget bool
	// NoPiggyback disables GO piggybacking (for message-complexity
	// ablations only; the paper requires piggybacking).
	NoPiggyback bool
	// Unsafe permits N <= 2T configurations for the Theorem 14 blocking
	// demonstrations (E8). Never set it in production use.
	Unsafe bool
	// Coordinator selects which processor starts the protocol (flips the
	// coins and floods GO). The paper fixes processor 0 without loss of
	// generality; the transaction-manager layer assigns the transaction's
	// originating node. Default 0.
	Coordinator types.ProcID
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.N <= 0 {
		return fmt.Errorf("core: N must be positive, got %d", c.N)
	}
	if c.T < 0 || c.T >= c.N {
		return fmt.Errorf("core: need 0 <= T < N, got N=%d T=%d", c.N, c.T)
	}
	if !c.Unsafe && c.N <= 2*c.T {
		return fmt.Errorf("core: need N > 2T, got N=%d T=%d", c.N, c.T)
	}
	if int(c.ID) < 0 || int(c.ID) >= c.N {
		return fmt.Errorf("core: id %d out of range [0,%d)", c.ID, c.N)
	}
	if c.K < 1 {
		return fmt.Errorf("core: K must be >= 1, got %d", c.K)
	}
	if !c.Vote.Valid() {
		return fmt.Errorf("core: invalid vote %d", c.Vote)
	}
	if c.CoinFactor < 0 {
		return fmt.Errorf("core: negative coin factor %d", c.CoinFactor)
	}
	if int(c.Coordinator) < 0 || int(c.Coordinator) >= c.N {
		return fmt.Errorf("core: coordinator %d out of range [0,%d)", c.Coordinator, c.N)
	}
	return nil
}

// state is Protocol 2's control location.
type state int

const (
	stInit      state = iota // before the first step
	stWaitGo                 // instruction 2: waiting for any GO
	stWaitAllGo              // instruction 4: waiting for n GOs or 2K ticks
	stWaitVotes              // instruction 8: waiting for n votes or 2K ticks
	stAgreement              // instruction 12: running Protocol 1
)

// Commit is the Protocol 2 state machine.
type Commit struct {
	cfg   Config
	st    state
	clock int

	vote  types.Value // current vote (instruction 6 may demote it to 0)
	coins []types.Value

	goSenders map[types.ProcID]bool
	votes     map[types.ProcID]types.Value
	// waitClock is the clock value at which the current timed wait began.
	waitClock int

	sub *agreement.Machine
	// subStartClock is this machine's clock when Protocol 1 began.
	subStartClock int
	// preAgreement buffers Protocol 1 messages that arrive before this
	// processor has started Protocol 1 (others may run ahead).
	preAgreement []types.Message

	decided  bool
	decision types.Value
	halted   bool

	// out and forSub are buffers reused across Step calls (see the
	// types.Machine contract: callers consume the returned slice before
	// the next Step).
	out    []types.Message
	forSub []types.Message
}

var _ types.Machine = (*Commit)(nil)

// New builds a Protocol 2 machine.
func New(cfg Config) (*Commit, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.CoinFactor == 0 {
		cfg.CoinFactor = 1
	}
	return &Commit{
		cfg:       cfg,
		vote:      cfg.Vote,
		goSenders: make(map[types.ProcID]bool),
		votes:     make(map[types.ProcID]types.Value),
	}, nil
}

// NewSet builds the machine set of one Protocol 2 instance: processor i
// gets tmpl with ID i and Vote votes[i]. The set is typed so callers can
// inspect stages afterwards; types.Machines widens it for a scheduler.
func NewSet(tmpl Config, votes []types.Value) ([]*Commit, error) {
	if len(votes) != tmpl.N {
		return nil, fmt.Errorf("core: %d votes for N=%d", len(votes), tmpl.N)
	}
	return types.NewSet(tmpl.N, func(id types.ProcID) (*Commit, error) {
		tmpl.ID, tmpl.Vote = id, votes[id]
		return New(tmpl)
	})
}

// Factory returns the factory of fresh NewSet(tmpl, votes) machine sets
// the explorer and the lower-bound replays start every run from.
func Factory(tmpl Config, votes []types.Value) types.Factory {
	return func() ([]types.Machine, error) {
		set, err := NewSet(tmpl, votes)
		return types.Machines(set), err
	}
}

// ID implements types.Machine.
func (c *Commit) ID() types.ProcID { return c.cfg.ID }

// Clock implements types.Machine.
func (c *Commit) Clock() int { return c.clock }

// Decision implements types.Machine. The decided value is 1 for commit and
// 0 for abort; types.DecisionOf maps it to the commit-problem decision.
// The decision is recorded as soon as the embedded Protocol 1 decides
// (Protocol 1 only ever returns its decided value, so this is the same
// value instruction 13 of Protocol 2 acts on).
func (c *Commit) Decision() (types.Value, bool) { return c.decision, c.decided }

// Outcome returns the transaction decision (COMMIT/ABORT) if decided.
func (c *Commit) Outcome() (types.Decision, bool) {
	if !c.decided {
		return types.DecisionNone, false
	}
	return types.DecisionOf(c.decision), true
}

// Halted implements types.Machine.
func (c *Commit) Halted() bool { return c.halted }

// CurrentVote returns the processor's current vote. After the GO phase, a
// vote of 0 means the processor may unilaterally begin local abort
// processing (the paper: "any processor that has abort as its vote can
// actually implement the abort").
func (c *Commit) CurrentVote() types.Value { return c.vote }

// Coins returns the shared coin list once known, else nil.
func (c *Commit) Coins() []types.Value { return c.coins }

// Agreement exposes the embedded Protocol 1 machine once started (for
// stage-count experiments), else nil.
func (c *Commit) Agreement() *agreement.Machine { return c.sub }

// AgreementStartClock returns this machine's clock when it called
// Protocol 1 (0 if not yet). Theorem 10's accounting has every processor
// begin Protocol 1 by asynchronous round 6.
func (c *Commit) AgreementStartClock() int { return c.subStartClock }

// Violation reports a fault-model violation recorded by the embedded
// agreement machine, if any.
func (c *Commit) Violation() error {
	if c.sub == nil {
		return nil
	}
	return c.sub.Violation()
}

// Step implements types.Machine.
func (c *Commit) Step(received []types.Message, rnd types.Rand) []types.Message {
	c.clock++
	if c.halted {
		return nil
	}

	forSub := c.forSub[:0]
	for i := range received {
		inner, pbCoins := Unwrap(received[i].Payload)
		if pbCoins != nil && c.coins == nil {
			c.coins = pbCoins
		}
		switch p := inner.(type) {
		case GoMsg:
			if c.coins == nil {
				c.coins = p.Coins
			}
			c.goSenders[received[i].From] = true
		case VoteMsg:
			if _, dup := c.votes[received[i].From]; !dup {
				c.votes[received[i].From] = p.Val
			}
		case agreement.ReportMsg, agreement.ProposalMsg, agreement.DecidedMsg:
			m := received[i]
			m.Payload = inner
			if c.sub == nil {
				c.preAgreement = append(c.preAgreement, m)
			} else {
				forSub = append(forSub, m)
			}
		}
	}

	out := c.out[:0]
	// Cascade through control states as far as current knowledge allows.
	for progress := true; progress; {
		progress = false
		switch c.st {
		case stInit:
			if c.cfg.ID == c.cfg.Coordinator {
				// Instruction 1: flip c*n coins, broadcast GO.
				c.coins = rnd.Bits(c.cfg.CoinFactor * c.cfg.N)
				out = c.broadcast(out, GoMsg{Coins: c.coins}, false)
				c.waitClock = c.clock
				c.st = stWaitAllGo
			} else {
				c.st = stWaitGo
			}
			progress = true
		case stWaitGo:
			// Instruction 2–3: on first contact, relay GO.
			if c.coins != nil {
				out = c.broadcast(out, GoMsg{Coins: c.coins}, false)
				c.waitClock = c.clock
				c.st = stWaitAllGo
				progress = true
			}
		case stWaitAllGo:
			// Instruction 4–7: n GOs, or 2K ticks then demote to abort.
			done := len(c.goSenders) >= c.cfg.N
			if !done && c.clock-c.waitClock >= 2*c.cfg.K {
				c.vote = types.V0
				done = true
			}
			if done {
				out = c.broadcast(out, VoteMsg{Val: c.vote}, true)
				c.waitClock = c.clock
				c.st = stWaitVotes
				progress = true
			}
		case stWaitVotes:
			// Instruction 8–12: n votes (all commit => input 1), or 2K
			// ticks (=> input 0); then call Protocol 1.
			var input types.Value
			done := false
			if len(c.votes) >= c.cfg.N {
				input = types.V1
				for _, v := range c.votes {
					if v != types.V1 {
						input = types.V0
						break
					}
				}
				done = true
			} else if c.clock-c.waitClock >= 2*c.cfg.K {
				input = types.V0
				done = true
			}
			if done {
				// startAgreement performs the sub-machine's first step,
				// so do not cascade into stAgreement this tick.
				out = c.startAgreement(out, input, rnd)
				c.st = stAgreement
			}
		case stAgreement:
			// Drive the embedded Protocol 1 with this step's messages.
			subOut := c.sub.Step(forSub, rnd)
			forSub = forSub[:0]
			out = append(out, c.wrapAll(subOut)...)
			if v, ok := c.sub.Decision(); ok && !c.decided {
				c.decided = true
				c.decision = v
			}
			if c.sub.Halted() {
				c.halted = true
			}
			// No cascade: one sub-step per clock tick.
		}
	}
	c.out = out
	c.forSub = forSub[:0]
	return out
}

// startAgreement builds the Protocol 1 machine and feeds it any buffered
// early messages; its first step broadcasts (1, 1, input). Sends are
// appended to out.
func (c *Commit) startAgreement(out []types.Message, input types.Value, rnd types.Rand) []types.Message {
	// A processor reaches this point only after first contact, so c.coins
	// is set in admissible runs; a nil list degrades ListCoin to local
	// flips, which is safe.
	sub, err := agreement.New(agreement.Config{
		ID:      c.cfg.ID,
		N:       c.cfg.N,
		T:       c.cfg.T,
		Initial: input,
		Coins:   agreement.ListCoin{Coins: c.coins},
		Gadget:  c.cfg.Gadget,
		Unsafe:  c.cfg.Unsafe,
	})
	if err != nil {
		// Config was validated at New; an error here is a programming
		// bug, surfaced by halting without deciding (visible to tests).
		c.halted = true
		return out
	}
	c.sub = sub
	c.subStartClock = c.clock
	first := sub.Step(c.preAgreement, rnd)
	c.preAgreement = nil
	return append(out, c.wrapAll(first)...)
}

// wrapAll applies GO piggybacking to outgoing protocol messages. The
// inputs are Protocol 1 broadcasts, where all n messages of a broadcast
// share one payload value: wrapping allocates one Piggyback box per
// distinct payload, not one per message.
func (c *Commit) wrapAll(msgs []types.Message) []types.Message {
	if c.cfg.NoPiggyback || c.coins == nil {
		return msgs
	}
	var lastInner, lastWrapped types.Payload
	for i := range msgs {
		p := msgs[i].Payload
		switch p.(type) {
		case agreement.ReportMsg, agreement.ProposalMsg, agreement.DecidedMsg, VoteMsg:
			// Comparable payload types: safe to test interface equality
			// against the previous message (a broadcast repeats the same
			// boxed value n times).
			if p == lastInner {
				msgs[i].Payload = lastWrapped
				continue
			}
			lastInner = p
			lastWrapped = Piggyback{Inner: p, Coins: c.coins}
			msgs[i].Payload = lastWrapped
		default:
			msgs[i].Payload = Piggyback{Inner: p, Coins: c.coins}
		}
	}
	return msgs
}

// broadcast appends a send of p to all processors, optionally
// piggybacking GO.
func (c *Commit) broadcast(out []types.Message, p types.Payload, piggyback bool) []types.Message {
	if piggyback && !c.cfg.NoPiggyback && c.coins != nil {
		p = Piggyback{Inner: p, Coins: c.coins}
	}
	return types.AppendBroadcast(out, c.cfg.ID, c.cfg.N, p)
}
