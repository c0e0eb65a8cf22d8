package core

// BatchCommit is Protocol 2 generalized to decide a vector of outcomes
// for a batch of B concurrent transactions in one run: one coin flood,
// one (vectored) vote exchange, one (vectored) Protocol 1 execution.
// Per-transaction semantics are preserved element-wise — element i
// commits iff every processor's vote vector has commit at i and the
// embedded vector agreement decides 1 there — so each transaction gets
// exactly the guarantee Theorem 11 gives a scalar run (project every
// message onto element i).
//
// The cost model is the whole point: a scalar instance spends one GO
// round, one vote round, and ~3 expected agreement stages per
// transaction; a batch spends the same rounds once for all B.

import (
	"fmt"

	"repro/internal/agreement"
	"repro/internal/types"
)

// BatchVoteMsg carries a processor's vote vector for a batch: one Value
// per transaction, 1 to commit.
type BatchVoteMsg struct {
	Vals []types.Value
}

// Kind implements types.Payload.
func (BatchVoteMsg) Kind() string { return "tc.bvote" }

// String implements fmt.Stringer.
func (m BatchVoteMsg) String() string { return fmt.Sprintf("BVOTE([%d])", len(m.Vals)) }

// SizeBits implements types.Sized: tag + 16-bit count + one bit per vote.
func (m BatchVoteMsg) SizeBits() int { return 8 + 16 + len(m.Vals) }

// BatchConfig parameterizes a batched Protocol 2 machine.
type BatchConfig struct {
	ID types.ProcID
	N  int // total processors
	T  int // fault tolerance; requires N > 2T
	K  int // the timing constant of §2.2
	// Votes is this processor's initial vote vector (1 = commit); its
	// length fixes the batch width for every participant.
	Votes []types.Value
	// CoinFactor c makes the coordinator flip c*n coins instead of n.
	CoinFactor int
	// Coordinator selects which processor floods GO. Default 0.
	Coordinator types.ProcID
}

// Validate checks the configuration.
func (c BatchConfig) Validate() error {
	if c.N <= 0 {
		return fmt.Errorf("core: N must be positive, got %d", c.N)
	}
	if c.T < 0 || c.N <= 2*c.T {
		return fmt.Errorf("core: need N > 2T, got N=%d T=%d", c.N, c.T)
	}
	if int(c.ID) < 0 || int(c.ID) >= c.N {
		return fmt.Errorf("core: id %d out of range [0,%d)", c.ID, c.N)
	}
	if c.K < 1 {
		return fmt.Errorf("core: K must be >= 1, got %d", c.K)
	}
	if len(c.Votes) == 0 {
		return fmt.Errorf("core: empty batch vote vector")
	}
	for i, v := range c.Votes {
		if !v.Valid() {
			return fmt.Errorf("core: invalid vote %d at element %d", v, i)
		}
	}
	if c.CoinFactor < 0 {
		return fmt.Errorf("core: negative coin factor %d", c.CoinFactor)
	}
	if int(c.Coordinator) < 0 || int(c.Coordinator) >= c.N {
		return fmt.Errorf("core: coordinator %d out of range [0,%d)", c.Coordinator, c.N)
	}
	return nil
}

// BatchCommit is the batched Protocol 2 state machine. It follows the
// types.Machine step contract (returned slices are reusable scratch).
type BatchCommit struct {
	cfg   BatchConfig
	b     int // batch width
	st    state
	clock int

	// votes is the own vote vector (a GO timeout demotes all of it); it is
	// sent as is, so nothing writes it once voted. input is the agreement
	// input computed from the vote vectors.
	votes []types.Value
	input []types.Value
	coins []types.Value
	coin  agreement.ListCoin // the agreement's coin source, over coins

	// peers[p] is what processor p sent: its explicit GO and its vote
	// vector. goes and voted count the peers that sent each.
	peers     []peer
	goes      int
	voted     int
	waitClock int

	// ag is prepared at construction, so Protocol 1 frames that arrive
	// before this processor's input is known wait on its bulletin board;
	// it runs once agreeing.
	ag       agreement.VectorMachine
	agreeing bool

	halted bool

	out []types.Message
}

// peer is what one processor sent a batch machine: its explicit GO and
// its vote vector (nil until received).
type peer struct {
	goSeen bool
	vote   []types.Value
}

var _ types.Machine = (*BatchCommit)(nil)

// NewBatch builds a batched Protocol 2 machine.
func NewBatch(cfg BatchConfig) (*BatchCommit, error) {
	c := new(BatchCommit)
	if err := c.Init(cfg); err != nil {
		return nil, err
	}
	return c, nil
}

// Init builds the machine in place, so a caller may embed it by value.
// cfg.Votes is copied, not kept.
func (c *BatchCommit) Init(cfg BatchConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.CoinFactor == 0 {
		cfg.CoinFactor = 1
	}
	b := len(cfg.Votes)
	vals := make([]types.Value, 2*b)
	*c = BatchCommit{
		cfg:   cfg,
		b:     b,
		votes: vals[:b:b],
		input: vals[b:],
		peers: make([]peer, cfg.N),
	}
	copy(c.votes, cfg.Votes)
	c.cfg.Votes = nil
	c.ag.Prepare(cfg.ID, cfg.N, cfg.T, b)
	return nil
}

// ID implements types.Machine.
func (c *BatchCommit) ID() types.ProcID { return c.cfg.ID }

// Clock implements types.Machine.
func (c *BatchCommit) Clock() int { return c.clock }

// Width returns the batch width B.
func (c *BatchCommit) Width() int { return c.b }

// Decision implements types.Machine with the batch conjunction: decided
// once every element has, with value 1 iff every element committed.
// Engines with decision-based stop conditions treat the batch as one
// unit; per-transaction outcomes come from OutcomeAt.
func (c *BatchCommit) Decision() (types.Value, bool) {
	if c.ag.DecidedCount() < c.b {
		return 0, false
	}
	all := types.V1
	for i := 0; i < c.b; i++ {
		if v, _ := c.ag.DecidedAt(i); v != types.V1 {
			all = types.V0
		}
	}
	return all, true
}

// OutcomeAt returns element i's transaction decision, if decided.
// Elements decide individually; callers poll as the batch progresses.
func (c *BatchCommit) OutcomeAt(i int) (types.Decision, bool) {
	v, ok := c.ag.DecidedAt(i)
	if !ok {
		return types.DecisionNone, false
	}
	return types.DecisionOf(v), true
}

// DecidedCount returns how many elements have decided.
func (c *BatchCommit) DecidedCount() int { return c.ag.DecidedCount() }

// Halted implements types.Machine.
func (c *BatchCommit) Halted() bool { return c.halted }

// Coins returns the shared coin list once known, else nil.
func (c *BatchCommit) Coins() []types.Value { return c.coins }

// Agreement exposes the embedded vector agreement once started.
func (c *BatchCommit) Agreement() *agreement.VectorMachine {
	if !c.agreeing {
		return nil
	}
	return &c.ag
}

// Violation reports a fault-model violation recorded by the embedded
// agreement machine, if any.
func (c *BatchCommit) Violation() error { return c.ag.Violation() }

// Step implements types.Machine: one tick of the timeout clock, then the
// transition. The control flow is Protocol 2's: GO flood → 2K-tick GO wait
// → vectored vote exchange with a 2K-tick timeout, cut short once an abort
// vote covers every element → vector agreement, with GO piggybacked on
// everything.
func (c *BatchCommit) Step(received []types.Message, rnd types.Rand) []types.Message {
	c.out = c.AppendStep(c.out[:0], received, rnd)
	return c.out
}

// AppendStep is Step appending the sent messages to dst instead of the
// machine's own scratch, so one caller stepping many machines keeps one
// buffer for all of them (see types.Machine).
func (c *BatchCommit) AppendStep(dst, received []types.Message, rnd types.Rand) []types.Message {
	c.clock++
	return c.transition(dst, received, rnd, c.clock)
}

// Deliver hands the machine messages between ticks: the same transition
// with the clock left alone, so no 2K comparison can newly hold inside it —
// a timeout fires on a Step or not at all. A wait that starts here is
// stamped with the next tick, so it runs its 2K ticks in full whatever
// fraction of the current one has already passed.
func (c *BatchCommit) Deliver(received []types.Message, rnd types.Rand) []types.Message {
	c.out = c.AppendDeliver(c.out[:0], received, rnd)
	return c.out
}

// AppendDeliver is Deliver appending to dst, as AppendStep is Step.
func (c *BatchCommit) AppendDeliver(dst, received []types.Message, rnd types.Rand) []types.Message {
	return c.transition(dst, received, rnd, c.clock+1)
}

// transition is the one protocol body behind Step and Deliver: it appends
// what it sends to out. now stamps the waits it starts.
func (c *BatchCommit) transition(out, received []types.Message, rnd types.Rand, now int) []types.Message {
	if c.halted {
		return out
	}

	// votesChanged: a vote vector — a received one, or this processor's own
	// as it votes — joined those in hand during this transition. Only then
	// can the vote wait's forced exit newly hold.
	votesChanged := false
	for i := range received {
		inner, pbCoins := Unwrap(received[i].Payload)
		if pbCoins != nil && c.coins == nil {
			c.coins = pbCoins
		}
		from := received[i].From
		if int(from) < 0 || int(from) >= c.cfg.N {
			continue
		}
		switch p := inner.(type) {
		case GoMsg:
			if c.coins == nil {
				c.coins = p.Coins
			}
			if !c.peers[from].goSeen {
				c.peers[from].goSeen = true
				c.goes++
			}
		case BatchVoteMsg:
			// A wrong-width vector carries no evidence for this batch.
			if len(p.Vals) != c.b {
				continue
			}
			if c.peers[from].vote == nil {
				c.peers[from].vote = p.Vals
				c.voted++
				votesChanged = true
			}
		case agreement.VecReportMsg, agreement.VecProposalMsg, agreement.VecDecidedMsg:
			// Before agreement starts the frame waits on its board.
			m := received[i]
			m.Payload = inner
			c.ag.Post(m)
		}
	}

	for progress := true; progress; {
		progress = false
		switch c.st {
		case stInit:
			if c.cfg.ID == c.cfg.Coordinator {
				// Instruction 1: flip c*n coins, broadcast GO once for the
				// whole batch.
				c.coins = rnd.Bits(c.cfg.CoinFactor * c.cfg.N)
				out = c.broadcast(out, GoMsg{Coins: c.coins}, false)
				c.waitClock = now
				c.st = stWaitAllGo
			} else {
				c.st = stWaitGo
			}
			progress = true
		case stWaitGo:
			// Instruction 2–3: on first contact, relay GO.
			if c.coins != nil {
				out = c.broadcast(out, GoMsg{Coins: c.coins}, false)
				c.waitClock = now
				c.st = stWaitAllGo
				progress = true
			}
		case stWaitAllGo:
			// Instruction 4–7: n GOs, or 2K ticks then demote every vote
			// in the vector to abort (the timed-out processor cannot tell
			// which transactions its silent peers know about).
			done := c.goes >= c.cfg.N
			if !done && c.clock-c.waitClock >= 2*c.cfg.K {
				for i := range c.votes {
					c.votes[i] = types.V0
				}
				done = true
			}
			if done {
				out = c.broadcast(out, BatchVoteMsg{Vals: c.votes}, true)
				c.waitClock = now
				c.st = stWaitVotes
				progress, votesChanged = true, true
			}
		case stWaitVotes:
			// Instruction 8–12, element-wise: with all n vote vectors,
			// input[i] = 1 iff every vector commits at i; on timeout the
			// whole input vector is 0. A third exit is a content event, not
			// a timeout, so it may fire in a Deliver: once every element
			// holds an abort vote, no vector still to come can lift an
			// input[i] to 1, and agreement starts at once with the all-zero
			// input either other exit would have produced.
			done := false
			if c.voted >= c.cfg.N {
				for i := range c.input {
					c.input[i] = types.V1
				}
				for _, pr := range c.peers {
					for i, v := range pr.vote {
						if v != types.V1 {
							c.input[i] = types.V0
						}
					}
				}
				done = true
			} else if c.clock-c.waitClock >= 2*c.cfg.K || votesChanged && c.inputForced() {
				done = true // input stays all zero
			}
			if done {
				out = c.startAgreement(out, rnd)
				c.st = stAgreement
			}
		case stAgreement:
			start := len(out)
			out = c.ag.AppendStep(out, nil, rnd)
			c.wrapAllBatch(out[start:])
			if c.ag.Halted() {
				c.halted = true
			}
		}
	}
	return out
}

// inputForced reports whether every element holds an abort vote, in this
// processor's own vector or in a received one.
func (c *BatchCommit) inputForced() bool {
next:
	for i, v := range c.votes {
		if v != types.V1 {
			continue
		}
		for _, pr := range c.peers {
			if pr.vote != nil && pr.vote[i] != types.V1 {
				continue next
			}
		}
		return false
	}
	return true
}

// startAgreement starts the vector agreement on the input vector and
// takes its first step, on whatever early frames its board holds.
func (c *BatchCommit) startAgreement(out []types.Message, rnd types.Rand) []types.Message {
	c.coin = agreement.ListCoin{Coins: c.coins}
	c.ag.Start(c.input, &c.coin)
	c.agreeing = true
	start := len(out)
	out = c.ag.AppendStep(out, nil, rnd)
	c.wrapAllBatch(out[start:])
	return out
}

// wrapAllBatch applies GO piggybacking to outgoing agreement messages in
// place, allocating one Piggyback box per distinct broadcast payload.
func (c *BatchCommit) wrapAllBatch(msgs []types.Message) {
	if c.coins == nil {
		return
	}
	var lastInner, lastWrapped types.Payload
	for i := range msgs {
		p := msgs[i].Payload
		if lastInner != nil && SamePayload(p, lastInner) {
			msgs[i].Payload = lastWrapped
			continue
		}
		lastInner = p
		lastWrapped = Piggyback{Inner: p, Coins: c.coins}
		msgs[i].Payload = lastWrapped
	}
}

// SamePayload reports whether a and b are the same broadcast payload of a
// batch machine, so a wrapper can box it once for all n frames. The
// payloads hold slices, so plain interface equality would panic; a
// broadcast repeats the same value (hence the same backing arrays) n
// times, and SamePayload detects that by stage and slice identity.
func SamePayload(a, b types.Payload) bool {
	switch x := a.(type) {
	case Piggyback:
		y, ok := b.(Piggyback)
		return ok && sameValueSlice(x.Coins, y.Coins) && SamePayload(x.Inner, y.Inner)
	case GoMsg:
		y, ok := b.(GoMsg)
		return ok && sameValueSlice(x.Coins, y.Coins)
	case BatchVoteMsg:
		y, ok := b.(BatchVoteMsg)
		return ok && sameValueSlice(x.Vals, y.Vals)
	case agreement.VecReportMsg:
		y, ok := b.(agreement.VecReportMsg)
		return ok && x.Stage == y.Stage && sameValueSlice(x.Vals, y.Vals)
	case agreement.VecProposalMsg:
		y, ok := b.(agreement.VecProposalMsg)
		return ok && x.Stage == y.Stage && sameValueSlice(x.Vals, y.Vals)
	case agreement.VecDecidedMsg:
		y, ok := b.(agreement.VecDecidedMsg)
		return ok && sameValueSlice(x.Vals, y.Vals)
	}
	return false
}

// sameValueSlice reports slice identity: same length and same first
// element address (vector widths are always >= 1).
func sameValueSlice(a, b []types.Value) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// broadcast appends a send of p to all processors, optionally
// piggybacking GO.
func (c *BatchCommit) broadcast(out []types.Message, p types.Payload, piggyback bool) []types.Message {
	if piggyback && c.coins != nil {
		p = Piggyback{Inner: p, Coins: c.coins}
	}
	return types.AppendBroadcast(out, c.cfg.ID, c.cfg.N, p)
}
