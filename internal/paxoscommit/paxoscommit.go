// Package paxoscommit implements Gray & Lamport's Paxos Commit (Consensus
// on Transaction Commit, §5) on the repository's formal step model: one
// single-decree Paxos instance per resource manager's prepared/aborted
// value, with the coordinator acting as the initial leader for every
// instance and the global outcome combined from the per-instance choices
// (commit iff every instance chooses prepared).
//
// The mapping onto the paper's n-processor commit problem is direct: each
// of the n processors plays three co-located roles — the resource manager
// for its own instance (its vote is the instance's ballot-0 value), one of
// the n acceptors shared by all instances, and a potential leader. With a
// majority quorum of ⌊n/2⌋+1 acceptors the protocol tolerates any
// t < n/2 crashes, the same envelope as Protocol 2, which is what makes
// the two comparable in the protocol arena (internal/protocol): both are
// nonblocking wherever 2PC blocks, and Paxos Commit pays for it in
// messages rather than randomness.
//
// Normal case (no faults): every RM broadcasts a ballot-0 phase-2a message
// carrying its vote for its own instance; acceptors accept and send 2b to
// the ballot-0 leader (the coordinator); the coordinator observes a
// majority per instance, combines, and broadcasts the outcome. That is
// five message delays, 2PC's three plus two, and Θ(n²) messages.
//
// Fault case: any processor that waits too long without learning the
// outcome starts a classic Paxos takeover for every instance it has not
// seen chosen — phase 1a at a ballot it owns (ballot b is owned by
// processor b mod n; takeover ballots are attempt·n + id ≥ n > 0), value
// selection by highest accepted ballot from a majority of 1b replies with
// the Gray–Lamport "free case" choosing abort for an unresponsive RM's
// instance — then phase 2. Staggered, escalating takeover timeouts keep
// dueling leaders from livelocking; quorum intersection keeps every ballot
// choosing the same value per instance, so no wrong answer is possible no
// matter the timing.
package paxoscommit

import (
	"fmt"

	"repro/internal/types"
)

// Prepare1aMsg is a leader's phase-1a ballot solicitation for one
// instance.
type Prepare1aMsg struct {
	Instance types.ProcID
	Ballot   int
}

// Kind implements types.Payload.
func (Prepare1aMsg) Kind() string { return "pc.1a" }

// SizeBits implements types.Sized: tag + 16-bit instance + 32-bit ballot.
func (Prepare1aMsg) SizeBits() int { return 8 + 16 + 32 }

// Promise1bMsg is an acceptor's phase-1b reply: its last accepted ballot
// and value for the instance (VBal < 0 means none).
type Promise1bMsg struct {
	Instance types.ProcID
	Ballot   int
	VBal     int
	VVal     types.Value
}

// Kind implements types.Payload.
func (Promise1bMsg) Kind() string { return "pc.1b" }

// SizeBits implements types.Sized: tag + instance + two ballots + value.
func (Promise1bMsg) SizeBits() int { return 8 + 16 + 32 + 32 + 1 }

// Accept2aMsg is a phase-2a value proposal: ballot 0 comes straight from
// the instance's resource manager carrying its vote; higher ballots come
// from takeover leaders.
type Accept2aMsg struct {
	Instance types.ProcID
	Ballot   int
	Val      types.Value
}

// Kind implements types.Payload.
func (Accept2aMsg) Kind() string { return "pc.2a" }

// SizeBits implements types.Sized: tag + instance + ballot + value.
func (Accept2aMsg) SizeBits() int { return 8 + 16 + 32 + 1 }

// Accepted2bMsg is an acceptor's phase-2b vote, sent to the ballot's
// owner.
type Accepted2bMsg struct {
	Instance types.ProcID
	Ballot   int
	Val      types.Value
}

// Kind implements types.Payload.
func (Accepted2bMsg) Kind() string { return "pc.2b" }

// SizeBits implements types.Sized: tag + instance + ballot + value.
func (Accepted2bMsg) SizeBits() int { return 8 + 16 + 32 + 1 }

// OutcomeMsg broadcasts the combined transaction outcome once some leader
// has seen every instance chosen (or any instance choose abort).
type OutcomeMsg struct {
	Val types.Value
}

// Kind implements types.Payload.
func (OutcomeMsg) Kind() string { return "pc.outcome" }

// SizeBits implements types.Sized: tag + value bit.
func (OutcomeMsg) SizeBits() int { return 8 + 1 }

// Config parameterizes a Paxos Commit machine.
type Config struct {
	ID types.ProcID
	N  int
	T  int // crash budget, informational; the quorum is always ⌊N/2⌋+1
	K  int // timing constant, scales the takeover timeouts
	// Vote is this resource manager's prepared (1) / aborted (0) value.
	Vote types.Value
	// Leader is the initial leader owning ballot 0 (the coordinator).
	// Default 0.
	Leader types.ProcID
	// TakeoverTimeout is the base wait, in clock ticks, before an
	// undecided processor starts a Paxos takeover (zero: 8K). Attempt i
	// waits an extra i·TakeoverTimeout, and processors stagger by
	// 2K·id, so concurrent takeovers drift apart instead of dueling.
	TakeoverTimeout int
}

func (c Config) validate() error {
	if c.N <= 0 {
		return fmt.Errorf("paxoscommit: N must be positive, got %d", c.N)
	}
	if int(c.ID) < 0 || int(c.ID) >= c.N {
		return fmt.Errorf("paxoscommit: id %d out of range [0,%d)", c.ID, c.N)
	}
	if int(c.Leader) < 0 || int(c.Leader) >= c.N {
		return fmt.Errorf("paxoscommit: leader %d out of range [0,%d)", c.Leader, c.N)
	}
	if c.K < 1 {
		return fmt.Errorf("paxoscommit: K must be >= 1, got %d", c.K)
	}
	if c.T < 0 || 2*c.T >= c.N {
		return fmt.Errorf("paxoscommit: need 0 <= T < N/2, got N=%d T=%d", c.N, c.T)
	}
	if !c.Vote.Valid() {
		return fmt.Errorf("paxoscommit: invalid vote %d", c.Vote)
	}
	return nil
}

// promise records one 1b reply.
type promise struct {
	vbal int
	vval types.Value
}

// Machine is one Paxos Commit processor: resource manager for its own
// instance, acceptor for all instances, and potential leader.
type Machine struct {
	cfg    Config
	clock  int
	quorum int

	started bool // RM ballot-0 2a sent

	// Acceptor state, per instance.
	maxBal []int // highest ballot promised or accepted; -1 initially
	accBal []int // ballot of last accepted value; -1 = none
	accVal []types.Value

	// Learner state, per instance.
	chosen    []bool
	chosenVal []types.Value

	// Leader state for the ballot this machine currently owns (curBal < 0
	// when not leading). The initial leader starts owning ballot 0.
	curBal   int
	attempt  int
	nextTake int                        // clock of the next takeover attempt
	prom     []map[types.ProcID]promise // per instance, for curBal
	sent2a   []bool                     // per instance, for curBal
	acc2b    []map[types.ProcID]bool    // per instance, for curBal

	decided  bool
	decision types.Value
	halted   bool

	out []types.Message // reusable output buffer (types.Machine contract)
}

var _ types.Machine = (*Machine)(nil)

// New builds a Paxos Commit machine.
func New(cfg Config) (*Machine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.TakeoverTimeout == 0 {
		cfg.TakeoverTimeout = 8 * cfg.K
	}
	n := cfg.N
	m := &Machine{
		cfg:       cfg,
		quorum:    n/2 + 1,
		maxBal:    make([]int, n),
		accBal:    make([]int, n),
		accVal:    make([]types.Value, n),
		chosen:    make([]bool, n),
		chosenVal: make([]types.Value, n),
		curBal:    -1,
		prom:      make([]map[types.ProcID]promise, n),
		sent2a:    make([]bool, n),
		acc2b:     make([]map[types.ProcID]bool, n),
	}
	for i := range m.maxBal {
		m.maxBal[i] = -1
		m.accBal[i] = -1
	}
	if cfg.ID == cfg.Leader {
		m.curBal = 0 // the coordinator passively leads ballot 0
	}
	// First takeover: base + per-attempt escalation, staggered by id so
	// the lowest-id survivor tends to win leadership uncontested.
	m.nextTake = cfg.TakeoverTimeout + 2*cfg.K*int(cfg.ID)
	return m, nil
}

// ID implements types.Machine.
func (m *Machine) ID() types.ProcID { return m.cfg.ID }

// Clock implements types.Machine.
func (m *Machine) Clock() int { return m.clock }

// Decision implements types.Machine.
func (m *Machine) Decision() (types.Value, bool) { return m.decision, m.decided }

// Halted implements types.Machine.
func (m *Machine) Halted() bool { return m.halted }

// Outcome returns the transaction decision (COMMIT/ABORT) if decided.
func (m *Machine) Outcome() (types.Decision, bool) {
	if !m.decided {
		return types.DecisionNone, false
	}
	return types.DecisionOf(m.decision), true
}

// Blocked reports whether the machine is stuck in a state with no timeout
// rule. Paxos Commit has none: an undecided processor always has a next
// takeover scheduled, so this is false by construction (the name table's
// rows use it uniformly across protocols).
func (m *Machine) Blocked() bool { return false }

// ChosenInstances returns how many per-RM instances this machine has
// observed chosen (for diagnostics and tests).
func (m *Machine) ChosenInstances() int {
	c := 0
	for _, ok := range m.chosen {
		if ok {
			c++
		}
	}
	return c
}

// Attempts returns the number of Paxos takeovers this machine started
// (0 in the fault-free fast path).
func (m *Machine) Attempts() int { return m.attempt }

// owner maps a ballot to the processor that owns it: ballot 0 belongs to
// the configured initial leader; takeover ballots b = attempt·N + id
// (attempt ≥ 1) belong to b mod N.
func (m *Machine) owner(ballot int) types.ProcID {
	if ballot == 0 {
		return m.cfg.Leader
	}
	return types.ProcID(ballot % m.cfg.N)
}

// Step implements types.Machine.
func (m *Machine) Step(received []types.Message, _ types.Rand) []types.Message {
	m.clock++
	if m.halted {
		return nil
	}
	out := m.out[:0]

	// Resource manager: the first step broadcasts the ballot-0 2a for this
	// processor's own instance, carrying its vote. This is the RM "acting
	// as the ballot-0 leader for its instance" shortcut of Gray–Lamport
	// §5: it saves phase 1 entirely in the fault-free case.
	if !m.started {
		m.started = true
		out = types.AppendBroadcast(out, m.cfg.ID, m.cfg.N,
			Accept2aMsg{Instance: m.cfg.ID, Ballot: 0, Val: m.cfg.Vote})
	}

	for i := range received {
		out = m.handle(out, received[i])
		if m.halted {
			m.out = out
			return out
		}
	}

	// Takeover timer: undecided and out of patience means this processor
	// assumes leadership at the next ballot it owns and runs phase 1 for
	// every instance it has not seen chosen.
	if !m.decided && m.clock >= m.nextTake {
		m.attempt++
		m.curBal = m.attempt*m.cfg.N + int(m.cfg.ID)
		m.nextTake = m.clock + m.cfg.TakeoverTimeout*(m.attempt+1)
		for i := 0; i < m.cfg.N; i++ {
			m.prom[i] = nil
			m.sent2a[i] = false
			m.acc2b[i] = nil
			if m.chosen[i] {
				continue
			}
			out = types.AppendBroadcast(out, m.cfg.ID, m.cfg.N,
				Prepare1aMsg{Instance: types.ProcID(i), Ballot: m.curBal})
		}
	}

	m.out = out
	return out
}

// handle processes one message, appending any sends to out.
func (m *Machine) handle(out []types.Message, msg types.Message) []types.Message {
	switch p := msg.Payload.(type) {
	case Prepare1aMsg:
		i := int(p.Instance)
		if i < 0 || i >= m.cfg.N {
			return out
		}
		// Acceptor phase 1: promise the ballot and report the last
		// accepted (ballot, value). Re-promising an equal ballot resends
		// the 1b, which keeps duplicated or reordered 1a traffic harmless.
		if p.Ballot >= m.maxBal[i] {
			m.maxBal[i] = p.Ballot
			out = append(out, types.Message{
				From: m.cfg.ID, To: m.owner(p.Ballot),
				Payload: Promise1bMsg{Instance: p.Instance, Ballot: p.Ballot,
					VBal: m.accBal[i], VVal: m.accVal[i]},
			})
		}
		return out

	case Promise1bMsg:
		i := int(p.Instance)
		if i < 0 || i >= m.cfg.N {
			return out
		}
		// Leader phase 1: collect a majority of promises for the ballot
		// this machine currently owns, then propose per the Paxos value
		// rule — highest accepted ballot wins; a free instance gets this
		// RM's own vote (if the instance is ours) or abort (the
		// Gray–Lamport free case: an RM that never reported is presumed
		// crashed, and abort is always safe).
		if m.curBal <= 0 || p.Ballot != m.curBal || m.chosen[i] || m.sent2a[i] {
			return out
		}
		if m.prom[i] == nil {
			m.prom[i] = make(map[types.ProcID]promise)
		}
		if _, dup := m.prom[i][msg.From]; !dup {
			m.prom[i][msg.From] = promise{vbal: p.VBal, vval: p.VVal}
		}
		if len(m.prom[i]) < m.quorum {
			return out
		}
		val := types.V0
		if types.ProcID(i) == m.cfg.ID {
			val = m.cfg.Vote
		}
		best := -1
		for _, pr := range m.prom[i] {
			if pr.vbal > best {
				best = pr.vbal
				val = pr.vval
			}
		}
		m.sent2a[i] = true
		return types.AppendBroadcast(out, m.cfg.ID, m.cfg.N,
			Accept2aMsg{Instance: p.Instance, Ballot: m.curBal, Val: val})

	case Accept2aMsg:
		i := int(p.Instance)
		if i < 0 || i >= m.cfg.N {
			return out
		}
		// Acceptor phase 2: accept unless a higher ballot was promised,
		// and report the acceptance to the ballot's owner.
		if p.Ballot >= m.maxBal[i] {
			m.maxBal[i] = p.Ballot
			m.accBal[i] = p.Ballot
			m.accVal[i] = p.Val
			out = append(out, types.Message{
				From: m.cfg.ID, To: m.owner(p.Ballot),
				Payload: Accepted2bMsg{Instance: p.Instance, Ballot: p.Ballot, Val: p.Val},
			})
		}
		return out

	case Accepted2bMsg:
		i := int(p.Instance)
		if i < 0 || i >= m.cfg.N {
			return out
		}
		// Learner: a majority of 2b votes at one ballot chooses the
		// instance's value. Only the ballot's owner hears 2b traffic, and
		// it only counts the ballot it currently owns.
		if m.chosen[i] || m.curBal < 0 || p.Ballot != m.curBal {
			return out
		}
		if m.acc2b[i] == nil {
			m.acc2b[i] = make(map[types.ProcID]bool)
		}
		m.acc2b[i][msg.From] = true
		if len(m.acc2b[i]) < m.quorum {
			return out
		}
		m.chosen[i] = true
		m.chosenVal[i] = p.Val
		return m.maybeCombine(out)

	case OutcomeMsg:
		// Learning the combined outcome ends the protocol.
		m.finish(p.Val)
		return out

	default:
		return out
	}
}

// maybeCombine applies the combine rule: any instance chosen aborted
// decides abort immediately; all n instances chosen prepared decides
// commit. The deciding leader broadcasts the outcome and halts — the
// broadcast is sent at a non-final step of a non-crashed processor, so the
// model guarantees its eventual delivery to every other processor.
func (m *Machine) maybeCombine(out []types.Message) []types.Message {
	abort := false
	all := true
	for i := 0; i < m.cfg.N; i++ {
		if !m.chosen[i] {
			all = false
			continue
		}
		if m.chosenVal[i] == types.V0 {
			abort = true
		}
	}
	if !abort && !all {
		return out
	}
	outcome := types.V1
	if abort {
		outcome = types.V0
	}
	out = types.AppendBroadcast(out, m.cfg.ID, m.cfg.N, OutcomeMsg{Val: outcome})
	m.finish(outcome)
	return out
}

// finish decides v (decisions are absorbing) and halts.
func (m *Machine) finish(v types.Value) {
	if !m.decided {
		m.decided = true
		m.decision = v
	}
	m.halted = true
}
