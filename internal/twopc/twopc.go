// Package twopc implements two-phase commit, the classic synchronous
// transaction commit protocol the paper contrasts with ([S]; see §1).
//
// 2PC is built for a synchronous network: the coordinator collects votes
// and broadcasts the outcome; participants infer abort from silence. Its
// two standard participant policies are both defective in the paper's
// almost-asynchronous model, which is the point of experiment E7:
//
//   - PolicyTimeoutAbort: a participant that voted yes and hears nothing
//     within its timeout presumes abort. One late COMMIT message then
//     yields inconsistent decisions (some commit, some abort) — "a single
//     violation of the timing assumptions can cause the protocol to
//     produce the wrong answer".
//   - PolicyBlock: a participant that voted yes waits forever for the
//     outcome. That is safe but blocks on coordinator failure — the
//     blocking problem that motivated three-phase commit.
//
// The machines run under the same simulator and adversaries as Protocol 2
// so the comparison is apples to apples.
package twopc

import (
	"fmt"

	"repro/internal/types"
)

// Policy selects the participant's reaction to a missing outcome.
type Policy int

const (
	// PolicyBlock waits indefinitely for the coordinator's outcome after
	// voting yes (safe, blocking).
	PolicyBlock Policy = iota
	// PolicyTimeoutAbort presumes abort after the decision timeout
	// (non-blocking, unsafe under late messages).
	PolicyTimeoutAbort
)

// PrepareMsg is the coordinator's vote request.
type PrepareMsg struct{}

// Kind implements types.Payload.
func (PrepareMsg) Kind() string { return "2pc.prepare" }

// SizeBits implements types.Sized.
func (PrepareMsg) SizeBits() int { return 8 }

// VoteMsg is a participant's vote sent to the coordinator.
type VoteMsg struct {
	Val types.Value
}

// Kind implements types.Payload.
func (VoteMsg) Kind() string { return "2pc.vote" }

// SizeBits implements types.Sized.
func (VoteMsg) SizeBits() int { return 8 + 1 }

// OutcomeMsg is the coordinator's decision broadcast.
type OutcomeMsg struct {
	Val types.Value
}

// Kind implements types.Payload.
func (OutcomeMsg) Kind() string { return "2pc.outcome" }

// SizeBits implements types.Sized.
func (OutcomeMsg) SizeBits() int { return 8 + 1 }

// Config parameterizes a 2PC machine.
type Config struct {
	ID   types.ProcID
	N    int
	K    int // timing constant, used to scale the protocol timeouts
	Vote types.Value
	// Policy is the participant timeout policy.
	Policy Policy
	// VoteTimeout is the coordinator's wait for votes, in clock ticks
	// (zero: 2K). DecisionTimeout is the participant's wait for the
	// outcome after voting, in clock ticks (zero: 4K).
	VoteTimeout     int
	DecisionTimeout int
}

func (c Config) validate() error {
	if c.N <= 0 {
		return fmt.Errorf("twopc: N must be positive, got %d", c.N)
	}
	if int(c.ID) < 0 || int(c.ID) >= c.N {
		return fmt.Errorf("twopc: id %d out of range [0,%d)", c.ID, c.N)
	}
	if c.K < 1 {
		return fmt.Errorf("twopc: K must be >= 1, got %d", c.K)
	}
	if !c.Vote.Valid() {
		return fmt.Errorf("twopc: invalid vote %d", c.Vote)
	}
	return nil
}

type phase int

const (
	phStart phase = iota
	phCollectVotes
	phWaitOutcome
	phDone
)

// Machine is one 2PC processor. Processor 0 is the coordinator and also
// holds a vote of its own.
type Machine struct {
	cfg   Config
	ph    phase
	clock int

	votes     map[types.ProcID]types.Value
	waitStart int

	decided  bool
	decision types.Value
	halted   bool
}

var _ types.Machine = (*Machine)(nil)

// New builds a 2PC machine.
func New(cfg Config) (*Machine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.VoteTimeout == 0 {
		cfg.VoteTimeout = 2 * cfg.K
	}
	if cfg.DecisionTimeout == 0 {
		cfg.DecisionTimeout = 4 * cfg.K
	}
	return &Machine{cfg: cfg, votes: make(map[types.ProcID]types.Value)}, nil
}

// ID implements types.Machine.
func (m *Machine) ID() types.ProcID { return m.cfg.ID }

// Clock implements types.Machine.
func (m *Machine) Clock() int { return m.clock }

// Decision implements types.Machine.
func (m *Machine) Decision() (types.Value, bool) { return m.decision, m.decided }

// Halted implements types.Machine.
func (m *Machine) Halted() bool { return m.halted }

// Blocked reports whether the machine is stuck waiting for an outcome
// under PolicyBlock (used by the blocking-rate experiment).
func (m *Machine) Blocked() bool { return m.ph == phWaitOutcome && !m.decided }

// Policy returns the participant timeout policy the machine was built with.
func (m *Machine) Policy() Policy { return m.cfg.Policy }

func (m *Machine) isCoordinator() bool { return m.cfg.ID == types.Coordinator }

// Step implements types.Machine.
func (m *Machine) Step(received []types.Message, _ types.Rand) []types.Message {
	m.clock++
	if m.halted {
		return nil
	}
	var out []types.Message
	for i := range received {
		out = append(out, m.handle(received[i])...)
	}
	out = append(out, m.tick()...)
	return out
}

// handle processes one message.
func (m *Machine) handle(msg types.Message) []types.Message {
	switch p := msg.Payload.(type) {
	case PrepareMsg:
		if m.isCoordinator() || m.ph != phStart {
			return nil
		}
		// Vote; a no-voter aborts unilaterally right away.
		vote := m.cfg.Vote
		reply := []types.Message{{From: m.cfg.ID, To: types.Coordinator, Payload: VoteMsg{Val: vote}}}
		if vote == types.V0 {
			m.decide(types.V0)
			m.halted = true
			m.ph = phDone
		} else {
			m.ph = phWaitOutcome
			m.waitStart = m.clock
		}
		return reply
	case VoteMsg:
		if !m.isCoordinator() || m.ph != phCollectVotes {
			return nil
		}
		if _, dup := m.votes[msg.From]; !dup {
			m.votes[msg.From] = p.Val
		}
		return m.maybeFinishCollect(false)
	case OutcomeMsg:
		if m.ph == phDone && m.decided && m.decision != p.Val {
			// Too late: we already presumed the other outcome. Keep the
			// first decision (decisions are absorbing); the inconsistency
			// is visible globally, which is exactly what E7 measures.
			return nil
		}
		if !m.decided {
			m.decide(p.Val)
		}
		m.ph = phDone
		m.halted = true
		return nil
	default:
		return nil
	}
}

// tick advances phase logic that depends only on the clock.
func (m *Machine) tick() []types.Message {
	switch m.ph {
	case phStart:
		if !m.isCoordinator() {
			return nil
		}
		// Coordinator: broadcast PREPARE to the participants, record its
		// own vote, and start collecting.
		m.ph = phCollectVotes
		m.waitStart = m.clock
		m.votes[m.cfg.ID] = m.cfg.Vote
		var out []types.Message
		for p := 0; p < m.cfg.N; p++ {
			if types.ProcID(p) == m.cfg.ID {
				continue
			}
			out = append(out, types.Message{From: m.cfg.ID, To: types.ProcID(p), Payload: PrepareMsg{}})
		}
		return append(out, m.maybeFinishCollect(false)...)
	case phCollectVotes:
		return m.maybeFinishCollect(m.clock-m.waitStart >= m.cfg.VoteTimeout)
	case phWaitOutcome:
		if m.cfg.Policy == PolicyTimeoutAbort && m.clock-m.waitStart >= m.cfg.DecisionTimeout {
			// Presume abort: the unsafe shortcut.
			m.decide(types.V0)
			m.ph = phDone
			m.halted = true
		}
		return nil
	default:
		return nil
	}
}

// maybeFinishCollect ends the coordinator's vote collection when all votes
// are in, any vote is no, or the timeout fired.
func (m *Machine) maybeFinishCollect(timedOut bool) []types.Message {
	if m.ph != phCollectVotes {
		return nil
	}
	anyNo := false
	for _, v := range m.votes {
		if v == types.V0 {
			anyNo = true
		}
	}
	allIn := len(m.votes) == m.cfg.N
	if !allIn && !anyNo && !timedOut {
		return nil
	}
	outcome := types.V0
	if allIn && !anyNo {
		outcome = types.V1
	}
	m.decide(outcome)
	m.ph = phDone
	m.halted = true
	var out []types.Message
	for p := 0; p < m.cfg.N; p++ {
		if types.ProcID(p) == m.cfg.ID {
			continue
		}
		out = append(out, types.Message{From: m.cfg.ID, To: types.ProcID(p), Payload: OutcomeMsg{Val: outcome}})
	}
	return out
}

func (m *Machine) decide(v types.Value) {
	if m.decided {
		return
	}
	m.decided = true
	m.decision = v
}
