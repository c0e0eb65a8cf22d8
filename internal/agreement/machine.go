package agreement

import (
	"fmt"

	"repro/internal/types"
)

// Config parameterizes an agreement machine.
type Config struct {
	ID      types.ProcID
	N       int // total processors
	T       int // fault tolerance; the protocol requires N > 2T
	Initial types.Value
	Coins   CoinSource
	// Gadget enables the DECIDED termination broadcast (see DecidedMsg).
	// Strict-paper mode (Gadget=false) reproduces Protocol 1 exactly as
	// printed; deciding processors then keep executing stages forever and
	// halt only when the decision condition recurs.
	Gadget bool
	// Unsafe permits N <= 2T configurations. Theorem 14 proves no correct
	// protocol exists there; the lower-bound experiments (E8) use this to
	// exhibit how the protocol degrades (it blocks) at N = 2T. Never set
	// it in production use.
	Unsafe bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.N <= 0 {
		return fmt.Errorf("agreement: N must be positive, got %d", c.N)
	}
	if c.T < 0 || c.T >= c.N {
		return fmt.Errorf("agreement: need 0 <= T < N, got N=%d T=%d", c.N, c.T)
	}
	if !c.Unsafe && c.N <= 2*c.T {
		return fmt.Errorf("agreement: need N > 2T, got N=%d T=%d", c.N, c.T)
	}
	if int(c.ID) < 0 || int(c.ID) >= c.N {
		return fmt.Errorf("agreement: id %d out of range [0,%d)", c.ID, c.N)
	}
	if !c.Initial.Valid() {
		return fmt.Errorf("agreement: invalid initial value %d", c.Initial)
	}
	if c.Coins == nil {
		return fmt.Errorf("agreement: nil coin source")
	}
	return nil
}

// phase identifies which wait of the stage the machine is blocked on.
type phase int

const (
	phaseReports   phase = 1 // instruction 2: waiting for n−t (1, s, *)
	phaseProposals phase = 2 // instruction 6: waiting for n−t (2, s, *)
)

// proposal is one received (2, s, *) message.
type proposal struct {
	val types.Value
	bot bool
}

// Machine executes Protocol 1 (with a pluggable coin source) as a
// step-driven state machine. One Step call is one clock tick; within a
// step the machine cascades through as many instructions as its bulletin
// board already satisfies ("immediately after receiving the last of these
// (if not before), p sends its ... messages" — proof of Lemma 6).
type Machine struct {
	cfg     Config
	x       types.Value // the local value xp
	stage   int
	ph      phase
	started bool
	clock   int

	decided  bool
	decision types.Value
	// decidedStage is the stage at which the machine first decided
	// (instruction 14); used by tests reproducing Lemma 3.
	decidedStage int
	halted       bool
	sentDecided  bool

	// Bulletin board (the paper's wait construct posts every received
	// message and re-checks conditions at each step).
	reports   map[int]map[types.ProcID]types.Value // stage -> sender -> value
	proposals map[int]map[types.ProcID]proposal    // stage -> sender -> proposal
	// adoptDecided holds the value of a received DecidedMsg awaiting
	// adoption (gadget only).
	adoptDecided *types.Value

	// stagesCompleted counts completed stages (both waits satisfied);
	// experiments measure expected stages through this.
	stagesCompleted int
	// stageStart[s] is the machine's clock when it broadcast (1, s, x) —
	// the instant stage s began. Used by the Lemma 6 reproduction.
	stageStart map[int]int
	// violation records an impossible-in-crash-model observation (e.g.
	// conflicting S-messages in one stage, refuting Lemma 2). It indicates
	// a bug in the harness or a fault model stronger than fail-stop.
	violation error

	// out is the output buffer reused across Step calls (see the
	// types.Machine contract: callers consume the slice before the next
	// Step).
	out []types.Message
}

var _ types.Machine = (*Machine)(nil)

// New builds an agreement machine. It returns an error for invalid
// configurations.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Machine{
		cfg:        cfg,
		x:          cfg.Initial,
		stage:      1,
		ph:         phaseReports,
		reports:    make(map[int]map[types.ProcID]types.Value),
		proposals:  make(map[int]map[types.ProcID]proposal),
		stageStart: make(map[int]int),
	}, nil
}

// NewSet builds the machine set of one agreement instance: processor i
// gets tmpl with ID i and Initial initial[i]. Every machine reads the
// template's one coin source.
func NewSet(tmpl Config, initial []types.Value) ([]*Machine, error) {
	if len(initial) != tmpl.N {
		return nil, fmt.Errorf("agreement: %d initial values for N=%d", len(initial), tmpl.N)
	}
	return types.NewSet(tmpl.N, func(id types.ProcID) (*Machine, error) {
		tmpl.ID, tmpl.Initial = id, initial[id]
		return New(tmpl)
	})
}

// ID implements types.Machine.
func (m *Machine) ID() types.ProcID { return m.cfg.ID }

// Clock implements types.Machine.
func (m *Machine) Clock() int { return m.clock }

// Decision implements types.Machine.
func (m *Machine) Decision() (types.Value, bool) { return m.decision, m.decided }

// Halted implements types.Machine.
func (m *Machine) Halted() bool { return m.halted }

// Stage returns the stage the machine is currently executing.
func (m *Machine) Stage() int { return m.stage }

// Waiting reports which wait the machine is currently blocked on: the
// stage number and whether it is the proposals wait (instruction 6) as
// opposed to the reports wait (instruction 2). Used by the value-splitting
// scheduler of experiment E3.
func (m *Machine) Waiting() (stage int, onProposals bool) {
	return m.stage, m.ph == phaseProposals
}

// StagesCompleted returns the number of fully completed stages.
func (m *Machine) StagesCompleted() int { return m.stagesCompleted }

// DecidedStage returns the stage at which the machine decided, or 0.
func (m *Machine) DecidedStage() int { return m.decidedStage }

// StageStartClock returns the machine's clock when stage s began (the
// broadcast of (1, s, x)), or 0 if the stage was never entered.
func (m *Machine) StageStartClock(s int) int { return m.stageStart[s] }

// LocalValue returns the current local value xp.
func (m *Machine) LocalValue() types.Value { return m.x }

// Violation returns a recorded fault-model violation, if any.
func (m *Machine) Violation() error { return m.violation }

// Step implements types.Machine.
func (m *Machine) Step(received []types.Message, rnd types.Rand) []types.Message {
	m.clock++
	if m.halted {
		return nil
	}
	m.post(received)

	out := m.out[:0]
	if !m.started {
		m.started = true
		// Instruction 1: broadcast (1, 1, xp).
		m.stageStart[m.stage] = m.clock
		out = m.broadcast(out, ReportMsg{Stage: m.stage, Val: m.x})
	}
	out = m.progress(out, rnd)
	m.out = out
	return out
}

// post records received messages on the bulletin board.
func (m *Machine) post(received []types.Message) {
	for i := range received {
		switch p := received[i].Payload.(type) {
		case ReportMsg:
			mm := m.reports[p.Stage]
			if mm == nil {
				mm = make(map[types.ProcID]types.Value)
				m.reports[p.Stage] = mm
			}
			if _, dup := mm[received[i].From]; !dup {
				mm[received[i].From] = p.Val
			}
		case ProposalMsg:
			mm := m.proposals[p.Stage]
			if mm == nil {
				mm = make(map[types.ProcID]proposal)
				m.proposals[p.Stage] = mm
			}
			if _, dup := mm[received[i].From]; !dup {
				mm[received[i].From] = proposal{val: p.Val, bot: p.Bot}
			}
		case DecidedMsg:
			if m.cfg.Gadget && m.adoptDecided == nil {
				v := p.Val
				m.adoptDecided = &v
			}
		}
	}
}

// progress cascades through the protocol until a wait is unsatisfied or
// the machine returns. It appends any sends to out and returns it.
func (m *Machine) progress(out []types.Message, rnd types.Rand) []types.Message {
	for !m.halted {
		// Gadget adoption: a received DECIDED(v) is n−t-S-message
		// evidence for v; adopt, decide, relay, and return.
		if m.adoptDecided != nil {
			v := *m.adoptDecided
			m.decide(v)
			return m.ret(out, v)
		}
		var ok bool
		switch m.ph {
		case phaseReports:
			out, ok = m.tryFinishReports(out)
		case phaseProposals:
			out, ok = m.tryFinishProposals(out, rnd)
		}
		if !ok {
			return out
		}
	}
	return out
}

// tryFinishReports implements instructions 2–5: once n−t messages of the
// form (1, s, *) arrived, broadcast (2, s, v) if more than n/2 of them
// carry v, else (2, s, ⊥).
func (m *Machine) tryFinishReports(out []types.Message) ([]types.Message, bool) {
	mm := m.reports[m.stage]
	if len(mm) < m.cfg.N-m.cfg.T {
		return out, false
	}
	counts := [2]int{}
	for _, v := range mm {
		counts[v]++
	}
	var prop ProposalMsg
	switch {
	case 2*counts[types.V0] > m.cfg.N:
		prop = ProposalMsg{Stage: m.stage, Val: types.V0}
	case 2*counts[types.V1] > m.cfg.N:
		prop = ProposalMsg{Stage: m.stage, Val: types.V1}
	default:
		prop = ProposalMsg{Stage: m.stage, Bot: true}
	}
	m.ph = phaseProposals
	return m.broadcast(out, prop), true
}

// tryFinishProposals implements instructions 6–14 plus the advance to the
// next stage: once n−t messages of the form (2, s, *) arrived, update the
// local value from an S-message or the stage coin, decide (or return) on
// n−t matching S-messages, and open the next stage.
func (m *Machine) tryFinishProposals(out []types.Message, rnd types.Rand) ([]types.Message, bool) {
	mm := m.proposals[m.stage]
	if len(mm) < m.cfg.N-m.cfg.T {
		return out, false
	}
	counts := [2]int{}
	sawVal := false
	var sVal types.Value
	both := false
	for _, pr := range mm {
		if pr.bot {
			continue
		}
		counts[pr.val]++
		if sawVal && pr.val != sVal {
			both = true
		}
		sawVal, sVal = true, pr.val
	}
	if both {
		// Lemma 2 says this cannot happen under fail-stop faults. Record
		// it and proceed deterministically so the machine stays total.
		m.violation = fmt.Errorf("agreement: conflicting S-messages at stage %d (counts %v)", m.stage, counts)
		if counts[types.V1] >= counts[types.V0] {
			sVal = types.V1
		} else {
			sVal = types.V0
		}
	}

	// Instructions 7–10: set the local value.
	if !sawVal {
		m.x = m.cfg.Coins.Coin(m.stage, rnd)
	} else {
		m.x = sVal
	}

	// Instructions 11–14: decide or return on n−t matching S-messages.
	if sawVal && counts[sVal] >= m.cfg.N-m.cfg.T {
		if m.decided {
			out = m.ret(out, sVal)
			m.stagesCompleted++
			return out, true
		}
		m.decide(sVal)
	}

	// Advance to stage s+1 and broadcast (1, s+1, xp).
	m.stagesCompleted++
	m.stage++
	m.ph = phaseReports
	m.stageStart[m.stage] = m.clock
	out = m.broadcast(out, ReportMsg{Stage: m.stage, Val: m.x})
	return out, true
}

// decide enters the decision state for v (instruction 14). Decisions are
// absorbing; a second decide with a different value records a violation.
func (m *Machine) decide(v types.Value) {
	if m.decided {
		if m.decision != v {
			m.violation = fmt.Errorf("agreement: decision flip from %v to %v", m.decision, v)
		}
		return
	}
	m.decided = true
	m.decision = v
	m.decidedStage = m.stage
}

// ret returns from the protocol with value v (instruction 13): the machine
// halts and, with the gadget enabled, broadcasts DECIDED(v) once.
func (m *Machine) ret(out []types.Message, v types.Value) []types.Message {
	if !m.decided {
		m.decide(v)
	} else if m.decision != v {
		m.violation = fmt.Errorf("agreement: return value %v conflicts with decision %v", v, m.decision)
		v = m.decision
	}
	m.halted = true
	if m.cfg.Gadget && !m.sentDecided {
		m.sentDecided = true
		return m.broadcast(out, DecidedMsg{Val: v})
	}
	return out
}

// broadcast appends a send of p to all n processors (including self).
func (m *Machine) broadcast(out []types.Message, p types.Payload) []types.Message {
	return types.AppendBroadcast(out, m.cfg.ID, m.cfg.N, p)
}
