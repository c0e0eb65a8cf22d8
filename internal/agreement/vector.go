package agreement

// Vector-outcome agreement: Protocol 1 run element-wise over a vector
// of values with one shared stage progression. Each message of a stage
// carries the sender's whole vector, so a batch of B concurrent
// transactions pays one report exchange and one proposal exchange per
// stage instead of B of them.
//
// Safety is inherited per element. Fix an element i and project every
// vector message onto its i-th component: the projected run is exactly
// a Protocol 1 execution for that element — the n−t waits are satisfied
// by the same sender sets, the majority and S-message rules are applied
// to the projected values, and the stage coin is the shared list coin
// for that stage. Theorem 11's agreement and validity therefore hold
// for every element independently. Termination is per element too: an
// element may decide at a different stage than its neighbors, so the
// machine tracks decisions element-wise. It halts as soon as every element
// has decided, and its one DECIDED vector takes the place of the stage-s+1
// rounds it would have sent (decide-and-stop, DESIGN §2); a received
// DECIDED vector halts it too — the scalar machine's termination gadget,
// generalized to vectors. The gadget is always on: the strict-paper mode
// lives in the scalar Machine alone.

import (
	"fmt"

	"repro/internal/types"
)

// VecReportMsg is the first exchange of a stage, vector form: the
// paper's (1, s, xp) where xp is now a vector of local values.
type VecReportMsg struct {
	Stage int
	Vals  []types.Value
}

// Kind implements types.Payload.
func (VecReportMsg) Kind() string { return "ag.vreport" }

// String implements fmt.Stringer.
func (m VecReportMsg) String() string { return fmt.Sprintf("(1,%d,[%d])", m.Stage, len(m.Vals)) }

// SizeBits implements types.Sized: tag + stage + one bit per element.
func (m VecReportMsg) SizeBits() int { return 8 + 32 + len(m.Vals) }

// VecProposalMsg is the second exchange of a stage, vector form: per
// element either an S-value (Bots[i] false) or ⊥ (Bots[i] true).
type VecProposalMsg struct {
	Stage int
	Vals  []types.Value // Vals[i] meaningful only when !Bots[i]
	Bots  []bool
}

// Kind implements types.Payload.
func (VecProposalMsg) Kind() string { return "ag.vproposal" }

// String implements fmt.Stringer.
func (m VecProposalMsg) String() string { return fmt.Sprintf("(2,%d,[%d])", m.Stage, len(m.Vals)) }

// SizeBits implements types.Sized: tag + stage + value and ⊥ bits.
func (m VecProposalMsg) SizeBits() int { return 8 + 32 + len(m.Vals) + len(m.Bots) }

// VecDecidedMsg is the termination gadget, vector form: broadcast once
// by a processor as its last undecided element decides, in place of its
// next stage's rounds. Safe for the same reason as the scalar
// DecidedMsg: each component is sent only after n−t processors sent
// S-messages for that component's value.
type VecDecidedMsg struct {
	Vals []types.Value
}

// Kind implements types.Payload.
func (VecDecidedMsg) Kind() string { return "ag.vdecided" }

// String implements fmt.Stringer.
func (m VecDecidedMsg) String() string { return fmt.Sprintf("DECIDED([%d])", len(m.Vals)) }

// SizeBits implements types.Sized: tag + one bit per element.
func (m VecDecidedMsg) SizeBits() int { return 8 + len(m.Vals) }

// VectorConfig parameterizes a vector agreement machine.
type VectorConfig struct {
	ID types.ProcID
	N  int // total processors
	T  int // fault tolerance; requires N > 2T
	// Initial is the local input vector; its length fixes the batch
	// width for the whole run. All processors must agree on the width.
	Initial []types.Value
	Coins   CoinSource
	// Unsafe permits N <= 2T (see Config.Unsafe).
	Unsafe bool
}

// Validate checks the configuration.
func (c VectorConfig) Validate() error {
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
	if len(c.Initial) == 0 {
		return fmt.Errorf("agreement: empty initial vector")
	}
	for i, v := range c.Initial {
		if !v.Valid() {
			return fmt.Errorf("agreement: invalid initial value %d at element %d", v, i)
		}
	}
	if c.Coins == nil {
		return fmt.Errorf("agreement: nil coin source")
	}
	return nil
}

// vecProposal is one received (2, s, *) vector message.
type vecProposal struct {
	vals []types.Value
	bots []bool
}

// VectorMachine executes element-wise Protocol 1 over a value vector
// with shared stage progression. It follows the same step contract as
// Machine (the returned slice is scratch, reused on the next Step).
type VectorMachine struct {
	cfg     VectorConfig
	b       int           // batch width
	x       []types.Value // local value vector
	stage   int
	ph      phase
	started bool
	clock   int

	decided      []bool
	decision     []types.Value
	decidedCount int
	halted       bool

	// Bulletin board, stage -> sender -> vector.
	reports   map[int]map[types.ProcID][]types.Value
	proposals map[int]map[types.ProcID]vecProposal
	// adoptDecided holds a received DECIDED vector awaiting adoption.
	adoptDecided []types.Value

	stagesCompleted int
	violation       error

	out []types.Message
}

// NewVector builds a vector agreement machine.
func NewVector(cfg VectorConfig) (*VectorMachine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := len(cfg.Initial)
	return &VectorMachine{
		cfg:       cfg,
		b:         b,
		x:         append([]types.Value(nil), cfg.Initial...),
		stage:     1,
		ph:        phaseReports,
		decided:   make([]bool, b),
		decision:  make([]types.Value, b),
		reports:   make(map[int]map[types.ProcID][]types.Value),
		proposals: make(map[int]map[types.ProcID]vecProposal),
	}, nil
}

// ID returns the processor id.
func (m *VectorMachine) ID() types.ProcID { return m.cfg.ID }

// Clock returns the machine's local step count.
func (m *VectorMachine) Clock() int { return m.clock }

// Width returns the batch width B.
func (m *VectorMachine) Width() int { return m.b }

// Halted reports whether the machine has returned: every element has
// decided.
func (m *VectorMachine) Halted() bool { return m.halted }

// Stage returns the stage currently executing.
func (m *VectorMachine) Stage() int { return m.stage }

// StagesCompleted returns the number of fully completed stages.
func (m *VectorMachine) StagesCompleted() int { return m.stagesCompleted }

// DecidedAt reports element i's decision, if made.
func (m *VectorMachine) DecidedAt(i int) (types.Value, bool) {
	if i < 0 || i >= m.b || !m.decided[i] {
		return 0, false
	}
	return m.decision[i], true
}

// DecidedCount returns how many elements have decided.
func (m *VectorMachine) DecidedCount() int { return m.decidedCount }

// Violation returns a recorded fault-model violation, if any.
func (m *VectorMachine) Violation() error { return m.violation }

// Step advances the machine one tick with the given received messages.
func (m *VectorMachine) Step(received []types.Message, rnd types.Rand) []types.Message {
	m.clock++
	if m.halted {
		return nil
	}
	m.post(received)

	out := m.out[:0]
	if !m.started {
		m.started = true
		// Instruction 1: broadcast (1, 1, x), the whole vector at once.
		out = m.broadcast(out, VecReportMsg{Stage: m.stage, Vals: m.snapshotX()})
	}
	out = m.progress(out, rnd)
	m.out = out
	return out
}

// post records received messages on the bulletin board. Vectors of the
// wrong width are ignored outright: counting such a sender toward an
// n−t wait would leave some element short of evidence.
func (m *VectorMachine) post(received []types.Message) {
	for i := range received {
		switch p := received[i].Payload.(type) {
		case VecReportMsg:
			if len(p.Vals) != m.b {
				continue
			}
			mm := m.reports[p.Stage]
			if mm == nil {
				mm = make(map[types.ProcID][]types.Value)
				m.reports[p.Stage] = mm
			}
			if _, dup := mm[received[i].From]; !dup {
				mm[received[i].From] = p.Vals
			}
		case VecProposalMsg:
			if len(p.Vals) != m.b || len(p.Bots) != m.b {
				continue
			}
			mm := m.proposals[p.Stage]
			if mm == nil {
				mm = make(map[types.ProcID]vecProposal)
				m.proposals[p.Stage] = mm
			}
			if _, dup := mm[received[i].From]; !dup {
				mm[received[i].From] = vecProposal{vals: p.Vals, bots: p.Bots}
			}
		case VecDecidedMsg:
			if len(p.Vals) != m.b {
				continue
			}
			if m.adoptDecided == nil {
				m.adoptDecided = p.Vals
			}
		}
	}
}

// progress cascades through the protocol until a wait is unsatisfied or
// the machine halts.
func (m *VectorMachine) progress(out []types.Message, rnd types.Rand) []types.Message {
	for !m.halted {
		if m.adoptDecided != nil {
			// Gadget adoption: a received DECIDED vector is n−t-S-message
			// evidence for every component; adopt, relay once, halt.
			for i, v := range m.adoptDecided {
				m.decideAt(i, v)
			}
			return m.ret(out)
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

// tryFinishReports applies instructions 2–5 element-wise once n−t
// vector reports arrived: per element, propose the >n/2 majority value
// or ⊥.
func (m *VectorMachine) tryFinishReports(out []types.Message) ([]types.Message, bool) {
	mm := m.reports[m.stage]
	if len(mm) < m.cfg.N-m.cfg.T {
		return out, false
	}
	vals := make([]types.Value, m.b)
	bots := make([]bool, m.b)
	for i := 0; i < m.b; i++ {
		counts := [2]int{}
		for _, vec := range mm {
			counts[vec[i]]++
		}
		switch {
		case 2*counts[types.V0] > m.cfg.N:
			vals[i] = types.V0
		case 2*counts[types.V1] > m.cfg.N:
			vals[i] = types.V1
		default:
			bots[i] = true
		}
	}
	m.ph = phaseProposals
	return m.broadcast(out, VecProposalMsg{Stage: m.stage, Vals: vals, Bots: bots}), true
}

// tryFinishProposals applies instructions 6–14 element-wise once n−t
// vector proposals arrived: per element, adopt an S-value or the shared
// stage coin, and decide on n−t matching S-messages. The machine halts as
// soon as every element has decided, and until then it advances to the
// next stage.
func (m *VectorMachine) tryFinishProposals(out []types.Message, rnd types.Rand) ([]types.Message, bool) {
	mm := m.proposals[m.stage]
	if len(mm) < m.cfg.N-m.cfg.T {
		return out, false
	}
	// One coin flip covers the whole stage: elements left without an
	// S-value share it, exactly as B scalar machines sharing one coin
	// list would each read the same list position.
	coinFlipped := false
	var coin types.Value
	for i := 0; i < m.b; i++ {
		counts := [2]int{}
		sawVal := false
		var sVal types.Value
		both := false
		for _, pr := range mm {
			if pr.bots[i] {
				continue
			}
			v := pr.vals[i]
			counts[v]++
			if sawVal && v != sVal {
				both = true
			}
			sawVal, sVal = true, v
		}
		if both {
			// Lemma 2 per projected run: impossible under fail-stop.
			m.violation = fmt.Errorf("agreement: conflicting S-messages at stage %d element %d (counts %v)", m.stage, i, counts)
			if counts[types.V1] >= counts[types.V0] {
				sVal = types.V1
			} else {
				sVal = types.V0
			}
		}

		// Instructions 7–10: set the local value.
		if !sawVal {
			if !coinFlipped {
				coin = m.cfg.Coins.Coin(m.stage, rnd)
				coinFlipped = true
			}
			m.x[i] = coin
		} else {
			m.x[i] = sVal
		}

		// Instructions 11–14 under decide-and-stop: decide. A decided
		// element's condition recurring is only checked against its
		// decision; nobody waits for it to return.
		if sawVal && counts[sVal] >= m.cfg.N-m.cfg.T {
			m.decideAt(i, sVal)
		}
	}
	m.stagesCompleted++

	if m.decidedCount == m.b {
		// Every element has decided: the whole machine returns.
		// Decide-and-stop: the DECIDED broadcast goes out where the
		// (1, s+1, x) broadcast would have, on the same n−t S-message
		// evidence the decisions rest on.
		return m.ret(out), true
	}

	// Advance to stage s+1 and broadcast (1, s+1, x).
	m.stage++
	m.ph = phaseReports
	return m.broadcast(out, VecReportMsg{Stage: m.stage, Vals: m.snapshotX()}), true
}

// decideAt enters the decision state for element i. Decisions are
// absorbing; a conflicting re-decision records a violation.
func (m *VectorMachine) decideAt(i int, v types.Value) {
	if m.decided[i] {
		if m.decision[i] != v {
			m.violation = fmt.Errorf("agreement: decision flip from %v to %v at element %d", m.decision[i], v, i)
		}
		return
	}
	m.decided[i] = true
	m.decision[i] = v
	m.decidedCount++
}

// ret halts the machine and broadcasts the decided vector — once, since
// a halted machine takes no further step.
func (m *VectorMachine) ret(out []types.Message) []types.Message {
	m.halted = true
	return m.broadcast(out, VecDecidedMsg{Vals: append([]types.Value(nil), m.decision...)})
}

// snapshotX copies the local vector for a broadcast (the live x keeps
// mutating across stages; messages must be immutable once sent).
func (m *VectorMachine) snapshotX() []types.Value {
	return append([]types.Value(nil), m.x...)
}

// broadcast appends a send of p to all n processors (including self).
func (m *VectorMachine) broadcast(out []types.Message, p types.Payload) []types.Message {
	return types.AppendBroadcast(out, m.cfg.ID, m.cfg.N, p)
}
