// Package types defines the shared kernel vocabulary of the reproduction:
// processor identifiers, binary values, decisions, messages, and the
// state-machine contract that every protocol (Protocol 1, Protocol 2,
// Ben-Or, 2PC, 3PC) implements.
//
// The contract mirrors the formal model of Coan & Lundelius (PODC '86),
// §2.1: a processor is a state machine with a message buffer and a random
// number source; an event (p, M, f) hands processor p a set M of buffered
// messages and fresh randomness f, advances p's clock by one tick, and
// yields the messages p sends at that step.
package types

import "fmt"

// ProcID identifies a processor. Processors are numbered 0..n-1; processor
// 0 is the distinguished coordinator of Protocol 2.
type ProcID int

// Coordinator is the processor responsible for starting Protocol 2 (the
// paper's "processor with id 0").
const Coordinator ProcID = 0

// Value is a binary protocol value: 0 (identified with abort) or 1
// (identified with commit).
type Value uint8

// The two binary values of the agreement and commit problems.
const (
	V0 Value = 0 // abort / zero
	V1 Value = 1 // commit / one
)

// String implements fmt.Stringer.
func (v Value) String() string {
	switch v {
	case V0:
		return "0"
	case V1:
		return "1"
	default:
		return fmt.Sprintf("Value(%d)", uint8(v))
	}
}

// Valid reports whether v is one of the two binary values.
func (v Value) Valid() bool { return v == V0 || v == V1 }

// Decision is the externally visible outcome of the transaction commit
// protocol at one processor.
type Decision int

// Decision outcomes. DecisionNone means the processor has not yet entered
// a decision state (the sets Y0, Y1 of the paper).
const (
	DecisionNone Decision = iota
	DecisionAbort
	DecisionCommit
)

// String implements fmt.Stringer.
func (d Decision) String() string {
	switch d {
	case DecisionNone:
		return "none"
	case DecisionAbort:
		return "ABORT"
	case DecisionCommit:
		return "COMMIT"
	default:
		return fmt.Sprintf("Decision(%d)", int(d))
	}
}

// Values converts bool votes (true = commit) to protocol values.
func Values(votes []bool) []Value {
	out := make([]Value, len(votes))
	for i, v := range votes {
		if v {
			out[i] = V1
		}
	}
	return out
}

// DecisionOf maps a decided binary value to the commit-problem decision:
// 0 is identified with abort and 1 with commit (paper §1).
func DecisionOf(v Value) Decision {
	if v == V1 {
		return DecisionCommit
	}
	return DecisionAbort
}

// Value inverts DecisionOf on decided outcomes: 1 for commit, 0 for abort
// (and for none, which a caller rules out first).
func (d Decision) Value() Value {
	if d == DecisionCommit {
		return V1
	}
	return V0
}

// Payload is the protocol-level content of a message. Concrete payload
// types live with their protocols. Payloads are opaque to adversaries:
// the scheduling layer only ever exposes the message *pattern* (§2.3).
type Payload interface {
	// Kind returns a short stable tag naming the payload type, used for
	// tracing and wire encoding.
	Kind() string
}

// Message is a single point-to-point message. The protocol fills From, To
// and Payload; the execution engine stamps the remaining metadata when the
// message is sent.
type Message struct {
	From    ProcID
	To      ProcID
	Payload Payload

	// Seq is a globally unique message id assigned at send time.
	Seq int
	// SentClock is the sender's clock value immediately after the sending
	// step (used for late-message detection, §2.2).
	SentClock int
	// SentEvent is the global index of the event at which the message was
	// sent (used by the asynchronous-round analyzer).
	SentEvent int
}

// Rand is the per-step randomness available to a machine: the paper gives
// each processor an infinite sequence of uniform reals, and protocols
// obtain i random bits by invoking flip(i). A Rand draws from the
// processor's own deterministic stream; the adversary never observes it.
type Rand interface {
	// Float64 returns the next uniform variate in [0, 1).
	Float64() float64
	// Bit returns one unbiased random bit as a Value (flip(1)).
	Bit() Value
	// Bits returns i unbiased random bits (flip(i)).
	Bits(i int) []Value
}

// Machine is the state-machine contract shared by every protocol in this
// repository. One Step call corresponds to one event (p, M, f) of the
// formal model: it consumes the messages received at this step plus fresh
// randomness, advances the clock by exactly one tick, and returns the
// messages sent at this step.
//
// Implementations must be deterministic functions of (prior state,
// received, draws from rnd): the lower-bound machinery replays schedules
// against fixed random seeds and compares resulting states.
type Machine interface {
	// ID returns the processor's identifier.
	ID() ProcID

	// Step applies one event. received may be empty (a processor may take
	// a step with no message deliveries, which is how timeouts advance).
	// The returned messages must have From set to the machine's own ID.
	// The returned slice is scratch, the machine's or its host's (the
	// transaction manager has every instance it hosts append into one
	// buffer it owns): callers must consume (copy or send) it before
	// stepping the same machine again, and must not retain it. The
	// payloads in it are not scratch: once returned, a payload and every
	// slice it carries are never written again, so a receiver may keep
	// them, and no buffer is ever reused as one.
	Step(received []Message, rnd Rand) []Message

	// Clock returns the number of steps taken so far (the paper's clock).
	Clock() int

	// Decision reports the value decided by the machine, if any. Once a
	// machine reports (v, true) it must never report a different value:
	// decision states are absorbing (paper §2.1).
	Decision() (Value, bool)

	// Halted reports whether the machine has returned from its protocol
	// and will send no further messages. A halted machine still accepts
	// Step calls (it remains nonfaulty) but they are no-ops.
	Halted() bool
}

// NewSet builds an n-processor machine set, processor i from mk(i): the
// one loop behind every protocol's set constructor.
func NewSet[M Machine](n int, mk func(id ProcID) (M, error)) ([]M, error) {
	set := make([]M, n)
	for i := range set {
		m, err := mk(ProcID(i))
		if err != nil {
			return nil, err
		}
		set[i] = m
	}
	return set, nil
}

// Machines widens a typed machine set to the interface slice sim.Config
// and the runtime take; callers that inspect their machines afterwards
// (stages reached, journals) keep the typed slice.
func Machines[M Machine](set []M) []Machine {
	out := make([]Machine, len(set))
	for i, m := range set {
		out[i] = m
	}
	return out
}

// Factory builds a fresh machine set in its initial configuration. The
// explorer and the lower-bound replays construct independent sets so
// runs never share state.
type Factory func() ([]Machine, error)

// Snapshotter is an optional Machine extension producing a deterministic
// encoding of the machine's full local state. The lower-bound package uses
// snapshots to machine-check Lemma 12 (state equality across schedule
// surgery).
type Snapshotter interface {
	Snapshot() []byte
}

// Broadcast builds one message from `from` to every processor in 0..n-1
// (including the sender: the paper's "broadcast" means send to all
// processors, and processors count their own messages toward thresholds).
func Broadcast(from ProcID, n int, p Payload) []Message {
	return AppendBroadcast(make([]Message, 0, n), from, n, p)
}

// AppendBroadcast appends the broadcast of p to dst and returns the
// extended slice. Hot paths use it to reuse an output buffer instead of
// materializing a temporary slice per broadcast.
func AppendBroadcast(dst []Message, from ProcID, n int, p Payload) []Message {
	for to := 0; to < n; to++ {
		dst = append(dst, Message{From: from, To: ProcID(to), Payload: p})
	}
	return dst
}
