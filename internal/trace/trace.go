// Package trace records runs of the formal-model simulator and checks the
// paper's correctness conditions against them.
//
// A Trace is the concrete counterpart of the paper's run(C, σ): the ordered
// sequence of events together with enough per-event data (acting processor,
// clock, messages delivered and sent) to reconstruct the message pattern,
// detect late messages, assign asynchronous rounds, and audit the
// Agreement / Abort Validity / Commit Validity conditions of §2.4.
//
// A History is the live counterpart: what a deployment decided, made
// durable and answered, per transaction and across restarts, checked
// against the Theorem-11 rules (check.go) by the chaos harness and the
// serving tests alike.
package trace

import (
	"fmt"
	"sort"

	"repro/internal/types"
)

// MsgRecord is the pattern-level record of a single message.
type MsgRecord struct {
	Seq       int
	From      types.ProcID
	To        types.ProcID
	Kind      string // payload tag, for statistics only
	Bits      int    // payload wire size (types.SizeOf), for statistics only
	SentEvent int
	SentClock int // sender clock after the sending step
	RecvEvent int // -1 if never delivered
	RecvClock int // recipient clock after the receiving step; -1 if never delivered
}

// Delivered reports whether the message was ever received.
func (m *MsgRecord) Delivered() bool { return m.RecvEvent >= 0 }

// Event is one event of a run: either a normal step (p, M, f) or an
// explicit failure step (p, ⊥).
type Event struct {
	Index      int
	Proc       types.ProcID
	Crash      bool
	ClockAfter int   // acting processor's clock after this step
	Delivered  []int // message seqs received at this step
	Sent       []int // message seqs sent at this step
}

// Trace is a recorded run.
type Trace struct {
	N      int
	K      int
	Events []Event
	Msgs   []MsgRecord // indexed by Seq

	// procEvents[p] lists the indices of p's events in order; built lazily.
	procEvents [][]int
	// arena is chunked backing storage for Event.Delivered/Sent slices, so
	// recording costs one allocation per chunk rather than two per event.
	arena []int
}

// New returns an empty trace for n processors with timing constant k.
func New(n, k int) *Trace {
	return &Trace{N: n, K: k}
}

// AddEvent appends an event record, interning its Delivered and Sent
// slices into the trace's arena — callers may reuse the slices they pass
// in. Events must be appended in order.
func (t *Trace) AddEvent(e Event) {
	e.Index = len(t.Events)
	e.Delivered = t.internInts(e.Delivered)
	e.Sent = t.internInts(e.Sent)
	t.Events = append(t.Events, e)
	t.procEvents = nil
}

// arenaChunk is the allocation granularity of the seq-slice arena.
const arenaChunk = 1024

// internInts copies src into the arena and returns a stable full-capacity
// slice over the copy (nil for an empty src).
func (t *Trace) internInts(src []int) []int {
	if len(src) == 0 {
		return nil
	}
	if cap(t.arena)-len(t.arena) < len(src) {
		n := arenaChunk
		if len(src) > n {
			n = len(src)
		}
		// Earlier interned slices keep the old backing array alive; the
		// arena only ever appends, so they are never overwritten.
		t.arena = make([]int, 0, n)
	}
	start := len(t.arena)
	t.arena = append(t.arena, src...)
	return t.arena[start:len(t.arena):len(t.arena)]
}

// AddMsg registers a newly sent message and returns its record. Seq values
// must be assigned densely in send order.
func (t *Trace) AddMsg(m MsgRecord) {
	if m.Seq != len(t.Msgs) {
		panic(fmt.Sprintf("trace: message seq %d out of order (want %d)", m.Seq, len(t.Msgs)))
	}
	m.RecvEvent = -1
	m.RecvClock = -1
	t.Msgs = append(t.Msgs, m)
}

// MarkDelivered records the receipt of message seq at the given event.
func (t *Trace) MarkDelivered(seq, event, clockAfter int) {
	t.Msgs[seq].RecvEvent = event
	t.Msgs[seq].RecvClock = clockAfter
}

// ProcEvents returns the ordered event indices at which processor p acted.
func (t *Trace) ProcEvents(p types.ProcID) []int {
	if t.procEvents == nil {
		t.procEvents = make([][]int, t.N)
		for i := range t.Events {
			e := &t.Events[i]
			t.procEvents[e.Proc] = append(t.procEvents[e.Proc], i)
		}
	}
	return t.procEvents[p]
}

// StepsBetween returns how many steps processor q took in the half-open
// event interval (after, upto] — the quantity the late-message definition
// of §2.2 bounds by K.
func (t *Trace) StepsBetween(q types.ProcID, after, upto int) int {
	evs := t.ProcEvents(q)
	lo := sort.SearchInts(evs, after+1)
	hi := sort.SearchInts(evs, upto+1)
	return hi - lo
}

// ClockAt returns processor q's clock value immediately after event index e
// (i.e. counting q's events with index <= e).
func (t *Trace) ClockAt(q types.ProcID, e int) int {
	evs := t.ProcEvents(q)
	return sort.SearchInts(evs, e+1)
}

// EventOfClock returns the global index of the event at which q's clock
// first reached c, or -1 if q never took c steps.
func (t *Trace) EventOfClock(q types.ProcID, c int) int {
	evs := t.ProcEvents(q)
	if c <= 0 || c > len(evs) {
		return -1
	}
	return evs[c-1]
}

// IsLate reports whether message seq is late per §2.2: some processor took
// more than K steps between the sending event and the receiving event. For
// a message never delivered, it is considered late once any processor has
// taken more than K steps since the send (such a run cannot be on-time).
func (t *Trace) IsLate(seq int) bool {
	m := &t.Msgs[seq]
	upto := m.RecvEvent
	if upto < 0 {
		upto = len(t.Events) - 1
	}
	for q := 0; q < t.N; q++ {
		if t.StepsBetween(types.ProcID(q), m.SentEvent, upto) > t.K {
			return true
		}
	}
	return false
}

// LateMessages returns the seqs of all late messages.
func (t *Trace) LateMessages() []int {
	var late []int
	for seq := range t.Msgs {
		if t.IsLate(seq) {
			late = append(late, seq)
		}
	}
	return late
}

// OnTime reports whether the run contains no late messages (§2.2).
func (t *Trace) OnTime() bool {
	for seq := range t.Msgs {
		if t.IsLate(seq) {
			return false
		}
	}
	return true
}

// CrashedSet returns the processors that took explicit failure steps.
func (t *Trace) CrashedSet() map[types.ProcID]bool {
	out := make(map[types.ProcID]bool)
	for i := range t.Events {
		if t.Events[i].Crash {
			out[t.Events[i].Proc] = true
		}
	}
	return out
}

// MessageStats summarizes message traffic.
type MessageStats struct {
	Sent      int
	Delivered int
	// TotalBits is the summed payload size of everything sent.
	TotalBits int
	ByKind    map[string]int
}

// Stats computes message statistics for the run.
func (t *Trace) Stats() MessageStats {
	s := MessageStats{ByKind: make(map[string]int)}
	for i := range t.Msgs {
		s.Sent++
		s.ByKind[t.Msgs[i].Kind]++
		s.TotalBits += t.Msgs[i].Bits
		if t.Msgs[i].Delivered() {
			s.Delivered++
		}
	}
	return s
}
