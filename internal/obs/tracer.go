package obs

import (
	"encoding/json"
	"io"
	"strings"
	"sync"
)

// EventType classifies a protocol trace event.
type EventType string

// Protocol event types. The names follow Protocol 2's structure (§3.2):
// the coordinator floods GO, participants relay it and cast votes, every
// processor then runs Protocol 1 stage by stage until it decides (or
// adopts a DECIDED broadcast via the termination gadget). Crash and
// recover events come from the fault-injection layer; retire and abandon
// from the transaction manager's lifecycle policy.
const (
	EventGoSent    EventType = "go_sent"   // this node broadcast/relayed GO
	EventGoRecv    EventType = "go_recv"   // first GO (or piggyback) received
	EventVoteCast  EventType = "vote_cast" // this node broadcast its vote
	EventStage     EventType = "stage"     // Protocol 1 entered a new stage
	EventDecided   EventType = "decided"   // decision reached (or adopted)
	EventRetired   EventType = "retired"   // decided instance retired to tombstone
	EventAbandoned EventType = "abandoned" // undecided instance hit MaxAge
	EventCrash     EventType = "crash"     // node fail-stopped
	EventRecover   EventType = "recover"   // node rejoined
)

// Event is one structured protocol trace event.
type Event struct {
	// Seq is the tracer-assigned global sequence number (dense, starting
	// at 1); gaps in a query result mean intervening events matched a
	// different filter, not loss. Loss is reported by Dropped.
	Seq uint64 `json:"seq"`
	// Node is the processor the event happened at.
	Node int `json:"node"`
	// Txn names the transaction, when the event is per-transaction.
	Txn string `json:"txn,omitempty"`
	// Type classifies the event.
	Type EventType `json:"type"`
	// Tick is the node's protocol clock (manager steps) at the event.
	Tick int `json:"tick"`
	// Detail carries event-specific context ("stage=2", "decision=COMMIT").
	Detail string `json:"detail,omitempty"`
}

// An agreement batch's own records (GO, votes, stages, rounds, links) are
// keyed by the batch, and each member transaction's records name the
// batch in their Detail. These three functions are that convention, so a
// per-transaction view can follow a member to the batch that decided it.

// BatchKey is the Txn key of a batch's own events and spans.
func BatchKey(batch string) string { return "batch:" + batch }

// BatchDetail is the Detail token naming a member's batch. It goes last
// in a Detail: the batch id runs to the end of the string.
func BatchDetail(batch string) string { return "batch=" + batch }

// BatchKeyOf returns the BatchKey of the batch a member's Detail names,
// or "" if it names none.
func BatchKeyOf(detail string) string {
	if rest, ok := strings.CutPrefix(detail, "batch="); ok {
		return BatchKey(rest)
	}
	if _, rest, ok := strings.Cut(detail, " batch="); ok {
		return BatchKey(rest)
	}
	return ""
}

// Tracer records events into a bounded ring: constant memory under
// unbounded traffic, always holding the most recent events. A nil Tracer
// is a valid disabled tracer; Record on it is a no-op.
type Tracer struct {
	mu      sync.Mutex
	buf     []Event
	next    int
	full    bool
	seq     uint64
	dropped uint64
}

// DefaultTraceCapacity is the ring size used when capacity <= 0.
const DefaultTraceCapacity = 4096

// NewTracer creates a tracer retaining at most capacity events.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{buf: make([]Event, 0, capacity)}
}

// Record appends one event, assigning its sequence number. The oldest
// event is overwritten once the ring is full.
func (t *Tracer) Record(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	e.Seq = t.seq
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, e)
		return
	}
	t.full = true
	t.dropped++
	t.buf[t.next] = e
	t.next = (t.next + 1) % len(t.buf)
}

// Len reports how many events are currently retained.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}

// Dropped reports how many events have been overwritten by ring
// wraparound since creation.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// snapshot copies the retained events in sequence order. Caller holds no
// locks; the copy is taken under one lock acquisition.
func (t *Tracer) snapshot() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.full {
		return append([]Event(nil), t.buf...)
	}
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}

// Recent returns up to n of the most recent events, oldest first.
// n <= 0 means all retained events.
func (t *Tracer) Recent(n int) []Event {
	if t == nil {
		return nil
	}
	evs := t.snapshot()
	if n > 0 && len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	return evs
}

// ByTxn returns up to n of the most recent events for one transaction,
// oldest first: its own plus those of the batch its events name (the GO,
// vote and stage milestones that decided it). n <= 0 means all retained
// matches.
func (t *Tracer) ByTxn(txn string, n int) []Event {
	if t == nil {
		return nil
	}
	all := t.snapshot()
	batch := ""
	for i := range all {
		if all[i].Txn == txn {
			if batch = BatchKeyOf(all[i].Detail); batch != "" {
				break
			}
		}
	}
	var evs []Event
	for _, e := range all {
		if e.Txn == txn || (batch != "" && e.Txn == batch) {
			evs = append(evs, e)
		}
	}
	if n > 0 && len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	return evs
}

// TraceFormat identifies a live-trace JSON export (vs the simulator's
// trace.Trace JSON); cmd/tracedump dispatches on it.
const TraceFormat = "live-trace"

// TraceExport is the JSON document written by WriteJSON.
type TraceExport struct {
	Format  string  `json:"format"`
	Dropped uint64  `json:"dropped"`
	Events  []Event `json:"events"`
}

// Export builds the JSON-ready document: the most recent n events
// (all when n <= 0), filtered to one transaction when txn != "".
func (t *Tracer) Export(txn string, n int) TraceExport {
	ex := TraceExport{Format: TraceFormat}
	if t == nil {
		return ex
	}
	if txn != "" {
		ex.Events = t.ByTxn(txn, n)
	} else {
		ex.Events = t.Recent(n)
	}
	if ex.Events == nil {
		ex.Events = []Event{}
	}
	ex.Dropped = t.Dropped()
	return ex
}

// WriteJSON writes the export document for the given filter.
func (t *Tracer) WriteJSON(w io.Writer, txn string, n int) error {
	enc := json.NewEncoder(w)
	return enc.Encode(t.Export(txn, n))
}
