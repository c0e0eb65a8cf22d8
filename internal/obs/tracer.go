package obs

import "sync"

// The tracer is kept only for the frozen bench/, whose drivers time Record
// (obs.tracer_record_ns and its contended twin): nothing else records into
// it and nothing reads it. The live stack's milestones are spans in the one
// span ring (internal/obs/span). ROADMAP 5f deletes this file with bench/'s
// next revision.

// EventType classifies a tracer event.
type EventType string

// EventCrash is the event type bench/ records.
const EventCrash EventType = "crash"

// Event is one tracer record.
type Event struct {
	Seq    uint64
	Node   int
	Txn    string
	Type   EventType
	Tick   int
	Detail string
}

// Tracer records events into a bounded ring behind one mutex. A nil
// Tracer is a valid disabled tracer; Record on it is a no-op.
type Tracer struct {
	mu   sync.Mutex
	buf  []Event
	next int
	seq  uint64
}

// NewTracer creates a tracer retaining at most capacity (at least one)
// events.
func NewTracer(capacity int) *Tracer {
	return &Tracer{buf: make([]Event, 0, max(capacity, 1))}
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
	t.buf[t.next] = e
	t.next = (t.next + 1) % len(t.buf)
}
