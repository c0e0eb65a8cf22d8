// Package span is the causal-tracing layer of the observability
// subsystem: it models a run of the commit stack as a happens-before DAG
// of spans — service pipeline stages, per-processor asynchronous rounds,
// and message links — and computes the critical path of a decision: the
// causal chain whose last-arriving step determined the end-to-end
// latency, attributed per stage, round, and link. The same ring holds the
// live stack's protocol milestones (GO sent, vote cast, stage entered,
// crash, ...) as zero-length event records, so one transaction's whole
// story is one filter away.
//
// The model follows the paper's own time measure: an asynchronous round
// (§2.2) is defined per processor and driven by last-message receipt, so
// the natural explanation of "why did this decision take 9 rounds" is a
// chain of spans connected by the messages whose arrival extended each
// round. The package has two producers:
//
//   - Collector: live instrumentation (service stages, manager rounds and
//     milestones, transport links, crashes) stamped with one shared clock
//     — wall-clock microseconds in live mode, a caller-supplied logical
//     clock in tests.
//   - FromTrace: the offline simulator's trace.Trace, timestamped in
//     global event indices — fully deterministic, byte-identical across
//     runs of one seed at any GOMAXPROCS.
//
// Everything downstream (edge inference, critical path, exporters) is a
// pure function of the span set, so either producer feeds any consumer.
// The package depends only on the standard library plus the repo's own
// trace/rounds/obs packages.
package span

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Kind classifies a span for attribution.
type Kind string

// Span kinds: a service pipeline stage, one per-processor asynchronous
// round of a protocol instance, one message's network flight, or a
// zero-length protocol milestone. Event records take no part in the
// causal graph: InferEdges gives them no edges and no critical path
// targets one.
const (
	KindStage Kind = "stage"
	KindRound Kind = "round"
	KindLink  Kind = "link"
	KindEvent Kind = "event"
)

// Milestone names: the KindEvent records of the live stack. The
// transaction manager lays down the protocol's (§3.2: the coordinator
// floods GO, participants relay it and cast votes, every processor runs
// Protocol 1 stage by stage) and an instance's end (retired to a
// tombstone, or abandoned undecided at MaxAge); the runtime lays down
// fail-stop crashes and restarts. A decision is the zero-length
// "decided" stage span, not an event: critical paths end there.
const (
	EventGoSent    = "go_sent"   // this node broadcast/relayed GO
	EventGoRecv    = "go_recv"   // first GO (or piggyback) received
	EventVoteCast  = "vote_cast" // this node broadcast its vote
	EventStage     = "stage"     // Protocol 1 entered a new stage
	EventRetired   = "retired"   // decided instance retired to tombstone
	EventAbandoned = "abandoned" // undecided instance hit MaxAge
	EventCrash     = "crash"     // node fail-stopped
	EventRecover   = "recover"   // node rejoined
)

// Service pipeline stage names, in causal order. The service records one
// span per stage per transaction: queue wait (admit), batch assembly
// (batch), slot acquisition + instance begin (dispatch), the protocol's
// own deciding time (decided), and result delivery (notify).
const (
	StageAdmit    = "admit"
	StageBatch    = "batch"
	StageDispatch = "dispatch"
	StageDecided  = "decided"
	StageNotify   = "notify"
)

// ServiceTrack is the track name for service pipeline stages.
const ServiceTrack = "service"

// NetTrack is the track name link spans ride on.
const NetTrack = "net"

// ProcTrack renders processor p's track name.
func ProcTrack(p int) string { return "proc " + strconv.Itoa(p) }

// Span is one interval on a track. Start and End are in the owning
// graph's Unit; a zero-length span marks an instant (a decision, a
// crash). From/To are processor ids and meaningful only for link spans
// (-1 otherwise).
type Span struct {
	ID     int    `json:"id"`
	Txn    string `json:"txn,omitempty"`
	Track  string `json:"track"`
	Name   string `json:"name"`
	Kind   Kind   `json:"kind"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	From   int    `json:"from"`
	To     int    `json:"to"`
	Detail string `json:"detail,omitempty"`
}

// Duration is End - Start.
func (s *Span) Duration() int64 { return s.End - s.Start }

// Milestone reports whether s is one of a node's protocol milestones: an
// event record or the decided marker, on a processor track.
func (s *Span) Milestone() bool {
	return strings.HasPrefix(s.Track, "proc ") && (s.Kind == KindEvent || s.Name == StageDecided)
}

// Edge is one happens-before edge: the From span is a causal predecessor
// of the To span (ids, not indices).
type Edge struct {
	From int `json:"from"`
	To   int `json:"to"`
}

// Graph is a span set plus its inferred happens-before edges, ready for
// critical-path analysis and export.
type Graph struct {
	// Unit names the timestamp domain: "us" (live wall-clock
	// microseconds), "tick" (manager clock ticks), or "event" (simulator
	// global event indices).
	Unit string `json:"unit"`
	// Dropped counts spans evicted from a bounded collector before the
	// snapshot; edges touching them are gone too.
	Dropped uint64 `json:"dropped"`
	Spans   []Span `json:"spans"`
	Edges   []Edge `json:"edges"`
}

// ByTxn returns the subgraph of one transaction: the spans stamped with
// it plus those of the agreement batch they name (see Filter).
func (g *Graph) ByTxn(txn string) *Graph {
	return g.Filter(func(t string) bool { return t == txn })
}

// Filter returns the subgraph of the transactions match accepts: their
// own spans, and the spans of every agreement batch those name in their
// Detail (obs.BatchDetail) — a member's rounds and links are recorded
// under its batch's key, so a per-transaction view follows it there.
// Edges are kept when both ends are.
func (g *Graph) Filter(match func(txn string) bool) *Graph {
	batches := make(map[string]bool)
	for i := range g.Spans {
		if s := &g.Spans[i]; match(s.Txn) {
			if k := obs.BatchKeyOf(s.Detail); k != "" {
				batches[k] = true
			}
		}
	}
	out := &Graph{Unit: g.Unit, Dropped: g.Dropped}
	keep := make(map[int]bool)
	for _, s := range g.Spans {
		if match(s.Txn) || batches[s.Txn] {
			out.Spans = append(out.Spans, s)
			keep[s.ID] = true
		}
	}
	for _, e := range g.Edges {
		if keep[e.From] && keep[e.To] {
			out.Edges = append(out.Edges, e)
		}
	}
	return out
}

// span lookup by id; built on demand by consumers.
func (g *Graph) index() map[int]*Span {
	idx := make(map[int]*Span, len(g.Spans))
	for i := range g.Spans {
		idx[g.Spans[i].ID] = &g.Spans[i]
	}
	return idx
}

// DefaultCollectorCapacity bounds a collector created with capacity <= 0.
const DefaultCollectorCapacity = 1 << 14

// Collector gathers spans from the live stack into a bounded buffer:
// constant memory under unbounded traffic, always holding the most
// recent spans. All methods are safe for concurrent use and nil-receiver
// safe, so uninstrumented components pay only a nil check.
//
// Timestamps come from the collector's own clock — microseconds since
// the collector's creation by default, or a caller-supplied clock (tests
// use a manual one; determinism then is the caller's property).
type Collector struct {
	clock func() int64

	mu      sync.Mutex
	buf     []Span
	next    int
	seq     int
	dropped uint64
}

// NewCollector creates a collector retaining at most capacity spans,
// stamped with wall-clock microseconds since creation.
func NewCollector(capacity int) *Collector {
	epoch := time.Now()
	return NewCollectorClock(capacity, func() int64 {
		return time.Since(epoch).Microseconds()
	})
}

// NewCollectorClock creates a collector with a caller-supplied clock.
func NewCollectorClock(capacity int, clock func() int64) *Collector {
	if capacity <= 0 {
		capacity = DefaultCollectorCapacity
	}
	return &Collector{clock: clock, buf: make([]Span, 0, capacity)}
}

// Now reads the collector's clock (0 on a nil collector).
func (c *Collector) Now() int64 {
	if c == nil {
		return 0
	}
	return c.clock()
}

// Add records one completed span, assigning its id. The oldest span is
// evicted once the buffer is full. Returns the assigned id (0 on a nil
// collector).
func (c *Collector) Add(s Span) int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	s.ID = c.seq
	if len(c.buf) < cap(c.buf) {
		c.buf = append(c.buf, s)
	} else {
		c.dropped++
		c.buf[c.next] = s
		c.next = (c.next + 1) % len(c.buf)
	}
	return s.ID
}

// Mark records a protocol milestone: a zero-length KindEvent span at the
// collector's current time. A no-op on a nil collector.
func (c *Collector) Mark(txn, track, name, detail string) {
	if c == nil {
		return
	}
	now := c.clock()
	c.Add(Span{Txn: txn, Track: track, Name: name, Kind: KindEvent,
		Start: now, End: now, From: -1, To: -1, Detail: detail})
}

// Dropped reports how many spans have been evicted since creation.
func (c *Collector) Dropped() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// Len reports how many spans are currently retained.
func (c *Collector) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.buf)
}

// Graph snapshots the retained spans (sorted by id) and infers their
// happens-before edges. A nil collector yields an empty graph.
func (c *Collector) Graph() *Graph {
	g := &Graph{Unit: "us"}
	if c == nil {
		g.Spans, g.Edges = []Span{}, []Edge{}
		return g
	}
	c.mu.Lock()
	spans := append([]Span(nil), c.buf...)
	g.Dropped = c.dropped
	c.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	g.Spans = spans
	g.Edges = InferEdges(spans)
	if g.Spans == nil {
		g.Spans = []Span{}
	}
	return g
}
