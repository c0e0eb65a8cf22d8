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
	"repro/internal/types"
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

// Fig names how Graph formats a record's figures into its Name and
// Detail. A manager milestone's Detail is its tick and, per Fig, one or
// two named figures (MarkTick); rounds and decided markers have forms of
// their own (AddRound, MarkDecided).
type Fig uint8

// The forms. figPlain records keep the Name and Detail they were given.
const (
	figPlain   Fig = iota
	FigTick        // Detail "tick=<t>"
	FigFrom        // "tick=<t> from=<x>"
	FigVotes       // "tick=<t> votes=<x>"
	FigStage       // "tick=<t> stage=<x>"
	FigCoins       // "tick=<t> coins=<x> fanout=<y>"
	figRound       // Name "round <r>", Detail "ticks <a>..<b>"
	figDecided     // Detail "decision=<d> batch=<id>", the id held in Detail
)

// record is one ring entry: a span and the figures Graph formats into it,
// so recording builds no string; only a snapshot does.
type record struct {
	Span
	fig Fig
	n   [3]int64
}

// span formats the record's figures into its Name and Detail.
func (r *record) span() Span {
	s := r.Span
	n := func(i int) string { return strconv.FormatInt(r.n[i], 10) }
	switch r.fig {
	case FigTick:
		s.Detail = "tick=" + n(0)
	case FigFrom:
		s.Detail = "tick=" + n(0) + " from=" + n(1)
	case FigVotes:
		s.Detail = "tick=" + n(0) + " votes=" + n(1)
	case FigStage:
		s.Detail = "tick=" + n(0) + " stage=" + n(1)
	case FigCoins:
		s.Detail = "tick=" + n(0) + " coins=" + n(1) + " fanout=" + n(2)
	case figRound:
		s.Name = "round " + n(0)
		s.Detail = "ticks " + n(1) + ".." + n(2)
	case figDecided:
		s.Detail = "decision=" + types.Decision(r.n[0]).String() + " " + obs.BatchDetail(r.Detail)
	}
	return s
}

// Collector gathers spans from the live stack into a bounded buffer:
// constant memory under unbounded traffic, always holding the most
// recent spans. All methods are safe for concurrent use and nil-receiver
// safe, so uninstrumented components pay only a nil check.
//
// A collector records every transaction, or, built by NewSampledCollector,
// only the sampled ones (Traced). Its producers ask Traced once per
// transaction and lay down nothing for one it does not trace; records
// that name no transaction (crash, recover) are always kept.
//
// Timestamps come from the collector's own clock — microseconds since
// the collector's creation by default, or a caller-supplied clock (tests
// use a manual one; determinism then is the caller's property).
type Collector struct {
	clock   func() int64
	sampled bool // Traced keeps one id in SampleEvery

	mu      sync.Mutex
	buf     []record
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
	return &Collector{clock: clock, buf: make([]record, 0, capacity)}
}

// SampleEvery is a sampled collector's rate: it traces one transaction
// id in SampleEvery.
const SampleEvery = 64

// ChildSep joins a cross-shard transaction's id to a shard number in the
// ids of its per-shard children ("pay-42#s0"); Traced decides a child on
// its parent's id, so a sampled cross transaction is traced in every
// group it touches.
const ChildSep = "#s"

// NewSampledCollector creates a collector as NewCollector does that
// traces one transaction id in SampleEvery (Traced). A service or sharded
// deployment that is given no collector builds one: its ring then costs
// an untraced transaction one flag test per layer and holds 64 times the
// history.
func NewSampledCollector(capacity int) *Collector {
	c := NewCollector(capacity)
	c.sampled = true
	return c
}

// Traced reports whether the collector records the transaction keyed id:
// always, unless it samples; then for one id in SampleEvery, by a hash
// of the id up to any ChildSep. False on a nil collector.
func (c *Collector) Traced(id string) bool {
	if c == nil {
		return false
	}
	if !c.sampled {
		return true
	}
	if i := strings.Index(id, ChildSep); i >= 0 {
		id = id[:i]
	}
	// FNV-1a, then a 64-bit finalizer: FNV's low bits follow the id's
	// last byte alone, and sequential ids differ only there.
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h%SampleEvery == 0
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
	r := c.claimLocked()
	r.Span, r.fig = s, figPlain // a plain record's figures are never read
	r.ID = c.seq
	id := c.seq
	c.mu.Unlock()
	return id
}

// add stores one record, assigning its id.
func (c *Collector) add(rec *record) {
	c.mu.Lock()
	r := c.claimLocked()
	*r = *rec
	r.ID = c.seq
	c.mu.Unlock()
}

// claimLocked returns the ring slot the next record goes in, evicting the
// oldest once the ring is full, and counts the record in seq. Caller
// holds mu.
func (c *Collector) claimLocked() *record {
	c.seq++
	if len(c.buf) < cap(c.buf) {
		c.buf = c.buf[:len(c.buf)+1]
		return &c.buf[len(c.buf)-1]
	}
	c.dropped++
	r := &c.buf[c.next]
	c.next = (c.next + 1) % len(c.buf)
	return r
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

// MarkTick records a manager milestone as Mark does, its Detail the
// manager tick followed by fig's figures x and y (see Fig).
func (c *Collector) MarkTick(txn, track, name string, tick int, fig Fig, x, y int) {
	if c == nil {
		return
	}
	now := c.clock()
	c.add(&record{
		Span: Span{Txn: txn, Track: track, Name: name, Kind: KindEvent,
			Start: now, End: now, From: -1, To: -1},
		fig: fig, n: [3]int64{int64(tick), int64(x), int64(y)},
	})
}

// AddRound records asynchronous round number round of an instance, from
// start to end on the collector clock and from manager tick fromTick to
// toTick: Name "round <round>", Detail "ticks <fromTick>..<toTick>".
func (c *Collector) AddRound(txn, track string, round, fromTick, toTick int, start, end int64) {
	if c == nil {
		return
	}
	c.add(&record{
		Span: Span{Txn: txn, Track: track, Kind: KindRound, Start: start, End: end, From: -1, To: -1},
		fig:  figRound, n: [3]int64{int64(round), int64(fromTick), int64(toTick)},
	})
}

// MarkDecided records a member's zero-length decided marker, its Detail
// "decision=<d> " plus obs.BatchDetail(batch), so a per-transaction view
// follows it to its batch.
func (c *Collector) MarkDecided(txn, track string, d types.Decision, batch string) {
	if c == nil {
		return
	}
	now := c.clock()
	c.add(&record{
		Span: Span{Txn: txn, Track: track, Name: StageDecided, Kind: KindStage,
			Start: now, End: now, From: -1, To: -1, Detail: batch},
		fig: figDecided, n: [3]int64{int64(d)},
	})
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

// Graph snapshots the retained spans (sorted by id), formatting their
// figures, and infers their happens-before edges. A nil collector yields
// an empty graph.
func (c *Collector) Graph() *Graph {
	g := &Graph{Unit: "us"}
	if c == nil {
		g.Spans, g.Edges = []Span{}, []Edge{}
		return g
	}
	c.mu.Lock()
	recs := append([]record(nil), c.buf...)
	g.Dropped = c.dropped
	c.mu.Unlock()
	var spans []Span
	if len(recs) > 0 {
		spans = make([]Span, len(recs))
		for i := range recs {
			spans[i] = recs[i].span()
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	g.Spans = spans
	g.Edges = InferEdges(spans)
	if g.Spans == nil {
		g.Spans = []Span{}
	}
	return g
}
