package span

import (
	"reflect"
	"runtime"
	"strconv"
	"testing"
)

func TestNilCollectorSafe(t *testing.T) {
	var c *Collector
	if c.Now() != 0 || c.Add(Span{}) != 0 || c.Dropped() != 0 || c.Len() != 0 {
		t.Error("nil collector methods must be no-op zeros")
	}
	g := c.Graph()
	if len(g.Spans) != 0 || len(g.Edges) != 0 {
		t.Error("nil collector graph must be empty")
	}
}

func TestCollectorClockAndIDs(t *testing.T) {
	now := int64(0)
	c := NewCollectorClock(8, func() int64 { return now })
	now = 7
	if c.Now() != 7 {
		t.Fatalf("Now() = %d, want 7", c.Now())
	}
	id1 := c.Add(Span{Track: "service", Name: StageAdmit, Kind: KindStage, Start: 0, End: 7})
	id2 := c.Add(Span{Track: "service", Name: StageBatch, Kind: KindStage, Start: 7, End: 9})
	if id1 != 1 || id2 != 2 {
		t.Fatalf("ids = %d,%d, want 1,2", id1, id2)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestCollectorEviction(t *testing.T) {
	c := NewCollectorClock(2, func() int64 { return 0 })
	for i := 0; i < 5; i++ {
		c.Add(Span{Track: "x", Name: "s", Start: int64(i), End: int64(i)})
	}
	if c.Dropped() != 3 {
		t.Fatalf("Dropped = %d, want 3", c.Dropped())
	}
	g := c.Graph()
	if g.Dropped != 3 {
		t.Fatalf("graph Dropped = %d, want 3", g.Dropped)
	}
	if len(g.Spans) != 2 || g.Spans[0].ID != 4 || g.Spans[1].ID != 5 {
		t.Fatalf("retained spans = %+v, want ids 4,5", g.Spans)
	}
}

func TestCollectorDefaultCapacity(t *testing.T) {
	c := NewCollector(0)
	if cap(c.buf) != DefaultCollectorCapacity {
		t.Fatalf("cap = %d, want %d", cap(c.buf), DefaultCollectorCapacity)
	}
	if c.Now() < 0 {
		t.Error("wall clock ran backward")
	}
}

func TestByTxnFilters(t *testing.T) {
	g := &Graph{Unit: "us", Spans: []Span{
		{ID: 1, Txn: "a", Track: "service", Name: StageAdmit},
		{ID: 2, Txn: "b", Track: "service", Name: StageAdmit},
		{ID: 3, Txn: "a", Track: "service", Name: StageNotify},
	}, Edges: []Edge{{From: 1, To: 3}, {From: 1, To: 2}}}
	fg := g.ByTxn("a")
	if len(fg.Spans) != 2 || fg.Spans[0].ID != 1 || fg.Spans[1].ID != 3 {
		t.Fatalf("filtered spans = %+v", fg.Spans)
	}
	if !reflect.DeepEqual(fg.Edges, []Edge{{From: 1, To: 3}}) {
		t.Fatalf("filtered edges = %+v", fg.Edges)
	}
}

// TestInferEdgesProgramOrder: spans on one (txn, track) chain in time
// order regardless of insertion order.
func TestInferEdgesProgramOrder(t *testing.T) {
	spans := []Span{
		{ID: 1, Txn: "t", Track: "proc 0", Name: "round 2", Kind: KindRound, Start: 10, End: 20},
		{ID: 2, Txn: "t", Track: "proc 0", Name: "round 1", Kind: KindRound, Start: 0, End: 10},
		{ID: 3, Txn: "t", Track: "proc 1", Name: "round 1", Kind: KindRound, Start: 0, End: 12},
	}
	got := InferEdges(spans)
	want := []Edge{{From: 2, To: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("edges = %+v, want %+v", got, want)
	}
}

// TestInferEdgesLink: a link span connects the sender span active at the
// send to the receiver span covering the delivery.
func TestInferEdgesLink(t *testing.T) {
	spans := []Span{
		{ID: 1, Track: "proc 0", Name: "round 1", Kind: KindRound, Start: 0, End: 10, From: -1, To: -1},
		{ID: 2, Track: "proc 1", Name: "round 1", Kind: KindRound, Start: 0, End: 8, From: -1, To: -1},
		{ID: 3, Track: "proc 1", Name: "round 2", Kind: KindRound, Start: 8, End: 20, From: -1, To: -1},
		{ID: 4, Track: "net", Name: "vote", Kind: KindLink, Start: 5, End: 12, From: 0, To: 1},
	}
	got := InferEdges(spans)
	want := []Edge{
		{From: 1, To: 4}, // proc 0's round active at send 5 → link
		{From: 2, To: 3}, // program order on proc 1
		{From: 4, To: 3}, // link delivery at 12 lands in proc 1's round 2
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("edges = %+v, want %+v", got, want)
	}
}

// TestInferEdgesLinkAfterLastSpan: a delivery after every receiver span
// ended attaches to the first span starting after it — or to none when
// the receiver has no later span.
func TestInferEdgesLinkAfterLastSpan(t *testing.T) {
	spans := []Span{
		{ID: 1, Track: "proc 0", Name: "round 1", Kind: KindRound, Start: 0, End: 4, From: -1, To: -1},
		{ID: 2, Track: "proc 1", Name: "round 1", Kind: KindRound, Start: 0, End: 3, From: -1, To: -1},
		{ID: 3, Track: "net", Name: "go", Kind: KindLink, Start: 1, End: 9, From: 0, To: 1},
	}
	got := InferEdges(spans)
	want := []Edge{{From: 1, To: 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("edges = %+v, want %+v", got, want)
	}
}

// TestInferEdgesServiceHandoff: dispatch feeds each processor's first
// protocol span; each processor's last protocol span feeds decided — the
// walk from the client-visible decision must descend into the protocol.
func TestInferEdgesServiceHandoff(t *testing.T) {
	spans := []Span{
		{ID: 1, Txn: "t", Track: "service", Name: StageAdmit, Kind: KindStage, Start: 0, End: 1},
		{ID: 2, Txn: "t", Track: "service", Name: StageDispatch, Kind: KindStage, Start: 1, End: 2},
		{ID: 3, Txn: "t", Track: "proc 0", Name: "round 1", Kind: KindRound, Start: 2, End: 6},
		{ID: 4, Txn: "t", Track: "proc 0", Name: "round 2", Kind: KindRound, Start: 6, End: 9},
		{ID: 5, Txn: "t", Track: "service", Name: StageDecided, Kind: KindStage, Start: 2, End: 10},
		{ID: 6, Txn: "t", Track: "service", Name: StageNotify, Kind: KindStage, Start: 10, End: 11},
	}
	got := InferEdges(spans)
	want := []Edge{
		{From: 1, To: 2}, // admit → dispatch (program order)
		{From: 2, To: 3}, // dispatch → first proto span
		{From: 2, To: 5}, // dispatch → decided (program order)
		{From: 3, To: 4}, // proto program order
		{From: 4, To: 5}, // last proto span → decided
		{From: 5, To: 6}, // decided → notify (program order)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("edges = %+v, want %+v", got, want)
	}
}

func TestInferEdgesEmpty(t *testing.T) {
	if got := InferEdges(nil); len(got) != 0 {
		t.Fatalf("edges of empty span set = %+v", got)
	}
}

// TestCollectorHoldsNoPerKeyState: the ring is the one retention policy,
// so what a collector keeps is bounded by its capacity however many
// distinct transaction keys pass through it. (The per-transaction cap
// this replaces kept one index entry per key for the collector's
// lifetime: the same loop retained 100 000 entries and 17 MB.)
func TestCollectorHoldsNoPerKeyState(t *testing.T) {
	const slots, keys, spans = 1024, 100_000, 1_000_000
	c := NewCollectorClock(slots, func() int64 { return 0 })
	txn := make([]string, keys)
	for i := range txn {
		txn[i] = "batch:batch-" + strconv.Itoa(i)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < spans; i++ {
		c.Add(Span{Txn: txn[i%keys], Track: "proc 0", Name: "round 1", Kind: KindRound})
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if c.Len() > slots {
		t.Errorf("Len = %d, want <= %d", c.Len(), slots)
	}
	if c.Dropped() != spans-slots {
		t.Errorf("Dropped = %d, want %d", c.Dropped(), spans-slots)
	}
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 1<<20 {
		t.Errorf("heap grew %d bytes over %d spans under %d keys, want under 1 MB", grew, spans, keys)
	}
	runtime.KeepAlive(txn) // freeing the keys before the second reading would hide that much growth
}
