package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

func TestTracerWraparound(t *testing.T) {
	tr := NewTracer(8)
	for i := 0; i < 20; i++ {
		tr.Record(Event{Node: i, Type: EventStage, Txn: fmt.Sprintf("t%d", i%2)})
	}
	if got := tr.Len(); got != 8 {
		t.Fatalf("Len = %d, want 8", got)
	}
	if got := tr.Dropped(); got != 12 {
		t.Errorf("Dropped = %d, want 12", got)
	}
	evs := tr.Recent(0)
	if len(evs) != 8 {
		t.Fatalf("Recent(0) = %d events, want 8", len(evs))
	}
	// The retained window is the 8 newest, in sequence order.
	for i, e := range evs {
		want := uint64(13 + i)
		if e.Seq != want {
			t.Errorf("evs[%d].Seq = %d, want %d", i, e.Seq, want)
		}
	}
	if got := tr.Recent(3); len(got) != 3 || got[2].Seq != 20 {
		t.Errorf("Recent(3) tail = %+v", got)
	}
}

func TestTracerByTxn(t *testing.T) {
	tr := NewTracer(16)
	for i := 0; i < 10; i++ {
		tr.Record(Event{Txn: fmt.Sprintf("t%d", i%2), Type: EventDecided, Tick: i})
	}
	evs := tr.ByTxn("t1", 0)
	if len(evs) != 5 {
		t.Fatalf("ByTxn(t1) = %d events, want 5", len(evs))
	}
	for _, e := range evs {
		if e.Txn != "t1" {
			t.Errorf("filter leaked event %+v", e)
		}
	}
	if got := tr.ByTxn("t0", 2); len(got) != 2 || got[1].Tick != 8 {
		t.Errorf("ByTxn(t0, 2) = %+v", got)
	}
	if got := tr.ByTxn("missing", 0); len(got) != 0 {
		t.Errorf("ByTxn(missing) = %+v", got)
	}
}

// TestTracerByTxnFollowsBatch: a member's events name its batch, and the
// per-transaction view includes that batch's milestones — in sequence
// order, without its siblings or other batches.
func TestTracerByTxnFollowsBatch(t *testing.T) {
	tr := NewTracer(32)
	tr.Record(Event{Txn: BatchKey("s2-batch-7"), Type: EventGoSent, Tick: 1})
	tr.Record(Event{Txn: BatchKey("s1-batch-7"), Type: EventGoSent, Tick: 1})
	tr.Record(Event{Txn: BatchKey("s2-batch-7"), Type: EventVoteCast, Tick: 2})
	tr.Record(Event{Txn: "a", Type: EventDecided, Tick: 5, Detail: "decision=COMMIT " + BatchDetail("s2-batch-7")})
	tr.Record(Event{Txn: "b", Type: EventDecided, Tick: 5, Detail: "decision=ABORT " + BatchDetail("s2-batch-7")})
	tr.Record(Event{Txn: "a", Type: EventRetired, Tick: 9})
	var got []uint64
	for _, e := range tr.ByTxn("a", 0) {
		got = append(got, e.Seq)
	}
	if want := []uint64{1, 3, 4, 6}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("ByTxn(a) seqs = %v, want %v", got, want)
	}

	for detail, want := range map[string]string{
		"decision=COMMIT batch=b 1":  "batch:b 1", // the id runs to the end
		"batch=solo":                 "batch:solo",
		"coordinator=0 batch=s0-b-3": "batch:s0-b-3",
		"decision=COMMIT":            "",
		"minibatch=3":                "",
		"":                           "",
	} {
		if got := BatchKeyOf(detail); got != want {
			t.Errorf("BatchKeyOf(%q) = %q, want %q", detail, got, want)
		}
	}
}

func TestTracerConcurrentRecord(t *testing.T) {
	tr := NewTracer(64)
	const workers, per = 16, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.Record(Event{Node: w, Type: EventGoSent, Tick: i})
				if i%50 == 0 {
					tr.Recent(10)
					tr.ByTxn("x", 4)
				}
			}
		}(w)
	}
	wg.Wait()
	evs := tr.Recent(0)
	if len(evs) != 64 {
		t.Fatalf("retained %d events, want 64", len(evs))
	}
	// Sequence numbers must be strictly increasing and dense at the tail.
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("non-dense seq at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
	if evs[len(evs)-1].Seq != workers*per {
		t.Errorf("last seq = %d, want %d", evs[len(evs)-1].Seq, workers*per)
	}
	if got := tr.Dropped(); got != workers*per-64 {
		t.Errorf("Dropped = %d, want %d", got, workers*per-64)
	}
}

func TestTracerExportJSON(t *testing.T) {
	tr := NewTracer(8)
	tr.Record(Event{Node: 0, Txn: "t1", Type: EventGoSent, Tick: 3})
	tr.Record(Event{Node: 1, Txn: "t1", Type: EventDecided, Tick: 9, Detail: "decision=COMMIT"})
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf, "t1", 10); err != nil {
		t.Fatal(err)
	}
	var ex TraceExport
	if err := json.Unmarshal(buf.Bytes(), &ex); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, buf.String())
	}
	if ex.Format != TraceFormat {
		t.Errorf("format = %q, want %q", ex.Format, TraceFormat)
	}
	if len(ex.Events) != 2 || ex.Events[1].Detail != "decision=COMMIT" {
		t.Errorf("events = %+v", ex.Events)
	}
}

func TestNilTracer(t *testing.T) {
	var tr *Tracer
	tr.Record(Event{Type: EventCrash})
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Error("nil tracer retained state")
	}
	if tr.Recent(5) != nil || tr.ByTxn("x", 5) != nil {
		t.Error("nil tracer returned events")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf, "", 0); err != nil {
		t.Fatal(err)
	}
	var ex TraceExport
	if err := json.Unmarshal(buf.Bytes(), &ex); err != nil {
		t.Fatal(err)
	}
	if len(ex.Events) != 0 {
		t.Errorf("nil tracer exported events: %+v", ex.Events)
	}
}

// TestTracerWraparoundBoundary pins the exact transition moments: a ring
// at capacity-1, at capacity, and one past it.
func TestTracerWraparoundBoundary(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 3; i++ {
		tr.Record(Event{Type: EventStage})
	}
	if tr.Len() != 3 || tr.Dropped() != 0 {
		t.Fatalf("pre-full: len=%d dropped=%d", tr.Len(), tr.Dropped())
	}
	tr.Record(Event{Type: EventStage})
	if tr.Len() != 4 || tr.Dropped() != 0 {
		t.Fatalf("at capacity: len=%d dropped=%d (filling the ring is not a drop)", tr.Len(), tr.Dropped())
	}
	tr.Record(Event{Type: EventStage})
	if tr.Len() != 4 || tr.Dropped() != 1 {
		t.Fatalf("past capacity: len=%d dropped=%d", tr.Len(), tr.Dropped())
	}
	evs := tr.Recent(0)
	if evs[0].Seq != 2 || evs[3].Seq != 5 {
		t.Fatalf("window = [%d..%d], want [2..5]", evs[0].Seq, evs[3].Seq)
	}
}

// TestTracerMultiGenerationWrap: after many full ring generations the
// snapshot is still the dense newest window, oldest first.
func TestTracerMultiGenerationWrap(t *testing.T) {
	const capacity, total = 7, 7*13 + 3
	tr := NewTracer(capacity)
	for i := 0; i < total; i++ {
		tr.Record(Event{Node: i, Type: EventStage})
	}
	evs := tr.Recent(0)
	if len(evs) != capacity {
		t.Fatalf("len = %d, want %d", len(evs), capacity)
	}
	for i, e := range evs {
		if want := uint64(total - capacity + 1 + i); e.Seq != want {
			t.Fatalf("evs[%d].Seq = %d, want %d", i, e.Seq, want)
		}
		if e.Node != total-capacity+i {
			t.Fatalf("evs[%d].Node = %d: payload did not travel with its slot", i, e.Node)
		}
	}
	if got := tr.Dropped(); got != total-capacity {
		t.Fatalf("Dropped = %d, want %d", got, total-capacity)
	}
}

// TestTracerConcurrentRecordAndExport hammers Record from many writers
// while readers continuously Export, Recent, ByTxn, and WriteJSON.
// Run under -race this is the data-race check; the assertions verify
// every snapshot is internally sane (strictly increasing dense seq,
// oldest-first) no matter how the ring wraps mid-read.
func TestTracerConcurrentRecordAndExport(t *testing.T) {
	tr := NewTracer(32)
	const writers, per, readers = 8, 400, 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				evs := tr.Export("", 0).Events
				for i := 1; i < len(evs); i++ {
					if evs[i].Seq != evs[i-1].Seq+1 {
						t.Errorf("reader %d: non-dense snapshot: %d then %d", r, evs[i-1].Seq, evs[i].Seq)
						return
					}
				}
				tr.ByTxn("a", 5)
				var buf bytes.Buffer
				if err := tr.WriteJSON(&buf, "", 8); err != nil {
					t.Errorf("WriteJSON: %v", err)
					return
				}
			}
		}(r)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			txns := [2]string{"a", "b"}
			for i := 0; i < per; i++ {
				tr.Record(Event{Node: w, Txn: txns[i%2], Type: EventDecided, Tick: i})
			}
		}(w)
	}
	// Wait for the writers by watching the drop counter reach its final
	// value, then release the readers.
	for tr.Dropped() < writers*per-32 {
		tr.Recent(1)
	}
	close(stop)
	wg.Wait()

	ex := tr.Export("", 0)
	if len(ex.Events) != 32 {
		t.Fatalf("retained %d, want 32", len(ex.Events))
	}
	if ex.Events[31].Seq != writers*per {
		t.Fatalf("last seq = %d, want %d", ex.Events[31].Seq, writers*per)
	}
	if ex.Dropped != writers*per-32 {
		t.Fatalf("export dropped = %d, want %d", ex.Dropped, writers*per-32)
	}
	// Per-transaction filter respects the same global order.
	byTxn := tr.ByTxn("a", 0)
	for i := 1; i < len(byTxn); i++ {
		if byTxn[i].Seq <= byTxn[i-1].Seq {
			t.Fatalf("ByTxn out of order: %d then %d", byTxn[i-1].Seq, byTxn[i].Seq)
		}
	}
}
