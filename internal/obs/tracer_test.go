package obs

import (
	"sync"
	"testing"
)

// retained copies the tracer's ring oldest first, and dropped counts what
// wraparound overwrote; the package keeps no reader of its own.
func retained(t *Tracer) []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append(append([]Event(nil), t.buf[t.next:]...), t.buf[:t.next]...)
}

func dropped(t *Tracer) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq - uint64(len(t.buf))
}

func TestTracerWraparound(t *testing.T) {
	tr := NewTracer(8)
	for i := 0; i < 20; i++ {
		tr.Record(Event{Node: i, Type: EventCrash})
	}
	if got := dropped(tr); got != 12 {
		t.Errorf("dropped = %d, want 12", got)
	}
	evs := retained(tr)
	if len(evs) != 8 {
		t.Fatalf("retained %d events, want 8", len(evs))
	}
	// The retained window is the 8 newest, in sequence order.
	for i, e := range evs {
		want := uint64(13 + i)
		if e.Seq != want {
			t.Errorf("evs[%d].Seq = %d, want %d", i, e.Seq, want)
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
				tr.Record(Event{Node: w, Type: EventCrash, Tick: i})
			}
		}(w)
	}
	wg.Wait()
	evs := retained(tr)
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
	if got := dropped(tr); got != workers*per-64 {
		t.Errorf("dropped = %d, want %d", got, workers*per-64)
	}
}

func TestNilTracer(t *testing.T) {
	var tr *Tracer
	tr.Record(Event{Type: EventCrash}) // a no-op, not a panic
	if tr := NewTracer(0); cap(tr.buf) != 1 {
		t.Errorf("NewTracer(0) holds %d slots, want 1", cap(tr.buf))
	}
}

// TestTracerWraparoundBoundary pins the exact transition moments: a ring
// at capacity-1, at capacity, and one past it.
func TestTracerWraparoundBoundary(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 3; i++ {
		tr.Record(Event{Type: EventCrash})
	}
	if n, d := len(retained(tr)), dropped(tr); n != 3 || d != 0 {
		t.Fatalf("pre-full: len=%d dropped=%d", n, d)
	}
	tr.Record(Event{Type: EventCrash})
	if n, d := len(retained(tr)), dropped(tr); n != 4 || d != 0 {
		t.Fatalf("at capacity: len=%d dropped=%d (filling the ring is not a drop)", n, d)
	}
	tr.Record(Event{Type: EventCrash})
	if n, d := len(retained(tr)), dropped(tr); n != 4 || d != 1 {
		t.Fatalf("past capacity: len=%d dropped=%d", n, d)
	}
	evs := retained(tr)
	if evs[0].Seq != 2 || evs[3].Seq != 5 {
		t.Fatalf("window = [%d..%d], want [2..5]", evs[0].Seq, evs[3].Seq)
	}
}

// TestTracerMultiGenerationWrap: after many full ring generations the
// ring is still the dense newest window, oldest first.
func TestTracerMultiGenerationWrap(t *testing.T) {
	const capacity, total = 7, 7*13 + 3
	tr := NewTracer(capacity)
	for i := 0; i < total; i++ {
		tr.Record(Event{Node: i, Type: EventCrash})
	}
	evs := retained(tr)
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
	if got := dropped(tr); got != total-capacity {
		t.Fatalf("dropped = %d, want %d", got, total-capacity)
	}
}
