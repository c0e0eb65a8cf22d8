package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_total", "help")
	vec := reg.CounterVec("test_labeled_total", "help", "node")
	const workers, per = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				vec.With("0").Inc()
				vec.With("1").Add(2)
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := vec.With("0").Value(); got != workers*per {
		t.Errorf("vec[0] = %d, want %d", got, workers*per)
	}
	if got := vec.With("1").Value(); got != 2*workers*per {
		t.Errorf("vec[1] = %d, want %d", got, 2*workers*per)
	}
}

func TestGaugeConcurrentAdd(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("test_gauge", "help")
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				g.Add(1)
				g.Add(-1)
				g.Add(3)
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 3*workers*per {
		t.Errorf("gauge = %v, want %d", got, 3*workers*per)
	}
	g.Set(-2.5)
	if got := g.Value(); got != -2.5 {
		t.Errorf("gauge after Set = %v, want -2.5", got)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("test_hist", "help", []float64{1, 2, 4})
	const workers, per = 8, 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(0.5) // bucket le=1
				h.Observe(3)   // bucket le=4
				h.Observe(100) // +Inf bucket
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != 3*workers*per {
		t.Errorf("count = %d, want %d", got, 3*workers*per)
	}
	want := float64(workers*per) * (0.5 + 3 + 100)
	if got := h.Sum(); math.Abs(got-want) > 1e-6 {
		t.Errorf("sum = %v, want %v", got, want)
	}
	if got := h.counts[0].Load(); got != workers*per {
		t.Errorf("bucket le=1 = %d, want %d", got, workers*per)
	}
	if got := h.counts[2].Load(); got != workers*per {
		t.Errorf("bucket le=4 = %d, want %d", got, workers*per)
	}
	if got := h.counts[3].Load(); got != workers*per {
		t.Errorf("+Inf bucket = %d, want %d", got, workers*per)
	}
}

func TestVecIdentity(t *testing.T) {
	reg := NewRegistry()
	vec := reg.CounterVec("id_total", "help", "a", "b")
	c1 := vec.With("x", "y")
	c2 := vec.With("x", "y")
	if c1 != c2 {
		t.Error("With with equal values returned distinct counters")
	}
	if c3 := vec.With("x", "z"); c3 == c1 {
		t.Error("With with different values returned the same counter")
	}
	// Re-looking up a family returns the same children.
	again := reg.CounterVec("id_total", "help", "a", "b")
	again.With("x", "y").Inc()
	if c1.Value() != 1 {
		t.Error("re-registered family does not share children")
	}
	// A separator or escape byte inside a value cannot alias two children.
	if vec.With("x\x1f", "y") == vec.With("x", "\x1fy") || vec.With("x\\", "y") == vec.With("x", "\\y") {
		t.Error("values differing only around a separator share a counter")
	}
	if allocs := testing.AllocsPerRun(100, func() { vec.With("x", "y") }); allocs > 2 {
		t.Errorf("With of an existing child allocates %.0f times, want at most 2", allocs)
	}
}

func TestRegisterConflictPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("clash", "help")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	reg.Gauge("clash", "help")
}

func TestNilRegistryAndHandles(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x", "")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter has a value")
	}
	g := reg.Gauge("y", "")
	g.Set(1)
	g.Add(2)
	if g.Value() != 0 {
		t.Error("nil gauge has a value")
	}
	h := reg.Histogram("z", "", nil)
	h.Observe(3)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil histogram recorded")
	}
	reg.CounterVec("v", "", "l").With("a").Inc()
	reg.GaugeVec("w", "", "l").With("a").Set(1)
	reg.HistogramVec("u", "", nil, "l").With("a").Observe(1)
	reg.GaugeFunc("f", "", func() float64 { return 1 })
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatalf("nil WritePrometheus: %v", err)
	}
	if b.Len() != 0 {
		t.Errorf("nil registry wrote %q", b.String())
	}
}

func TestGaugeFunc(t *testing.T) {
	reg := NewRegistry()
	depth := 7
	reg.GaugeFunc("queue_depth", "current depth", func() float64 { return float64(depth) })
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "queue_depth 7\n") {
		t.Errorf("exposition missing computed gauge:\n%s", b.String())
	}
}

func TestConcurrentRegistrationAndExposition(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				reg.Counter("shared_total", "h").Inc()
				reg.CounterVec("vec_total", "h", "node").With("0").Inc()
				reg.Histogram("h_seconds", "h", nil).Observe(0.01)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var b strings.Builder
			if err := reg.WritePrometheus(&b); err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if got := reg.Counter("shared_total", "h").Value(); got != 800 {
		t.Errorf("shared_total = %d, want 800", got)
	}
}

// TestHistogramBuckets: the snapshot accessor reports cumulative counts
// per upper bound, ending with +Inf, matching the exposition semantics.
func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	for _, x := range []float64{0.5, 2, 3, 100} {
		h.Observe(x)
	}
	got := h.Buckets()
	want := []Bucket{
		{UpperBound: 1, Count: 1},
		{UpperBound: 2, Count: 2},
		{UpperBound: 4, Count: 3},
		{UpperBound: math.Inf(1), Count: 4},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d buckets, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	var nilH *Histogram
	if nilH.Buckets() != nil {
		t.Error("nil histogram returned buckets")
	}
}
