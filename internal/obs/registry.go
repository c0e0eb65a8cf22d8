// Package obs is the observability subsystem of the live stack: a
// concurrent metrics registry (atomic counters, gauges, and fixed-bucket
// histograms, with labeled families) exposable in the Prometheus text
// format, plus the batch-key convention the span ring's per-transaction
// views follow (batchkey.go; the ring itself is internal/obs/span).
//
// The paper's quantitative claims — expected asynchronous rounds
// (Theorem 10), message counts, the 8K-tick failure-free bound (Remark 1)
// — are claims about runtime behaviour, so the running system must be
// measurable, not just the offline simulator. Every layer of the live
// stack (runtime, transport, txn, service) emits into one shared
// Registry; cmd/commitd serves it at GET /metrics.prom.
//
// The package depends only on the standard library. All metric handles
// are safe for concurrent use, and every mutating method is nil-receiver
// safe so uninstrumented components (nil registry) pay only a nil check.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric family types, as named by the Prometheus exposition format.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// Registry holds metric families. The zero value is not usable; create
// with NewRegistry. A nil *Registry is a valid "disabled" registry: every
// constructor on it returns nil handles whose methods are no-ops.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family is one named metric family: a type, a help string, a label
// schema, and the children keyed by their label values.
type family struct {
	name   string
	help   string
	typ    string
	labels []string

	mu       sync.Mutex
	children map[string]child // key: joined label values
}

// child is one labeled series within a family.
type child struct {
	labelValues []string
	metric      any // *Counter, *Gauge, *Histogram, or func() float64
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup returns the family, creating it on first use. Re-registering a
// name with a different type or label schema panics: that is a wiring bug
// (two components fighting over one name), best caught loudly in tests.
func (r *Registry) lookup(name, help, typ string, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ,
			labels: append([]string(nil), labels...), children: make(map[string]child)}
		r.families[name] = f
		return f
	}
	if f.typ != typ || len(f.labels) != len(labels) {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s%v, was %s%v",
			name, typ, labels, f.typ, f.labels))
	}
	for i := range labels {
		if f.labels[i] != labels[i] {
			panic(fmt.Sprintf("obs: metric %q re-registered with labels %v, was %v",
				name, labels, f.labels))
		}
	}
	return f
}

// get returns the child for the given label values, creating it with
// mk on first use.
func (f *family) get(values []string, mk func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q: %d label values for %d labels",
			f.name, len(values), len(f.labels)))
	}
	key := joinValues(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = child{labelValues: append([]string(nil), values...), metric: mk()}
		f.children[key] = c
	}
	return c.metric
}

// joinValues builds the child map key. \x1f never appears in sane label
// values; escaping handles the pathological case.
func joinValues(values []string) string {
	var out strings.Builder
	for _, v := range values {
		for i := 0; i < len(v); i++ {
			if v[i] == '\x1f' || v[i] == '\\' {
				out.WriteByte('\\')
			}
			out.WriteByte(v[i])
		}
		out.WriteByte('\x1f')
	}
	return out.String()
}

// Counter is a monotonically increasing count. Nil counters are no-ops.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value reads the current count (0 on a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Counter returns the unlabeled counter family name.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	f := r.lookup(name, help, typeCounter, nil)
	return f.get(nil, func() any { return new(Counter) }).(*Counter)
}

// CounterVec is a labeled counter family.
type CounterVec struct {
	f *family
}

// CounterVec returns the labeled counter family name.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.lookup(name, help, typeCounter, labels)}
}

// With returns the child counter for the given label values, creating it
// on first use. Repeated calls with equal values return the same counter.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.get(values, func() any { return new(Counter) }).(*Counter)
}

// Gauge is a value that can go up and down, stored as float64 bits.
// Nil gauges are no-ops.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores x.
func (g *Gauge) Set(x float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(x))
}

// Add adds delta (CAS loop; safe under concurrent Add/Set).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value reads the current value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Gauge returns the unlabeled gauge family name.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	f := r.lookup(name, help, typeGauge, nil)
	return f.get(nil, func() any { return new(Gauge) }).(*Gauge)
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct {
	f *family
}

// GaugeVec returns the labeled gauge family name.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.lookup(name, help, typeGauge, labels)}
}

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.get(values, func() any { return new(Gauge) }).(*Gauge)
}

// GaugeFunc registers a gauge whose value is computed by fn at exposition
// time — the natural shape for "current depth of a queue" readings that
// already live behind the owner's lock.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	f := r.lookup(name, help, typeGauge, nil)
	f.get(nil, func() any { return fn })
}

// GaugeFuncVec is a labeled family of computed gauges: each child's value
// comes from a callback evaluated at exposition time. Sharded components
// register one child per shard ("current depth of shard k's queue").
type GaugeFuncVec struct {
	f *family
}

// GaugeFuncVec returns the labeled computed-gauge family name.
func (r *Registry) GaugeFuncVec(name, help string, labels ...string) *GaugeFuncVec {
	if r == nil {
		return nil
	}
	return &GaugeFuncVec{f: r.lookup(name, help, typeGauge, labels)}
}

// With registers fn as the child for the given label values. The first
// registration for a label set wins; later calls are no-ops (matching the
// create-on-first-use contract of the other vec types).
func (v *GaugeFuncVec) With(fn func() float64, values ...string) {
	if v == nil {
		return
	}
	v.f.get(values, func() any { return fn })
}

// Histogram is a fixed-bucket histogram: observation counts per upper
// bound, plus sum and count. Nil histograms are no-ops.
type Histogram struct {
	bounds  []float64 // strictly increasing upper bounds; +Inf implicit
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	count   atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(x float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, x) // first bound >= x
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + x)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count reads the total number of observations (0 on a nil histogram).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reads the sum of all observations (0 on a nil histogram).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Bucket is one histogram bucket in a snapshot: the cumulative count of
// samples at or below UpperBound (math.Inf(1) for the overflow bucket),
// matching the Prometheus exposition's `le` convention.
type Bucket struct {
	UpperBound float64
	Count      uint64
}

// Buckets snapshots the cumulative bucket counts (nil on a nil
// histogram). JSON surfaces use it to expose the same distribution the
// Prometheus exposition renders.
func (h *Histogram) Buckets() []Bucket {
	if h == nil {
		return nil
	}
	out := make([]Bucket, len(h.counts))
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		ub := math.Inf(1)
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		out[i] = Bucket{UpperBound: ub, Count: cum}
	}
	return out
}

// DefBuckets are general-purpose latency buckets in seconds, matching the
// conventional Prometheus defaults.
var DefBuckets = []float64{.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// TickBuckets are buckets for durations measured in protocol clock ticks
// (rounds-to-decision and friends): powers of two up to 4096. The paper's
// failure-free bound is 8K ticks (Remark 1, K=4 → 32), so the interesting
// range is well covered.
var TickBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// SizeBuckets are buckets for small counts (group-commit batch sizes,
// records per flush): powers of two up to 1024.
var SizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// newHistogram copies and validates bounds.
func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	bounds := append([]float64(nil), buckets...)
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram buckets not strictly increasing at %d: %v", i, bounds))
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Histogram returns the unlabeled histogram family name with the given
// bucket upper bounds (+Inf is implicit; nil buckets use DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	f := r.lookup(name, help, typeHistogram, nil)
	return f.get(nil, func() any { return newHistogram(buckets) }).(*Histogram)
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct {
	f       *family
	buckets []float64
}

// HistogramVec returns the labeled histogram family name.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{f: r.lookup(name, help, typeHistogram, labels),
		buckets: append([]float64(nil), buckets...)}
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.get(values, func() any { return newHistogram(v.buckets) }).(*Histogram)
}
