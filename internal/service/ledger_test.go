package service_test

import (
	"bytes"
	"context"
	"fmt"
	"regexp"
	goruntime "runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/wal"
)

// The allocation ledger: what one member transaction costs the in-process
// stack in heap objects and bytes (allocs/op and B/op, process-wide, so
// the runtime goroutines' protocol work is counted), wire frames, journal
// fsyncs, records and bytes, and the frames a runtime goroutine took from
// a channel another goroutine filled (handoffs/op) and span ring records
// (ring/op), beside the mean batch width that amortizes them, the share of
// batches one member wide (width1/batch) and the runtime goroutines per
// group (goroutines/group). Serial callers pay for width-1 batches; 16 parallel callers let
// batches widen; the w rows fix the width, BatchMax members per batch,
// with twice as many callers as n batches of that width hold. The
// parent-versus-change tables live in ledger.txt beside this file.
//
//	go test ./internal/service/ -run '^$' -bench Ledger -benchmem
//
// No count is checked against a threshold: counts move with the toolchain.

// ledgerConfig is one row of the ledger.
type ledgerConfig struct {
	n       int
	journal bool
	callers int // 1 submits serially
	width   int // BatchMax, when the row fixes the width (0: default)
	// groups, when above 1, starts the measured service together with
	// groups-1 idle ones (service.NewGroups), as shard_cross_c16's four
	// groups start: at GOMAXPROCS up to groups every group is driven
	// (runtime.StartGroups).
	groups int
}

func (c ledgerConfig) name() string {
	j := "nojournal"
	if c.journal {
		j = "memfs"
	}
	name := fmt.Sprintf("n%d_%s_c%d", c.n, j, c.callers)
	if c.width > 0 {
		name = fmt.Sprintf("n%d_%s_w%d", c.n, j, c.width)
	}
	if c.groups > 1 {
		name += fmt.Sprintf("_g%d", c.groups)
	}
	return name
}

var ledgerConfigs = func() []ledgerConfig {
	var cs []ledgerConfig
	for _, callers := range []int{1, 16} {
		for _, n := range []int{3, 5} {
			for _, journal := range []bool{false, true} {
				cs = append(cs, ledgerConfig{n: n, journal: journal, callers: callers})
			}
		}
	}
	for _, width := range []int{8, 32} {
		cs = append(cs, ledgerConfig{n: 3, journal: true, callers: 2 * 3 * width, width: width})
	}
	for _, callers := range []int{1, 16} {
		for _, n := range []int{3, 5} {
			cs = append(cs, ledgerConfig{n: n, callers: callers, groups: 4})
		}
	}
	return cs
}()

// ledgerCounts are the cumulative counters a ledger run differences.
type ledgerCounts struct {
	frames, handoffs, fsyncs, records, batches, oneWide, ring uint64
	journalBytes                                              int64
	members                                                   float64
}

// ledgerRig is one service under ledger measurement.
type ledgerRig struct {
	svc      *service.Service
	siblings []*service.Service // idle groups beside it
	journal  *wal.DecisionLog
	disk     *byteFS
	frames   *obs.Counter
	handoffs []*obs.Counter // per node
	fsyncs   *obs.Counter
	records  *obs.Counter
}

// byteFS counts the bytes written to the files it opens.
type byteFS struct {
	wal.FS
	n atomic.Int64
}

type byteFile struct {
	wal.File
	n *atomic.Int64
}

func (f *byteFS) Create(name string) (wal.File, error) {
	inner, err := f.FS.Create(name)
	return &byteFile{inner, &f.n}, err
}

func (f *byteFS) OpenAppend(name string) (wal.File, error) {
	inner, err := f.FS.OpenAppend(name)
	return &byteFile{inner, &f.n}, err
}

func (f *byteFile) Write(p []byte) (int, error) {
	f.n.Add(int64(len(p)))
	return f.File.Write(p)
}

func newLedgerRig(tb testing.TB, c ledgerConfig) *ledgerRig {
	tb.Helper()
	r := &ledgerRig{}
	reg := obs.NewRegistry()
	cfg := service.Config{
		N: c.n, K: 4, Seed: 0x1ed6e5, TickEvery: time.Millisecond,
		DefaultTimeout: time.Minute, Registry: reg, BatchMax: c.width,
	}
	if c.journal {
		r.disk = &byteFS{FS: wal.NewMemFS()}
		j, err := wal.OpenDecisionLog(wal.SegmentedOptions{FS: r.disk, Registry: reg, Name: "ledger"})
		if err != nil {
			tb.Fatal(err)
		}
		r.journal, cfg.Journal = j, j
	}
	cfgs := []service.Config{cfg}
	for g := 1; g < c.groups; g++ {
		cfgs = append(cfgs, service.Config{N: c.n, K: 4, TickEvery: time.Millisecond})
	}
	ss, err := service.NewGroups(cfgs)
	if err != nil {
		tb.Fatal(err)
	}
	r.svc, r.siblings = ss[0], ss[1:]
	r.frames = reg.CounterVec("transport_messages_sent_total", "", "transport").With("channel")
	for p := 0; p < c.n; p++ {
		r.handoffs = append(r.handoffs, reg.CounterVec("runtime_node_channel_handoffs_total", "", "node").With(strconv.Itoa(p)))
	}
	r.fsyncs = reg.CounterVec("wal_fsyncs_total", "", "log").With("ledger")
	r.records = reg.CounterVec("wal_appends_total", "", "log").With("ledger")
	return r
}

func (r *ledgerRig) close(tb testing.TB) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, s := range append(r.siblings, r.svc) {
		if err := s.Close(ctx); err != nil {
			tb.Errorf("close: %v", err)
		}
	}
	if r.journal != nil {
		if err := r.journal.Close(); err != nil {
			tb.Errorf("journal close: %v", err)
		}
	}
}

func (r *ledgerRig) counts() ledgerCounts {
	// The ring's total: what it holds plus what it has evicted.
	spans := r.svc.Spans()
	c := ledgerCounts{frames: r.frames.Value(), fsyncs: r.fsyncs.Value(), records: r.records.Value(),
		ring: uint64(spans.Len()) + spans.Dropped()}
	for _, h := range r.handoffs {
		c.handoffs += h.Value()
	}
	if r.disk != nil {
		c.journalBytes = r.disk.n.Load()
	}
	if occ := r.svc.Metrics().BatchOccupancy; occ != nil {
		// Buckets are cumulative; the first holds the batches of one.
		c.batches, c.members, c.oneWide = occ.Count, occ.Sum, occ.Buckets[0].Count
	}
	return c
}

// runtimeLoop matches a goroutine profile frame of a runtime goroutine
// that steps machines.
var runtimeLoop = regexp.MustCompile(`repro/internal/runtime\.\(\*\w+\)\.run\+`)

// loops is how many runtime goroutines c's groups run: groups started
// together are driven once they number GOMAXPROCS, and at least two, one
// goroutine each; else each node runs its own loop.
func (c ledgerConfig) loops() int {
	groups := max(1, c.groups)
	if groups >= max(2, goruntime.GOMAXPROCS(0)) {
		return groups
	}
	return groups * c.n
}

// startedGoroutines counts the runtime goroutines once at least want of
// them have started, or at a deadline. A goroutine that has been created
// but has not yet run shows no run loop in the profile, and a group that
// gets no traffic may not have been scheduled yet.
func startedGoroutines(tb testing.TB, want int) int {
	g := runtimeGoroutines(tb)
	for deadline := time.Now().Add(5 * time.Second); g < want && time.Now().Before(deadline); g = runtimeGoroutines(tb) {
		time.Sleep(time.Millisecond)
	}
	return g
}

// runtimeGoroutines counts the goroutines stepping machines now: in the
// goroutine profile, the stacks with a runtime run loop on them.
func runtimeGoroutines(tb testing.TB) int {
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		tb.Fatal(err)
	}
	// debug=1 groups identical stacks: "<count> @ <pcs>" heads each group,
	// after a one-line header.
	_, groups, _ := bytes.Cut(buf.Bytes(), []byte("\n"))
	n := 0
	for _, group := range bytes.Split(groups, []byte("\n\n")) {
		var count int
		if _, err := fmt.Sscanf(string(group), "%d @", &count); err == nil && runtimeLoop.Match(group) {
			n += count
		}
	}
	return n
}

// submit runs ops fault-free submissions over callers goroutines, each
// of which must commit.
func (r *ledgerRig) submit(tb testing.TB, ops, callers int) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(ops) {
				res, err := r.svc.Submit(context.Background(), service.Request{})
				if err != nil {
					tb.Error(err)
					return
				}
				if res.State != service.StateCommit {
					tb.Errorf("resolved %+v", res)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func BenchmarkLedger(b *testing.B) {
	for _, c := range ledgerConfigs {
		b.Run(c.name(), func(b *testing.B) {
			r := newLedgerRig(b, c)
			defer r.close(b)
			// Warm-up: buffers, tombstone FIFOs and the span ring reach
			// their working size.
			r.submit(b, 256, c.callers)
			before := r.counts()
			b.ReportAllocs()
			b.ResetTimer()
			r.submit(b, b.N, c.callers)
			b.StopTimer()
			after := r.counts()
			members := float64(b.N)
			b.ReportMetric(float64(after.frames-before.frames)/members, "frames/op")
			b.ReportMetric(float64(after.handoffs-before.handoffs)/members, "handoffs/op")
			b.ReportMetric(float64(startedGoroutines(b, c.loops()))/float64(max(1, c.groups)), "goroutines/group")
			b.ReportMetric(float64(after.fsyncs-before.fsyncs)/members, "fsyncs/op")
			b.ReportMetric(float64(after.records-before.records)/members, "records/op")
			b.ReportMetric(float64(after.journalBytes-before.journalBytes)/members, "journalB/op")
			b.ReportMetric(float64(after.ring-before.ring)/members, "ring/op")
			if batches := after.batches - before.batches; batches > 0 {
				b.ReportMetric((after.members-before.members)/float64(batches), "width")
				b.ReportMetric(float64(after.oneWide-before.oneWide)/float64(batches), "width1/batch")
			}
		})
	}
}

// TestLedgerConfigurationsRun keeps the ledger from rotting: every
// configuration builds, commits a few submissions and counts frames.
func TestLedgerConfigurationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("spins up ten services")
	}
	for _, c := range ledgerConfigs {
		t.Run(c.name(), func(t *testing.T) {
			r := newLedgerRig(t, c)
			defer r.close(t)
			r.submit(t, c.callers, c.callers)
			got := r.counts()
			if got.frames == 0 || got.batches == 0 {
				t.Errorf("counted %+v", got)
			}
			if g, want := startedGoroutines(t, c.loops()), c.loops(); g != want {
				t.Errorf("%d runtime goroutines for %d groups of %d started together, want %d", g, max(1, c.groups), c.n, want)
			}
			if c.journal && (got.fsyncs == 0 || got.records == 0 || got.journalBytes == 0) {
				t.Errorf("journal run counted no fsync, record or byte: %+v", got)
			}
		})
	}
}
