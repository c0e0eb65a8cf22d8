package service_test

import (
	"context"
	"fmt"
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
// the node goroutines' protocol work is counted), wire frames, journal
// fsyncs, records and bytes, beside the mean batch width that amortizes
// them. Serial callers pay for width-1 batches; 16 parallel callers let
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
}

func (c ledgerConfig) name() string {
	j := "nojournal"
	if c.journal {
		j = "memfs"
	}
	if c.width > 0 {
		return fmt.Sprintf("n%d_%s_w%d", c.n, j, c.width)
	}
	return fmt.Sprintf("n%d_%s_c%d", c.n, j, c.callers)
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
	return cs
}()

// ledgerCounts are the cumulative counters a ledger run differences.
type ledgerCounts struct {
	frames, fsyncs, records, batches uint64
	journalBytes                     int64
	members                          float64
}

// ledgerRig is one service under ledger measurement.
type ledgerRig struct {
	svc     *service.Service
	journal *wal.DecisionLog
	disk    *byteFS
	frames  *obs.Counter
	fsyncs  *obs.Counter
	records *obs.Counter
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
	reg := obs.NewRegistry()
	r := &ledgerRig{}
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
	s, err := service.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	r.svc = s
	r.frames = reg.CounterVec("transport_messages_sent_total", "", "transport").With("channel")
	r.fsyncs = reg.CounterVec("wal_fsyncs_total", "", "log").With("ledger")
	r.records = reg.CounterVec("wal_appends_total", "", "log").With("ledger")
	return r
}

func (r *ledgerRig) close(tb testing.TB) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.svc.Close(ctx); err != nil {
		tb.Errorf("close: %v", err)
	}
	if r.journal != nil {
		if err := r.journal.Close(); err != nil {
			tb.Errorf("journal close: %v", err)
		}
	}
}

func (r *ledgerRig) counts() ledgerCounts {
	c := ledgerCounts{frames: r.frames.Value(), fsyncs: r.fsyncs.Value(), records: r.records.Value()}
	if r.disk != nil {
		c.journalBytes = r.disk.n.Load()
	}
	if occ := r.svc.Metrics().BatchOccupancy; occ != nil {
		c.batches, c.members = occ.Count, occ.Sum
	}
	return c
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
			b.ReportMetric(float64(after.fsyncs-before.fsyncs)/members, "fsyncs/op")
			b.ReportMetric(float64(after.records-before.records)/members, "records/op")
			b.ReportMetric(float64(after.journalBytes-before.journalBytes)/members, "journalB/op")
			if batches := after.batches - before.batches; batches > 0 {
				b.ReportMetric((after.members-before.members)/float64(batches), "width")
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
			if c.journal && (got.fsyncs == 0 || got.records == 0 || got.journalBytes == 0) {
				t.Errorf("journal run counted no fsync, record or byte: %+v", got)
			}
		})
	}
}
