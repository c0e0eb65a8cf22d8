package wal_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/types"
	"repro/internal/wal"
)

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// BenchmarkWALAppend measures the segmented journal's sequential durable
// append: one client, so every record is its own group and pays a full
// flush barrier — the fsyncs/txn=1 baseline that group commit amortizes.
func BenchmarkWALAppend(b *testing.B) {
	fs := wal.NewMemFS()
	dl, err := wal.OpenDecisionLog(wal.SegmentedOptions{FS: fs, SegmentBytes: 1 << 22})
	if err != nil {
		b.Fatal(err)
	}
	defer dl.Close() //nolint:errcheck
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dl.AppendSync(fmt.Sprintf("bench-%08d", i), types.DecisionCommit); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := dl.Stats()
	b.ReportMetric(float64(st.Fsyncs)/float64(max(b.N, 1)), "fsyncs/txn")
}

// BenchmarkWALGroupCommit256 measures the group-commit path at the
// 256-client load point: each benchmark iteration is one wave of 256
// concurrent durable appends, which the writer coalesces into a handful
// of shared fsyncs. fsyncs/txn is the headline number — sequential
// appends pay 1.0; this must sit far below it.
func BenchmarkWALGroupCommit256(b *testing.B) {
	const clients = 256
	fs := wal.NewMemFS()
	dl, err := wal.OpenDecisionLog(wal.SegmentedOptions{
		FS:           fs,
		SegmentBytes: 1 << 22,
		GroupCommit:  200 * time.Microsecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer dl.Close() //nolint:errcheck
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				id := fmt.Sprintf("bench-%06d-%03d", i, c)
				if err := dl.AppendSync(id, types.DecisionCommit); err != nil {
					b.Error(err)
				}
			}(c)
		}
		wg.Wait()
	}
	b.StopTimer()
	st := dl.Stats()
	b.ReportMetric(float64(st.Fsyncs)/float64(max(int(st.Appends), 1)), "fsyncs/txn")
}

// BenchmarkWALSegmentedReplay measures recovery of a snapshotted journal:
// restore the newest snapshot and replay the bounded suffix.
func BenchmarkWALSegmentedReplay(b *testing.B) {
	fs := wal.NewMemFS()
	opts := wal.SegmentedOptions{FS: fs, SegmentBytes: 1 << 16, SnapshotEvery: 1024}
	dl, err := wal.OpenDecisionLog(opts)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10_000; i++ {
		if err := dl.AppendSync(fmt.Sprintf("bench-%08d", i), types.DecisionCommit); err != nil {
			b.Fatal(err)
		}
	}
	if err := dl.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dl, err := wal.OpenDecisionLog(opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(dl.Recovered()) != 10_000 {
			b.Fatalf("recovered %d", len(dl.Recovered()))
		}
		b.StopTimer()
		if err := dl.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
