package span

import (
	"strconv"
	"sync"
	"testing"
)

// BenchmarkCollectorAdd is the one ring's record cost: one goroutine
// recording, and four recording at once into one collector. It mirrors
// what bench/'s drivers time for the tracer (obs.tracer_record_ns and
// obs.tracer_record_ns_contended); ns/op is per record either way.
func BenchmarkCollectorAdd(b *testing.B) {
	sp := Span{Txn: "t", Track: ServiceTrack, Name: StageDecided, Kind: KindStage, Start: 1, End: 2, From: -1, To: -1}
	for _, goroutines := range []int{1, 4} {
		b.Run("goroutines="+strconv.Itoa(goroutines), func(b *testing.B) {
			c := NewCollector(DefaultCollectorCapacity)
			var wg sync.WaitGroup
			b.ResetTimer()
			for g := 0; g < goroutines; g++ {
				n := b.N / goroutines
				if g == 0 {
					n += b.N % goroutines
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < n; i++ {
						c.Add(sp)
					}
				}()
			}
			wg.Wait()
		})
	}
}

// BenchmarkMilestoneRecord is a manager milestone's record cost: figures
// formatted at snapshot (MarkTick) beside the Detail string the manager
// used to build as it recorded.
func BenchmarkMilestoneRecord(b *testing.B) {
	c := NewCollector(DefaultCollectorCapacity)
	b.Run("figures", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.MarkTick("batch:s0-batch-1", "proc 0", EventStage, i, FigStage, 2, 0)
		}
	})
	b.Run("eager", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Mark("batch:s0-batch-1", "proc 0", EventStage, "tick="+strconv.Itoa(i)+" "+"stage="+strconv.Itoa(2))
		}
	})
}
