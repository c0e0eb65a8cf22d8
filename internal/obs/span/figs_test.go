package span

import (
	"fmt"
	"strconv"
	"testing"

	"repro/internal/obs"
	"repro/internal/types"
)

// TestFiguresFormatAsBuiltEagerly: each record kind that carries figures
// formats, on snapshot, the exact span the manager used to build when it
// recorded it — Name and Detail byte for byte, every other field too. The
// want column spells out that eager code.
func TestFiguresFormatAsBuiltEagerly(t *testing.T) {
	const key, track, member, batch = "batch:s0-batch-7", "proc 2", "t-9", "s0-batch-7"
	tick := func(tick int, detail string) string {
		d := "tick=" + strconv.Itoa(tick)
		if detail != "" {
			d += " " + detail
		}
		return d
	}
	event := func(txn, name, detail string) Span {
		return Span{Txn: txn, Track: track, Name: name, Kind: KindEvent, Start: 40, End: 40, From: -1, To: -1, Detail: detail}
	}
	cases := []struct {
		name   string
		record func(c *Collector)
		want   Span
	}{
		{"retired", func(c *Collector) { c.MarkTick(member, track, EventRetired, 130, FigTick, 0, 0) },
			event(member, EventRetired, "tick="+strconv.Itoa(130))},
		{"abandoned", func(c *Collector) { c.MarkTick(member, track, EventAbandoned, 2001, FigTick, 0, 0) },
			event(member, EventAbandoned, "tick="+strconv.Itoa(2001))},
		{"go_recv", func(c *Collector) { c.MarkTick(key, track, EventGoRecv, 3, FigFrom, 0, 0) },
			event(key, EventGoRecv, tick(3, "from="+strconv.Itoa(0)))},
		{"go_sent", func(c *Collector) { c.MarkTick(key, track, EventGoSent, 0, FigCoins, 10, 5) },
			event(key, EventGoSent, tick(0, fmt.Sprintf("coins=%d fanout=%d", 10, 5)))},
		{"vote_cast", func(c *Collector) { c.MarkTick(key, track, EventVoteCast, 12, FigVotes, 64, 0) },
			event(key, EventVoteCast, tick(12, "votes="+strconv.Itoa(64)))},
		{"stage", func(c *Collector) { c.MarkTick(key, track, EventStage, 1234567, FigStage, 3, 0) },
			event(key, EventStage, tick(1234567, "stage="+strconv.Itoa(3)))},
		{"round", func(c *Collector) { c.AddRound(key, track, 11, 96, 104, 17, 40) },
			Span{Txn: key, Track: track, Name: "round " + strconv.Itoa(11), Kind: KindRound,
				Start: 17, End: 40, From: -1, To: -1, Detail: "ticks 96..104"}},
		{"decided commit", func(c *Collector) { c.MarkDecided(member, track, types.DecisionCommit, batch) },
			Span{Txn: member, Track: track, Name: "decided", Kind: KindStage, Start: 40, End: 40,
				From: -1, To: -1, Detail: "decision=" + types.DecisionCommit.String() + " " + obs.BatchDetail(batch)}},
		{"decided abort", func(c *Collector) { c.MarkDecided(member, track, types.DecisionAbort, batch) },
			Span{Txn: member, Track: track, Name: "decided", Kind: KindStage, Start: 40, End: 40,
				From: -1, To: -1, Detail: "decision=" + types.DecisionAbort.String() + " " + obs.BatchDetail(batch)}},
		{"plain mark", func(c *Collector) { c.Mark("", track, EventCrash, "") },
			event("", EventCrash, "")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCollectorClock(4, func() int64 { return 40 })
			tc.record(c)
			g := c.Graph()
			if len(g.Spans) != 1 {
				t.Fatalf("%d spans", len(g.Spans))
			}
			want := tc.want
			want.ID = 1
			if got := g.Spans[0]; got != want {
				t.Errorf("got  %+v\nwant %+v", got, want)
			}
		})
	}
}
