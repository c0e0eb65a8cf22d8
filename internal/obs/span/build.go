package span

import (
	"fmt"
	"strconv"

	"repro/internal/rounds"
	"repro/internal/trace"
	"repro/internal/types"
)

// FromTrace builds the span graph of one recorded simulator run. Time is
// the global event index — the simulator's own total order — so the
// graph is a pure function of the trace: the same seed yields the same
// bytes at any GOMAXPROCS.
//
// Each processor's track carries its asynchronous rounds per the paper's
// §2.2 measure (computed retrospectively by internal/rounds), plus a
// zero-length crash marker for explicit failure steps; every delivered
// message becomes a link span from its send event to its receive event.
func FromTrace(tr *trace.Trace) (*Graph, error) {
	a, err := rounds.Analyze(tr, 0)
	if err != nil {
		return nil, err
	}
	g := &Graph{Unit: "event"}
	id := 0
	add := func(s Span) {
		id++
		s.ID = id
		g.Spans = append(g.Spans, s)
	}

	for p := 0; p < tr.N; p++ {
		proc := types.ProcID(p)
		maxClock := len(tr.ProcEvents(proc))
		prevEnd := 0
		for r := 1; r <= len(a.EndClock[p]); r++ {
			startClock := prevEnd
			endClock := a.EndClock[p][r-1]
			prevEnd = endClock
			if startClock >= maxClock {
				break
			}
			last := endClock
			if last > maxClock {
				last = maxClock
			}
			add(Span{
				Track: ProcTrack(p),
				Name:  "round " + strconv.Itoa(r),
				Kind:  KindRound,
				Start: int64(tr.EventOfClock(proc, startClock+1)),
				End:   int64(tr.EventOfClock(proc, last)),
				From:  -1, To: -1,
				Detail: fmt.Sprintf("clock %d..%d", startClock+1, last),
			})
		}
	}
	for i := range tr.Events {
		e := &tr.Events[i]
		if e.Crash {
			add(Span{
				Track: ProcTrack(int(e.Proc)), Name: "crash", Kind: KindStage,
				Start: int64(e.Index), End: int64(e.Index), From: -1, To: -1,
			})
		}
	}
	for seq := range tr.Msgs {
		m := &tr.Msgs[seq]
		if !m.Delivered() {
			continue
		}
		add(Span{
			Track: NetTrack, Name: m.Kind, Kind: KindLink,
			Start: int64(m.SentEvent), End: int64(m.RecvEvent),
			From: int(m.From), To: int(m.To),
			Detail: "seq=" + strconv.Itoa(seq),
		})
	}
	g.Edges = InferEdges(g.Spans)
	if g.Spans == nil {
		g.Spans = []Span{}
	}
	return g, nil
}
