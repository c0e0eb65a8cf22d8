package span

import (
	"sort"
	"strings"

	"repro/internal/obs"
)

// InferEdges reconstructs the happens-before edges of a span set. The
// rules are purely structural, so one inference serves both producers
// (live collector, simulator trace). Milestone (KindEvent) records get no
// edges: they annotate a track without lengthening any chain.
//
//  1. Program order: consecutive non-link spans on one (txn, track),
//     ordered by (Start, End, ID), are chained.
//  2. Message causality: a link span's egress edge comes from the last
//     span on the sender's processor track (same txn) that had started
//     by the send; its ingress edge goes to the span on the receiver's
//     track that covers the delivery instant, or the first span after
//     it (the message woke the receiver's next round).
//  3. Service handoff: the dispatch stage precedes each processor's
//     first protocol span of the transaction, and each processor's last
//     protocol span precedes the decided stage — so a critical-path
//     walk from the client-visible decision descends into the protocol
//     DAG instead of skipping it.
//
// A transaction's protocol spans are its own plus those of the agreement
// batch its spans name (obs.BatchDetail): rounds and links are recorded
// once per batch, under the batch's key. Rule 1 therefore also chains
// each of a member's processor-track spans (its decided marker) after
// the batch span that precedes it on that track, and rule 3 hands off
// into and out of the batch's tracks.
//
// Every rule sorts its inputs, so the edge set is a deterministic
// function of the span set. Returned edges are deduplicated and sorted
// by (From, To).
func InferEdges(spans []Span) []Edge {
	type groupKey struct{ txn, track string }
	groups := make(map[groupKey][]*Span)
	batchOf := make(map[string]string) // member txn -> its batch's key
	var links []*Span
	for i := range spans {
		s := &spans[i]
		switch s.Kind {
		case KindEvent:
			continue
		case KindLink:
			links = append(links, s)
			continue
		}
		k := groupKey{s.Txn, s.Track}
		groups[k] = append(groups[k], s)
		if s.Txn != "" && batchOf[s.Txn] == "" {
			if b := obs.BatchKeyOf(s.Detail); b != "" {
				batchOf[s.Txn] = b
			}
		}
	}
	// before is the program order within a track.
	before := func(a, b *Span) bool {
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.End != b.End {
			return a.End < b.End
		}
		return a.ID < b.ID
	}
	for _, g := range groups {
		sort.Slice(g, func(i, j int) bool { return before(g[i], g[j]) })
	}
	// procTracks lists, per transaction or batch key, the processor
	// tracks it has spans on (in no order: the edge set is sorted below).
	procTracks := make(map[string][]string)
	for k := range groups {
		if strings.HasPrefix(k.track, "proc ") {
			procTracks[k.txn] = append(procTracks[k.txn], k.track)
		}
	}
	sort.Slice(links, func(i, j int) bool { return links[i].ID < links[j].ID })

	seen := make(map[Edge]bool)
	var edges []Edge
	add := func(from, to int) {
		if from == to {
			return
		}
		e := Edge{From: from, To: to}
		if !seen[e] {
			seen[e] = true
			edges = append(edges, e)
		}
	}

	// Rule 1: program order within each (txn, track), and of a member's
	// processor-track spans after its batch's on the same track.
	for k, g := range groups {
		for i := 1; i < len(g); i++ {
			add(g[i-1].ID, g[i].ID)
		}
		b := batchOf[k.txn]
		if b == "" {
			continue
		}
		bg := groups[groupKey{b, k.track}]
		for _, s := range g {
			n := sort.Search(len(bg), func(i int) bool { return !before(bg[i], s) })
			if n > 0 {
				add(bg[n-1].ID, s.ID)
			}
		}
	}

	// Rule 2: message egress and ingress.
	for _, l := range links {
		if eg := groups[groupKey{l.Txn, ProcTrack(l.From)}]; len(eg) > 0 {
			// Last sender-track span started by the send instant.
			var pred *Span
			for _, s := range eg {
				if s.Start > l.Start {
					break
				}
				pred = s
			}
			if pred != nil {
				add(pred.ID, l.ID)
			}
		}
		if ing := groups[groupKey{l.Txn, ProcTrack(l.To)}]; len(ing) > 0 {
			// Receiver-track span covering the delivery, else the first
			// span starting after it.
			var succ *Span
			for _, s := range ing {
				if s.Start <= l.End {
					if s.End >= l.End {
						succ = s
					}
					continue
				}
				if succ == nil {
					succ = s
				}
				break
			}
			if succ != nil {
				add(l.ID, succ.ID)
			}
		}
	}

	// Rule 3: service handoff per transaction.
	for k, g := range groups {
		if k.track != ServiceTrack || k.txn == "" {
			continue
		}
		var dispatch, decided *Span
		for _, s := range g {
			switch s.Name {
			case StageDispatch:
				if dispatch == nil {
					dispatch = s
				}
			case StageDecided:
				if decided == nil {
					decided = s
				}
			}
		}
		if dispatch == nil && decided == nil {
			continue
		}
		// The transaction's protocol spans on a track are its batch's and
		// then its own (rule 1 put its own after the batch's). A track both
		// are on is visited twice; add drops the repeated edges.
		batch := batchOf[k.txn]
		tracks := procTracks[k.txn]
		if batch != "" {
			tracks = append(append([]string(nil), tracks...), procTracks[batch]...)
		}
		for _, pt := range tracks {
			own := groups[groupKey{k.txn, pt}]
			first, last := own, own
			if bg := groups[groupKey{batch, pt}]; batch != "" && len(bg) > 0 {
				first = bg
				if len(last) == 0 {
					last = bg
				}
			}
			if dispatch != nil {
				add(dispatch.ID, first[0].ID)
			}
			if decided != nil {
				add(last[len(last)-1].ID, decided.ID)
			}
		}
	}

	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	if edges == nil {
		edges = []Edge{}
	}
	return edges
}
