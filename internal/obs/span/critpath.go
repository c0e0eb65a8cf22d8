package span

import (
	"fmt"
	"sort"
	"strings"
)

// Step is one span on a critical path with its latency contribution: the
// time by which this step advanced the chain's completion over its
// predecessor (the first step contributes from its own start).
// Contributions telescope, so they sum exactly to Path.Total. A step
// that handed off before it finished — a round still running when the
// message that mattered left it — contributes only up to the handoff.
type Step struct {
	Span    Span  `json:"span"`
	Contrib int64 `json:"contrib"`
}

// Path is the critical path of one target span: the causal chain whose
// last-arriving step determined when the target completed.
type Path struct {
	Unit   string `json:"unit"`
	Txn    string `json:"txn,omitempty"`
	Target int    `json:"target"`
	// Start is the first step's start, End the target's end; Total is
	// their difference — the end-to-end latency the path explains.
	Start int64  `json:"start"`
	End   int64  `json:"end"`
	Total int64  `json:"total"`
	Steps []Step `json:"steps"`
	// ByKind attributes Total across span kinds (stage/round/link).
	ByKind map[Kind]int64 `json:"by_kind"`
}

// CriticalPath computes the critical path ending at the span with the
// given id: walk the happens-before edges backward, at each span
// following the predecessor that handed off to it last (ties to the
// lower id). That predecessor is the one the span actually waited for,
// so the walk recovers the chain that set the completion time. Four
// rules, each pinned by a case of TestCriticalPathRules:
//
//   - A predecessor hands off when it ends — except to a link, which
//     leaves its sender's span at the send instant. (A live round
//     outlasts the messages it sends.)
//   - Only predecessors that handed off by the time the chain needed
//     them are followed, none twice at the same instant; so the chain
//     may pass through one long round several times, each time at an
//     earlier handoff, and still terminates on any edge set.
//   - The chain ends at a span with nothing left to follow. A link
//     cannot end it: a message was sent by something. A link whose
//     sender was never recorded, or leads only back into the chain (a
//     zero-length send to self), is backed out of and the next-latest
//     predecessor followed.
func (g *Graph) CriticalPath(targetID int) (*Path, error) {
	idx := g.index()
	target := idx[targetID]
	if target == nil {
		return nil, fmt.Errorf("span: no span with id %d", targetID)
	}
	preds := make(map[int][]int, len(g.Edges))
	for _, e := range g.Edges {
		preds[e.To] = append(preds[e.To], e.From)
	}

	// A hop is one chain element: the span and when it handed off to its
	// successor (the target hands off at its end).
	type hop struct {
		s  *Span
		at int64
	}
	chain := []hop{{target, target.End}} // target-to-root
	seen := map[hop]bool{chain[0]: true}

	// walk extends chain backward from its last hop and reports whether
	// it reached a root.
	var walk func() bool
	walk = func() bool {
		cur := chain[len(chain)-1]
		var cands []hop
		for _, pid := range preds[cur.s.ID] {
			p := idx[pid]
			if p == nil {
				continue
			}
			h := hop{p, p.End}
			if cur.s.Kind == KindLink && h.at > cur.s.Start {
				h.at = cur.s.Start
			}
			if h.at <= cur.at && !seen[h] {
				cands = append(cands, h)
			}
		}
		if len(cands) == 0 {
			return cur.s.Kind != KindLink
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].at != cands[j].at {
				return cands[i].at > cands[j].at
			}
			return cands[i].s.ID < cands[j].s.ID
		})
		for _, c := range cands {
			seen[c] = true
			chain = append(chain, c)
			if walk() {
				return true
			}
			chain = chain[:len(chain)-1]
		}
		return false
	}
	walk() // on failure the chain is back to the target alone

	root := chain[len(chain)-1].s
	p := &Path{
		Unit:   g.Unit,
		Txn:    target.Txn,
		Target: target.ID,
		Start:  root.Start,
		End:    target.End,
		ByKind: make(map[Kind]int64),
	}
	p.Total = p.End - p.Start
	prev := root.Start
	for i := len(chain) - 1; i >= 0; i-- {
		h := chain[i]
		p.Steps = append(p.Steps, Step{Span: *h.s, Contrib: h.at - prev})
		p.ByKind[h.s.Kind] += h.at - prev
		prev = h.at
	}
	return p, nil
}

// CriticalPathTxn computes the critical path of one transaction within
// its own subgraph (ByTxn). The target is the last-finishing of the
// transaction's service-track spans (ties to the one recorded last: a
// transaction's stages are recorded in causal order) — the notify stage
// that delivered the client's answer, even one too short to measure, so
// Total is the client's latency whatever the other processors did
// afterwards — or, for a transaction without service spans, its
// last-finishing span (ties to the lowest id). A milestone (KindEvent)
// is never the target. Restricting the walk to the subgraph keeps it off
// the stage spans of the other members of its batch, so the path starts
// at this transaction's own admission.
func (g *Graph) CriticalPathTxn(txn string) (*Path, error) {
	sub := g.ByTxn(txn)
	// better: a service-track span beats any other, then the later end,
	// then the later-recorded stage or the lower id.
	better := func(s, t *Span) bool {
		if so, to := s.Track == ServiceTrack, t.Track == ServiceTrack; so != to {
			return so
		}
		if s.End != t.End {
			return s.End > t.End
		}
		if s.Track == ServiceTrack {
			return s.ID > t.ID
		}
		return s.ID < t.ID
	}
	var target *Span
	for i := range sub.Spans {
		if s := &sub.Spans[i]; s.Txn == txn && s.Kind != KindEvent && (target == nil || better(s, target)) {
			target = s
		}
	}
	if target == nil {
		return nil, fmt.Errorf("span: no spans for transaction %q", txn)
	}
	return sub.CriticalPath(target.ID)
}

// renderKinds is the fixed display order of kind attributions.
var renderKinds = []Kind{KindStage, KindRound, KindLink}

// Render formats the path as deterministic, alignment-stable text.
func (p *Path) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "critical path: target=#%d", p.Target)
	if p.Txn != "" {
		fmt.Fprintf(&b, " txn=%s", p.Txn)
	}
	fmt.Fprintf(&b, " total=%d %s over %d steps\n", p.Total, p.Unit, len(p.Steps))
	for _, st := range p.Steps {
		s := st.Span
		fmt.Fprintf(&b, "  +%-8d %-5s %-10s %s (%d..%d)", st.Contrib, s.Kind, s.Track, s.Name, s.Start, s.End)
		if s.Kind == KindLink {
			fmt.Fprintf(&b, " %d->%d", s.From, s.To)
		}
		if s.Detail != "" {
			fmt.Fprintf(&b, " [%s]", s.Detail)
		}
		b.WriteByte('\n')
	}
	b.WriteString("by kind:")
	var rest []string
	for k := range p.ByKind {
		if k != KindStage && k != KindRound && k != KindLink {
			rest = append(rest, string(k))
		}
	}
	sort.Strings(rest)
	for _, k := range renderKinds {
		if v, ok := p.ByKind[k]; ok {
			fmt.Fprintf(&b, " %s=%d", k, v)
		}
	}
	for _, k := range rest {
		fmt.Fprintf(&b, " %s=%d", k, p.ByKind[Kind(k)])
	}
	b.WriteByte('\n')
	return b.String()
}
