package span

import (
	"fmt"
	"strings"
	"testing"
)

// serviceGraph builds a full service-shaped DAG for one transaction:
// pipeline stages around a two-processor protocol exchange.
func serviceGraph() *Graph {
	spans := []Span{
		{ID: 1, Txn: "t", Track: "service", Name: StageAdmit, Kind: KindStage, Start: 0, End: 3, From: -1, To: -1},
		{ID: 2, Txn: "t", Track: "service", Name: StageBatch, Kind: KindStage, Start: 3, End: 4, From: -1, To: -1},
		{ID: 3, Txn: "t", Track: "service", Name: StageDispatch, Kind: KindStage, Start: 4, End: 6, From: -1, To: -1},
		{ID: 4, Txn: "t", Track: "proc 0", Name: "round 1", Kind: KindRound, Start: 6, End: 10, From: -1, To: -1},
		{ID: 5, Txn: "t", Track: "proc 1", Name: "round 1", Kind: KindRound, Start: 6, End: 9, From: -1, To: -1},
		{ID: 6, Txn: "t", Track: "net", Name: "vote", Kind: KindLink, Start: 9, End: 14, From: 1, To: 0},
		{ID: 7, Txn: "t", Track: "proc 0", Name: "round 2", Kind: KindRound, Start: 10, End: 18, From: -1, To: -1},
		{ID: 8, Txn: "t", Track: "service", Name: StageDecided, Kind: KindStage, Start: 6, End: 20, From: -1, To: -1},
		{ID: 9, Txn: "t", Track: "service", Name: StageNotify, Kind: KindStage, Start: 20, End: 21, From: -1, To: -1},
	}
	return &Graph{Unit: "tick", Spans: spans, Edges: InferEdges(spans)}
}

// TestCriticalPathTelescopes is the sum-to-latency contract: the step
// contributions sum exactly (zero epsilon in the discrete units, one
// tick of slack allowed in the assertion) to the end-to-end latency
// End(target) - Start(first step).
func TestCriticalPathTelescopes(t *testing.T) {
	cases := []struct {
		name   string
		graph  *Graph
		target int
	}{
		{"service DAG to notify", serviceGraph(), 9},
		{"service DAG to decided", serviceGraph(), 8},
		{"protocol round only", serviceGraph(), 7},
		{"single span", &Graph{Unit: "us", Spans: []Span{
			{ID: 1, Track: "service", Name: StageAdmit, Kind: KindStage, Start: 5, End: 11},
		}, Edges: []Edge{}}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := tc.graph.CriticalPath(tc.target)
			if err != nil {
				t.Fatal(err)
			}
			var sum int64
			for _, st := range p.Steps {
				sum += st.Contrib
			}
			latency := p.End - p.Start
			if diff := sum - latency; diff > 1 || diff < -1 {
				t.Fatalf("contributions sum %d, end-to-end latency %d (diff %d)", sum, latency, diff)
			}
			if sum != latency {
				t.Fatalf("discrete units must telescope exactly: sum %d != %d", sum, latency)
			}
			if p.Total != latency {
				t.Fatalf("Total %d != End-Start %d", p.Total, latency)
			}
			var byKind int64
			for _, v := range p.ByKind {
				byKind += v
			}
			if byKind != sum {
				t.Fatalf("ByKind sums to %d, steps to %d", byKind, sum)
			}
		})
	}
}

// TestCriticalPathDescendsIntoProtocol: from the notify stage the walk
// must pass through decided into the protocol rounds and the link that
// extended them, not stay on the service track.
func TestCriticalPathDescendsIntoProtocol(t *testing.T) {
	g := serviceGraph()
	p, err := g.CriticalPathTxn("t")
	if err != nil {
		t.Fatal(err)
	}
	if p.Target != 9 {
		t.Fatalf("target = %d, want 9 (last-finishing span)", p.Target)
	}
	var ids []int
	for _, st := range p.Steps {
		ids = append(ids, st.Span.ID)
	}
	// notify(9) ← decided(8) ← round2(7) ← link(6) ← round1 proc1 (5)
	// ← dispatch(3) ← batch(2) ← admit(1)
	want := []int{1, 2, 3, 5, 6, 7, 8, 9}
	if len(ids) != len(want) {
		t.Fatalf("path ids = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("path ids = %v, want %v", ids, want)
		}
	}
	if p.ByKind[KindLink] == 0 || p.ByKind[KindRound] == 0 || p.ByKind[KindStage] == 0 {
		t.Fatalf("ByKind missing an attribution: %v", p.ByKind)
	}
}

func TestCriticalPathErrors(t *testing.T) {
	g := serviceGraph()
	if _, err := g.CriticalPath(99); err == nil {
		t.Error("unknown target accepted")
	}
	if _, err := g.CriticalPathTxn("nope"); err == nil {
		t.Error("unknown txn accepted")
	}
}

// TestCriticalPathTerminatesOnCycle: a malformed edge set with a cycle
// must not hang — the strict (End, ID) descent guarantees progress.
func TestCriticalPathTerminatesOnCycle(t *testing.T) {
	g := &Graph{Unit: "us", Spans: []Span{
		{ID: 1, Track: "a", Name: "x", Start: 0, End: 5},
		{ID: 2, Track: "a", Name: "y", Start: 0, End: 5},
	}, Edges: []Edge{{From: 1, To: 2}, {From: 2, To: 1}}}
	p, err := g.CriticalPath(2)
	if err != nil {
		t.Fatal(err)
	}
	// 1 precedes 2 ((5,1) < (5,2)); 2 cannot precede 1.
	if len(p.Steps) != 2 || p.Steps[0].Span.ID != 1 {
		t.Fatalf("steps = %+v", p.Steps)
	}
}

func TestRenderDeterministic(t *testing.T) {
	g := serviceGraph()
	p, err := g.CriticalPathTxn("t")
	if err != nil {
		t.Fatal(err)
	}
	a, b := p.Render(), p.Render()
	if a != b {
		t.Fatal("two renders differ")
	}
	for _, want := range []string{"critical path:", "txn=t", "by kind:", "stage=", "round=", "link="} {
		if !strings.Contains(a, want) {
			t.Errorf("render missing %q:\n%s", want, a)
		}
	}
}

// batchGraph is the shape the live vector path records: two member
// transactions of one agreement batch. Rounds and links carry the
// batch's key; each member has its own service stages and, per
// processor, a decided marker naming the batch. As in live runs, one
// round outlasts several exchanges (a link leaves mid-round), proc 0
// sends to itself in zero time, and proc 1's still-open round was never
// recorded, so the link it sent has no recorded cause.
func batchGraph() *Graph {
	const b = "batch:b1"
	stage := func(id int, txn, name string, start, end int64, detail string) Span {
		return Span{ID: id, Txn: txn, Track: ServiceTrack, Name: name, Kind: KindStage,
			Start: start, End: end, From: -1, To: -1, Detail: detail}
	}
	link := func(id int, start, end int64, from, to int) Span {
		return Span{ID: id, Txn: b, Track: NetTrack, Name: "txnb:x", Kind: KindLink,
			Start: start, End: end, From: from, To: to}
	}
	spans := []Span{
		stage(1, "m1", StageAdmit, 0, 2, ""),
		stage(2, "m2", StageAdmit, 1, 2, ""),
		stage(3, "m1", StageBatch, 2, 3, ""),
		stage(4, "m2", StageBatch, 2, 3, ""),
		stage(5, "m1", StageDispatch, 3, 5, "coordinator=0 batch=b1"),
		stage(6, "m2", StageDispatch, 3, 5, "coordinator=0 batch=b1"),
		link(7, 8, 8, 0, 0),    // GO to self, zero-length
		link(8, 8, 10, 0, 2),   // GO to proc 2
		link(9, 14, 16, 2, 0),  // vote back, sent mid-round
		link(10, 15, 17, 1, 0), // from proc 1, whose round never closed
		{ID: 11, Txn: b, Track: "proc 2", Name: "round 1", Kind: KindRound, Start: 11, End: 19, From: -1, To: -1},
		{ID: 12, Txn: b, Track: "proc 0", Name: "round 1", Kind: KindRound, Start: 6, End: 20, From: -1, To: -1},
		{ID: 13, Txn: "m1", Track: "proc 0", Name: "decided", Kind: KindStage, Start: 21, End: 21, From: -1, To: -1, Detail: "decision=COMMIT batch=b1"},
		{ID: 14, Txn: "m2", Track: "proc 0", Name: "decided", Kind: KindStage, Start: 21, End: 21, From: -1, To: -1, Detail: "decision=ABORT batch=b1"},
		stage(15, "m1", StageDecided, 5, 22, "state=COMMIT"),
		stage(16, "m2", StageDecided, 5, 23, "state=ABORT"),
		stage(17, "m1", StageNotify, 22, 24, ""),
		stage(18, "m2", StageNotify, 23, 23, ""), // answered within the clock's resolution
		// A slow processor decides after the clients were answered.
		{ID: 19, Txn: "m1", Track: "proc 2", Name: "decided", Kind: KindStage, Start: 30, End: 30, From: -1, To: -1, Detail: "decision=COMMIT batch=b1"},
	}
	return &Graph{Unit: "us", Spans: spans, Edges: InferEdges(spans)}
}

// TestMemberCriticalPathFollowsBatch: a member's critical path descends
// from its own notify stage through its batch's rounds and links to its
// own admission, never through a sibling's stages, and sums exactly to
// the member's end-to-end latency.
func TestMemberCriticalPathFollowsBatch(t *testing.T) {
	g := batchGraph()
	for _, tc := range []struct {
		txn        string
		start, end int64
		golden     string
	}{
		{"m1", 0, 24, `critical path: target=#17 txn=m1 total=24 us over 11 steps
  +2        stage service    admit (0..2)
  +1        stage service    batch (2..3)
  +2        stage service    dispatch (3..5) [coordinator=0 batch=b1]
  +3        round proc 0     round 1 (6..20)
  +2        link  net        txnb:x (8..10) 0->2
  +4        round proc 2     round 1 (11..19)
  +2        link  net        txnb:x (14..16) 2->0
  +4        round proc 0     round 1 (6..20)
  +1        stage proc 0     decided (21..21) [decision=COMMIT batch=b1]
  +1        stage service    decided (5..22) [state=COMMIT]
  +2        stage service    notify (22..24)
by kind: stage=9 round=11 link=4
`},
		{"m2", 1, 23, ""},
	} {
		p, err := g.CriticalPathTxn(tc.txn)
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		for _, st := range p.Steps {
			sum += st.Contrib
			if st.Contrib < 0 {
				t.Errorf("%s: negative contribution %+v", tc.txn, st)
			}
			if st.Span.Txn != tc.txn && st.Span.Txn != "batch:b1" {
				t.Errorf("%s: path crosses into %s", tc.txn, st.Span.Txn)
			}
		}
		if p.Start != tc.start || p.End != tc.end || sum != tc.end-tc.start || p.Total != sum {
			t.Errorf("%s: path %d..%d total %d sum %d, want %d..%d:\n%s",
				tc.txn, p.Start, p.End, p.Total, sum, tc.start, tc.end, p.Render())
		}
		if last := p.Steps[len(p.Steps)-1].Span; last.Name != StageNotify {
			t.Errorf("%s: path ends at %s, want its notify stage:\n%s", tc.txn, last.Name, p.Render())
		}
		if p.ByKind[KindRound] <= 0 || p.ByKind[KindLink] <= 0 {
			t.Errorf("%s: no round or link attribution: %v", tc.txn, p.ByKind)
		}
		if tc.golden != "" && p.Render() != tc.golden {
			t.Errorf("%s: render\n%s\nwant\n%s", tc.txn, p.Render(), tc.golden)
		}
	}
}

// TestFilterFollowsBatch: a per-transaction view keeps the member's own
// spans and its batch's, and nothing of its siblings.
func TestFilterFollowsBatch(t *testing.T) {
	sub := batchGraph().ByTxn("m2")
	kinds := map[Kind]int{}
	for _, s := range sub.Spans {
		if s.Txn != "m2" && s.Txn != "batch:b1" {
			t.Fatalf("view of m2 holds %+v", s)
		}
		kinds[s.Kind]++
	}
	if kinds[KindRound] != 2 || kinds[KindLink] != 4 {
		t.Fatalf("view of m2 lacks its batch's rounds and links: %v", kinds)
	}
	idx := sub.index()
	for _, e := range sub.Edges {
		if idx[e.From] == nil || idx[e.To] == nil {
			t.Fatalf("edge %+v leaves the view", e)
		}
	}
	if n := len(batchGraph().ByTxn("nobody").Spans); n != 0 {
		t.Fatalf("unknown txn matched %d spans", n)
	}
}

// TestEventRecordsStayOffTheCausalGraph: milestones laid down beside the
// batch's spans — on the same tracks, under the same keys, at the same
// instants — add no edge and change no critical path, a per-transaction
// view carries them, and a milestone is never a path's target, even as a
// transaction's last-finishing record.
func TestEventRecordsStayOffTheCausalGraph(t *testing.T) {
	plain := batchGraph()
	mark := func(id int, txn, track, name string, at int64, detail string) Span {
		return Span{ID: id, Txn: txn, Track: track, Name: name, Kind: KindEvent,
			Start: at, End: at, From: -1, To: -1, Detail: detail}
	}
	spans := append(append([]Span(nil), plain.Spans...),
		mark(20, "batch:b1", "proc 0", EventGoSent, 8, "tick=1 coins=3 fanout=3"),
		mark(21, "batch:b1", "proc 2", EventGoRecv, 10, "tick=1 from=0"),
		mark(22, "batch:b1", "proc 2", EventVoteCast, 14, "tick=2 votes=2"),
		mark(23, "batch:b1", "proc 0", EventStage, 16, "tick=3 stage=1"),
		mark(24, "m1", "proc 0", EventRetired, 40, "tick=70"),
		mark(25, "", "proc 1", EventCrash, 18, ""),
	)
	g := &Graph{Unit: "us", Spans: spans, Edges: InferEdges(spans)}
	if fmt.Sprint(g.Edges) != fmt.Sprint(plain.Edges) {
		t.Fatalf("milestones changed the edges:\n%v\nwant\n%v", g.Edges, plain.Edges)
	}
	for _, txn := range []string{"m1", "m2"} {
		want, err := plain.CriticalPathTxn(txn)
		if err != nil {
			t.Fatal(err)
		}
		got, err := g.CriticalPathTxn(txn)
		if err != nil {
			t.Fatal(err)
		}
		if got.Render() != want.Render() {
			t.Errorf("%s: milestones changed the path:\n%s\nwant\n%s", txn, got.Render(), want.Render())
		}
	}
	events := 0
	for _, s := range g.ByTxn("m1").Spans {
		if s.Kind == KindEvent {
			events++
		}
	}
	if events != 5 {
		t.Errorf("m1's view holds %d milestones, want its own retire and its batch's four", events)
	}

	// Without service spans the target is the last-finishing record — but
	// never a milestone, however late.
	lone := []Span{
		{ID: 1, Txn: "t", Track: "proc 0", Name: "round 1", Kind: KindRound, Start: 0, End: 5, From: -1, To: -1},
		mark(2, "t", "proc 0", EventRetired, 9, "tick=9"),
	}
	p, err := (&Graph{Unit: "us", Spans: lone, Edges: InferEdges(lone)}).CriticalPathTxn("t")
	if err != nil {
		t.Fatal(err)
	}
	if p.Target != 1 || len(p.Steps) != 1 {
		t.Fatalf("lone transaction's path targets #%d over %d steps, want the round alone:\n%s", p.Target, len(p.Steps), p.Render())
	}
}

// TestCriticalPathRules pins each rule of the backward walk with the
// smallest graph that needs it (edges are given, not inferred, so a case
// exercises the walk alone). Every case fails if its rule is removed.
func TestCriticalPathRules(t *testing.T) {
	round := func(id, proc int, start, end int64) Span {
		return Span{ID: id, Track: ProcTrack(proc), Name: fmt.Sprintf("r%d", id), Kind: KindRound,
			Start: start, End: end, From: -1, To: -1}
	}
	link := func(id int, start, end int64, from, to int) Span {
		return Span{ID: id, Track: NetTrack, Name: fmt.Sprintf("l%d", id), Kind: KindLink,
			Start: start, End: end, From: from, To: to}
	}
	dispatch := Span{ID: 1, Track: ServiceTrack, Name: StageDispatch, Kind: KindStage, Start: 0, End: 5, From: -1, To: -1}
	for _, tc := range []struct {
		name   string
		spans  []Span
		edges  []Edge
		target int
		want   string // "name+contrib ..." root to target
	}{
		{
			// The sender's round is still open when its message is
			// delivered: it hands off at the send instant, not its end.
			name:   "a link leaves its sender mid-span",
			spans:  []Span{round(1, 0, 0, 10), link(2, 4, 6, 0, 1), round(3, 1, 5, 8)},
			edges:  []Edge{{1, 2}, {2, 3}},
			target: 3,
			want:   "r1+4 l2+2 r3+2",
		},
		{
			// One long round sends, then waits for the answer: the chain
			// passes through it twice, the second time at the earlier
			// handoff.
			name:   "a round is revisited at an earlier handoff",
			spans:  []Span{round(1, 0, 0, 20), link(2, 2, 4, 0, 1), round(3, 1, 3, 9), link(4, 6, 8, 1, 0)},
			edges:  []Edge{{1, 2}, {2, 3}, {3, 4}, {4, 1}},
			target: 1,
			want:   "r1+2 l2+2 r3+2 l4+2 r1+12",
		},
		{
			// Reached at its send instant (2), the round must not follow
			// a message delivered to it later (12).
			name:   "a predecessor that handed off too late is not followed",
			spans:  []Span{round(1, 0, 0, 20), link(2, 2, 4, 0, 1), round(3, 1, 3, 9), round(4, 2, 1, 11), link(5, 10, 12, 2, 0)},
			edges:  []Edge{{1, 2}, {2, 3}, {4, 5}, {5, 1}},
			target: 3,
			want:   "r1+2 l2+2 r3+5",
		},
		{
			// The latest arrival came from a processor whose round was
			// never recorded; the path must not start at that message.
			name:   "a link without a recorded sender is backed out of",
			spans:  []Span{dispatch, round(2, 0, 5, 20), link(3, 15, 17, 1, 0)},
			edges:  []Edge{{1, 2}, {3, 2}},
			target: 2,
			want:   "dispatch+5 r2+15",
		},
		{
			// The round is reached at instant 8, where it also sent
			// itself a zero-length message: that link leads only back to
			// the same hop.
			name:   "a zero-length send to self is backed out of",
			spans:  []Span{dispatch, round(2, 0, 5, 20), link(3, 8, 8, 0, 0), link(4, 8, 10, 0, 2), round(5, 2, 9, 14)},
			edges:  []Edge{{1, 2}, {2, 3}, {3, 2}, {2, 4}, {4, 5}},
			target: 5,
			want:   "dispatch+5 r2+3 l4+2 r5+4",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := &Graph{Unit: "us", Spans: tc.spans, Edges: tc.edges}
			p, err := g.CriticalPath(tc.target)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			var sum int64
			for _, st := range p.Steps {
				got = append(got, fmt.Sprintf("%s+%d", st.Span.Name, st.Contrib))
				sum += st.Contrib
			}
			if s := strings.Join(got, " "); s != tc.want {
				t.Errorf("path %q, want %q", s, tc.want)
			}
			if sum != p.Total || p.Total != p.End-p.Start {
				t.Errorf("contributions sum to %d, total %d, span %d..%d", sum, p.Total, p.Start, p.End)
			}
		})
	}
}
