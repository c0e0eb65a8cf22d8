package service_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/internal/obs/span"
	"repro/internal/service"
)

// pickIDs returns the first id prefix-<i> that ring traces and the first
// it does not.
func pickIDs(t *testing.T, ring *span.Collector, prefix string) (traced, untraced string) {
	t.Helper()
	for i := 0; i < 64*span.SampleEvery && (traced == "" || untraced == ""); i++ {
		id := fmt.Sprintf("%s-%d", prefix, i)
		switch {
		case ring.Traced(id) && traced == "":
			traced = id
		case !ring.Traced(id) && untraced == "":
			untraced = id
		}
	}
	if traced == "" || untraced == "" {
		t.Fatalf("no traced (%q) or no untraced (%q) %s id", traced, untraced, prefix)
	}
	return traced, untraced
}

func submitCommit(t *testing.T, s *service.Service, id string) {
	t.Helper()
	res, err := s.Submit(context.Background(), service.Request{ID: id})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != service.StateCommit {
		t.Fatalf("%s resolved %+v", id, res)
	}
}

// checkTraced asserts that id's records in g are whole: its five service
// stages, and on every node's processor track a round, a decided marker
// and a link sent or received; and that its critical path sums exactly to
// its end-to-end latency.
func checkTraced(t *testing.T, g *span.Graph, id string, n int) {
	t.Helper()
	stages := map[string]bool{}
	rounds, decided, links := map[int]bool{}, map[int]bool{}, map[int]bool{}
	for _, sp := range g.ByTxn(id).Spans {
		switch {
		case sp.Track == span.ServiceTrack:
			stages[sp.Name] = true
		case sp.Kind == span.KindLink:
			links[sp.From], links[sp.To] = true, true
		}
		for p := 0; p < n; p++ {
			if sp.Track != span.ProcTrack(p) {
				continue
			}
			if sp.Kind == span.KindRound {
				rounds[p] = true
			}
			if sp.Name == span.StageDecided && sp.Txn == id {
				decided[p] = true
			}
		}
	}
	for _, st := range []string{span.StageAdmit, span.StageBatch, span.StageDispatch, span.StageDecided, span.StageNotify} {
		if !stages[st] {
			t.Errorf("%s: no %s stage", id, st)
		}
	}
	for p := 0; p < n; p++ {
		if !rounds[p] || !decided[p] || !links[p] {
			t.Errorf("%s on node %d: round %v, decided %v, link %v", id, p, rounds[p], decided[p], links[p])
		}
	}
	path, err := g.CriticalPathTxn(id)
	if err != nil {
		t.Fatal(err)
	}
	first, last := path.Steps[0].Span, path.Steps[len(path.Steps)-1].Span
	var sum int64
	for _, st := range path.Steps {
		sum += st.Contrib
	}
	if e2e := last.End - first.Start; first.Name != span.StageAdmit || last.Name != span.StageNotify || sum != e2e || path.Total != e2e {
		t.Errorf("%s: path %s..%s sums to %d, total %d, end-to-end %d:\n%s",
			id, first.Name, last.Name, sum, path.Total, e2e, path.Render())
	}
}

// TestSampledRingTracesOneIDContentOblivious: a service given no
// collector records a traced id's stages, rounds, links and decided
// markers on every node, enough for a critical path that sums exactly to
// its latency, and nothing at all for an id it does not trace.
func TestSampledRingTracesOneIDContentOblivious(t *testing.T) {
	s := newService(t, service.Config{N: 3, Seed: 23})
	traced, untraced := pickIDs(t, s.Spans(), "smp")
	// Serial submissions: each rides a batch of its own.
	submitCommit(t, s, untraced)
	submitCommit(t, s, traced)
	g := reportedGraph(t, s, traced, 1)
	checkTraced(t, g, traced, s.N())
	if got := len(g.ByTxn(untraced).Spans); got != 0 {
		t.Errorf("%s is not traced but has %d records", untraced, got)
	}
	if all, mine := len(g.Spans), len(g.ByTxn(traced).Spans); all != mine {
		t.Errorf("ring holds %d records, %d of them %s's: the rest belong to an untraced id", all, mine, traced)
	}
}

// TestSuppliedRingTracesEveryIDContentOblivious: a collector the caller
// supplies records every transaction, the ids a sampled ring skips too.
func TestSuppliedRingTracesEveryIDContentOblivious(t *testing.T) {
	s := newService(t, service.Config{N: 3, Seed: 24, Spans: span.NewCollector(0)})
	traced, untraced := pickIDs(t, span.NewSampledCollector(1), "all")
	submitCommit(t, s, untraced)
	submitCommit(t, s, traced)
	g := reportedGraph(t, s, "all-", 2)
	checkTraced(t, g, untraced, s.N())
	checkTraced(t, g, traced, s.N())
}

// TestSpansOfAnUntracedIDAre404: GET /debug/spans?txn= answers 404 naming
// the sampling rule for an id the ring does not trace, and the id's graph
// for one it does.
func TestSpansOfAnUntracedIDAre404(t *testing.T) {
	s, ts := newHTTPService(t, service.Config{N: 3, Seed: 25})
	traced, untraced := pickIDs(t, s.Spans(), "web")
	for _, id := range []string{untraced, traced} {
		if resp := postJSON(t, ts.URL+"/commit", service.CommitRequestJSON{ID: id}); resp.StatusCode != http.StatusOK {
			t.Fatalf("commit %s: status %d", id, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/debug/spans?txn=" + untraced)
	if err != nil {
		t.Fatal(err)
	}
	var e service.ErrorJSON
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if want := fmt.Sprintf("1 transaction id in %d", span.SampleEvery); resp.StatusCode != http.StatusNotFound || !strings.Contains(e.Error, want) {
		t.Errorf("?txn=%s: status %d, %q; want 404 naming %q", untraced, resp.StatusCode, e.Error, want)
	}
	resp, err = http.Get(ts.URL + "/debug/spans?txn=" + traced)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	g, err := span.ReadJSON(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(g.Spans) == 0 {
		t.Errorf("?txn=%s: status %d, %d spans; want 200 and its graph", traced, resp.StatusCode, len(g.Spans))
	}
}
