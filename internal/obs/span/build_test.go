package span_test

import (
	"bytes"
	"runtime"
	"testing"

	tcommit "repro"
	"repro/internal/obs/span"
	"repro/internal/trace"
)

// simTrace runs the deterministic simulator and hands back the recorded
// trace.
func simTrace(t *testing.T, cfg tcommit.Config, votes []bool, opts ...tcommit.SimOption) *trace.Trace {
	t.Helper()
	var buf bytes.Buffer
	opts = append(opts, tcommit.WithTraceWriter(&buf))
	if _, err := tcommit.Simulate(cfg, votes, opts...); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestFromTraceShape(t *testing.T) {
	tr := simTrace(t, tcommit.Config{N: 3, K: 2, Seed: 5}, []bool{true, true, true})
	g, err := span.FromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if g.Unit != "event" {
		t.Fatalf("unit = %q, want event", g.Unit)
	}
	rounds, links := 0, 0
	procTracks := map[string]bool{}
	for _, s := range g.Spans {
		switch s.Kind {
		case span.KindRound:
			rounds++
			procTracks[s.Track] = true
			if s.Start > s.End {
				t.Fatalf("round span runs backward: %+v", s)
			}
		case span.KindLink:
			links++
			if s.Track != span.NetTrack || s.From < 0 || s.To < 0 {
				t.Fatalf("malformed link span: %+v", s)
			}
		}
	}
	if len(procTracks) != tr.N {
		t.Fatalf("round spans on %d tracks, want %d", len(procTracks), tr.N)
	}
	delivered := 0
	for i := range tr.Msgs {
		if tr.Msgs[i].Delivered() {
			delivered++
		}
	}
	if links != delivered {
		t.Fatalf("%d link spans for %d delivered messages", links, delivered)
	}
	if rounds == 0 || len(g.Edges) == 0 {
		t.Fatal("graph has no rounds or no edges")
	}
}

func TestFromTraceCrashMarker(t *testing.T) {
	tr := simTrace(t, tcommit.Config{N: 5, K: 2, Seed: 9}, []bool{true, true, true, true, true},
		tcommit.WithCrash(2, 3))
	g, err := span.FromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range g.Spans {
		if s.Name == "crash" && s.Track == span.ProcTrack(2) && s.Start == s.End {
			found = true
		}
	}
	if !found {
		t.Fatal("no zero-length crash marker for the crashed processor")
	}
}

// TestFromTraceDeterministicAcrossGOMAXPROCS is the acceptance-criteria
// guarantee: one seed yields byte-identical span JSON, chrome JSON, and
// critical-path text at any GOMAXPROCS.
func TestFromTraceDeterministicAcrossGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	render := func() (string, string, string) {
		tr := simTrace(t, tcommit.Config{N: 5, K: 3, Seed: 1234}, []bool{true, true, false, true, true},
			tcommit.WithRandomScheduling(99), tcommit.WithBoundedDelay(4))
		g, err := span.FromTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		var sj, cj bytes.Buffer
		if err := span.WriteJSON(&sj, g); err != nil {
			t.Fatal(err)
		}
		if err := span.WriteChromeTrace(&cj, g); err != nil {
			t.Fatal(err)
		}
		p, err := g.CriticalPathTxn("")
		if err != nil {
			t.Fatal(err)
		}
		return sj.String(), cj.String(), p.Render()
	}

	runtime.GOMAXPROCS(1)
	spans1, chrome1, crit1 := render()
	runtime.GOMAXPROCS(8)
	spans8, chrome8, crit8 := render()
	if spans1 != spans8 {
		t.Error("span JSON differs across GOMAXPROCS")
	}
	if chrome1 != chrome8 {
		t.Error("chrome trace differs across GOMAXPROCS")
	}
	if crit1 != crit8 {
		t.Error("critical-path text differs across GOMAXPROCS")
	}
}

// TestFromTraceCriticalPathTelescopes: on a real simulated run the
// critical path's contributions must sum exactly to the end-to-end
// span of the chain (discrete event indices — zero epsilon).
func TestFromTraceCriticalPathTelescopes(t *testing.T) {
	tr := simTrace(t, tcommit.Config{N: 5, K: 2, Seed: 42}, []bool{true, true, true, true, true},
		tcommit.WithRandomScheduling(7))
	g, err := span.FromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	p, err := g.CriticalPathTxn("")
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, st := range p.Steps {
		sum += st.Contrib
	}
	if sum != p.Total || p.Total != p.End-p.Start {
		t.Fatalf("sum=%d Total=%d End-Start=%d", sum, p.Total, p.End-p.Start)
	}
	if len(p.Steps) < 2 {
		t.Fatalf("suspiciously short path: %+v", p.Steps)
	}
}
