package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	tcommit "repro"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/span"
	"repro/internal/obs/watch"
)

var update = flag.Bool("update", false, "rewrite golden files")

// writeTrace produces a real trace file via the public simulate API.
func writeTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	_, err = tcommit.Simulate(
		tcommit.Config{N: 3, K: 2, Seed: 5},
		[]bool{true, true, true},
		tcommit.WithTraceWriter(f),
	)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunDump(t *testing.T) {
	path := writeTrace(t)
	if err := run([]string{path}); err != nil {
		t.Fatal(err)
	}
	// Flag variants.
	if err := run([]string{"-rounds=false", "-late=false", "-events=false", path}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-max-events", "3", path}); err != nil {
		t.Fatal(err)
	}
}

// liveGraph is a small live span ring: t1's admission, its batch's GO
// and vote milestones, two nodes' decided markers and a crash.
func liveGraph() *span.Graph {
	var now int64
	c := span.NewCollectorClock(64, func() int64 { now++; return now })
	b := obs.BatchKey("b1")
	c.Add(span.Span{Txn: "t1", Track: span.ServiceTrack, Name: span.StageAdmit, Kind: span.KindStage, Start: 0, End: 1, From: -1, To: -1})
	c.Mark(b, span.ProcTrack(0), span.EventGoSent, "tick=1 coins=2 fanout=3")
	c.Mark(b, span.ProcTrack(1), span.EventGoRecv, "tick=2 from=0")
	c.Mark(b, span.ProcTrack(1), span.EventVoteCast, "tick=2 votes=1")
	for p := 1; p >= 0; p-- {
		at := c.Now()
		c.Add(span.Span{Txn: "t1", Track: span.ProcTrack(p), Name: span.StageDecided, Kind: span.KindStage,
			Start: at, End: at, From: -1, To: -1, Detail: "decision=COMMIT " + obs.BatchDetail("b1")})
	}
	c.Mark("", span.ProcTrack(2), span.EventCrash, "")
	return c.Graph()
}

// writeGraph saves g as span-graph JSON, the way GET /debug/spans serves it.
func writeGraph(t *testing.T, g *span.Graph) string {
	t.Helper()
	var buf bytes.Buffer
	if err := span.WriteJSON(&buf, g); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "live.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunLiveTrace: a live span graph (as served by commitd's
// /debug/spans) is auto-detected by its format stamp and rendered as the
// per-track timeline of its milestones instead of the simulator view.
func TestRunLiveTrace(t *testing.T) {
	path := writeGraph(t, liveGraph())
	if err := run([]string{path}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-events=false", "-max-events", "2", path}); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := dumpGraph(&out, liveGraph(), true, 0); err != nil {
		t.Fatal(err)
	}
	want := `span graph: unit=us spans=7 dropped=0 milestones=6
transactions seen: 2
  go_sent    1
  go_recv    1
  vote_cast  1
  decided    2
  crash      1
timeline:
  proc 0:
    #2               1us go_sent    txn=batch:b1 tick=1 coins=2 fanout=3
    #6               5us decided    txn=t1 decision=COMMIT batch=b1
  proc 1:
    #3               2us go_recv    txn=batch:b1 tick=2 from=0
    #4               3us vote_cast  txn=batch:b1 tick=2 votes=1
    #5               4us decided    txn=t1 decision=COMMIT batch=b1
  proc 2:
    #7               6us crash
`
	if out.String() != want {
		t.Fatalf("timeline:\n%s\nwant\n%s", out.String(), want)
	}
	out.Reset()
	if err := dumpGraph(&out, liveGraph(), true, 2); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(out.String(), "  ... 4 more milestones\n") {
		t.Fatalf("capped timeline:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("missing argument accepted")
	}
	if err := run([]string{"/nonexistent/trace.json"}); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{bad}); err == nil {
		t.Error("garbage file accepted")
	}
}

// TestDispatchUnknown (satellite of the span work): an unknown
// subcommand or flag exits non-zero with the usage text instead of
// silently falling through to the file renderer.
func TestDispatchUnknown(t *testing.T) {
	var errb bytes.Buffer
	if code := dispatch([]string{"bogus", "x.json"}, io.Discard, &errb); code != 2 {
		t.Fatalf("unknown subcommand exit = %d, want 2", code)
	}
	if out := errb.String(); !strings.Contains(out, `unknown subcommand "bogus"`) ||
		!strings.Contains(out, "usage:") {
		t.Fatalf("stderr = %q", out)
	}

	errb.Reset()
	if code := dispatch([]string{"-no-such-flag", "x.json"}, io.Discard, &errb); code == 0 {
		t.Fatal("unknown flag exited 0")
	}

	errb.Reset()
	if code := dispatch([]string{"spans"}, io.Discard, &errb); code != 2 {
		t.Fatalf("missing operand exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "usage:") {
		t.Fatalf("stderr = %q", errb.String())
	}

	errb.Reset()
	if code := dispatch([]string{"critpath", "/nonexistent.json"}, io.Discard, &errb); code != 1 {
		t.Fatalf("missing file exit = %d, want 1", code)
	}

	// The legacy single-file form still works through dispatch.
	if code := dispatch([]string{writeTrace(t)}, io.Discard, &errb); code != 0 {
		t.Fatalf("legacy render exit = %d, stderr %q", code, errb.String())
	}
}

// goldenCheck runs one subcommand over the deterministic sim trace and
// compares its stdout against a committed golden file.
func goldenCheck(t *testing.T, name string, args []string) string {
	t.Helper()
	var out, errb bytes.Buffer
	if code := dispatch(args, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, stderr %q", code, errb.String())
	}
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("%s mismatch\n--- got ---\n%s--- want ---\n%s", name, out.String(), want)
	}
	return out.String()
}

// TestSubcommandGoldens: the three span subcommands are byte-stable over
// the fixed-seed simulator trace — the acceptance guarantee that one
// seed yields identical span JSON, chrome JSON, and critical-path text.
func TestSubcommandGoldens(t *testing.T) {
	path := writeTrace(t)
	spansOut := goldenCheck(t, "spans.golden", []string{"spans", path})
	goldenCheck(t, "critpath.golden", []string{"critpath", path})
	chromeOut := goldenCheck(t, "chrome.golden", []string{"chrome", path})

	if _, err := span.ReadJSON(strings.NewReader(spansOut)); err != nil {
		t.Fatalf("spans golden is not a valid span graph: %v", err)
	}

	// The chrome export is structurally valid trace-event JSON.
	if !strings.Contains(chromeOut, `"traceEvents"`) || !strings.Contains(chromeOut, `"ph": "X"`) {
		t.Error("chrome golden lacks trace-event structure")
	}

	// The spans export round-trips through the subcommand unchanged
	// (span-graph JSON in, canonical span-graph JSON out).
	reexport := filepath.Join(t.TempDir(), "graph.json")
	if err := os.WriteFile(reexport, []byte(spansOut), 0o644); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if code := dispatch([]string{"spans", reexport}, &again, io.Discard); code != 0 {
		t.Fatal("re-export failed")
	}
	if again.String() != spansOut {
		t.Error("span-graph JSON did not pass through canonically")
	}
}

// TestCritpathFlags: -txn and -o work; a live span graph also feeds
// critpath, whose target is never a milestone.
func TestCritpathFlags(t *testing.T) {
	live := writeGraph(t, liveGraph())

	var out bytes.Buffer
	if code := dispatch([]string{"critpath", "-txn", "t1", live}, &out, io.Discard); code != 0 {
		t.Fatal("critpath -txn failed on a live trace")
	}
	if !strings.Contains(out.String(), "txn=t1") {
		t.Fatalf("critpath output = %q", out.String())
	}
	out.Reset()
	if code := dispatch([]string{"critpath", live}, &out, io.Discard); code != 0 || strings.Contains(out.String(), "crash") {
		t.Fatalf("critpath targeted a milestone: %q", out.String())
	}
	if code := dispatch([]string{"critpath", "-txn", "missing", live}, io.Discard, io.Discard); code != 1 {
		t.Fatal("unknown -txn exited 0")
	}

	dest := filepath.Join(t.TempDir(), "out.json")
	if code := dispatch([]string{"chrome", "-o", dest, live}, io.Discard, io.Discard); code != 0 {
		t.Fatal("chrome -o failed")
	}
	raw, err := os.ReadFile(dest)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"traceEvents"`) {
		t.Fatalf("chrome -o wrote %q", raw)
	}
}

// writeFlightDump materializes a deterministic flight-recorder dump the
// way commitd's anomaly path would.
func writeFlightDump(t *testing.T) string {
	t.Helper()
	g := liveGraph()
	g.Dropped = 4
	d := &flight.Dump{
		Format: flight.DumpFormat,
		Seq:    3,
		Reason: "node-down",
		Health: watch.Health{
			Status: "degraded", Ticks: 12, Anomalies: 2,
			ByRule: map[string]uint64{watch.RuleNodeDown: 1, watch.RuleTxnStall: 1},
			Recent: []watch.Anomaly{
				{Seq: 1, Tick: 4, Rule: watch.RuleNodeDown, Shard: "s0", Node: 2, Detail: "fail-stop"},
				{Seq: 2, Tick: 9, Rule: watch.RuleTxnStall, Shard: "s0", Txn: "t9"},
			},
		},
		Shards: []watch.ShardSample{{
			Shard: "s0", Queued: 1, InFlight: 2, CrashedNodes: []int{2},
			Stalled:   []watch.TxnAge{{Txn: "t9", Shard: "s0", AgeMs: 1500, State: "running"}},
			Submitted: 10, Decided: 8, TimedOut: 1, Rescues: 1,
		}},
		Cross: []watch.TxnAge{{Txn: "x1", AgeMs: 900, State: "preparing"}},
		Spans: g,
	}
	raw, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "flight.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestFlightRender: the flight subcommand prints the dump header,
// health, shard state, and anomaly lines.
func TestFlightRender(t *testing.T) {
	path := writeFlightDump(t)
	var out bytes.Buffer
	if code := dispatch([]string{"flight", path}, &out, io.Discard); code != 0 {
		t.Fatal("flight render failed")
	}
	for _, want := range []string{
		"flight dump: seq=3 reason=node-down",
		"health: degraded ticks=12 anomalies=2",
		"node-down",
		"shard s0: queued=1 in_flight=2 submitted=10 decided=8 timed_out=1 rescues=1",
		"crashed nodes: [2]",
		"stalled txn=t9 state=running age=1500ms",
		"cross in-doubt txn=x1 state=preparing age=900ms",
		"node=2",
		"telemetry: spans=7 milestones=6 dropped=4",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("flight output missing %q:\n%s", want, out.String())
		}
	}
}

// TestFlightSummary: -summary emits exactly the canonical anomaly
// summary — the byte-stable artifact the chaos harness asserts on.
func TestFlightSummary(t *testing.T) {
	path := writeFlightDump(t)
	var out bytes.Buffer
	if code := dispatch([]string{"flight", "-summary", path}, &out, io.Discard); code != 0 {
		t.Fatal("flight -summary failed")
	}
	want := "flight reason=node-down\nrule node-down count=1 nodes=[2]\nrule txn-stall count=1\n"
	if out.String() != want {
		t.Fatalf("summary = %q, want %q", out.String(), want)
	}
}

// TestFlightFeedsSpanSubcommands: spans/critpath accept a flight dump
// directly, reading the embedded span graph.
func TestFlightFeedsSpanSubcommands(t *testing.T) {
	path := writeFlightDump(t)
	var out bytes.Buffer
	if code := dispatch([]string{"spans", path}, &out, io.Discard); code != 0 {
		t.Fatal("spans on a flight dump failed")
	}
	if _, err := span.ReadJSON(bytes.NewReader(out.Bytes())); err != nil {
		t.Fatalf("extracted graph invalid: %v", err)
	}
	out.Reset()
	if code := dispatch([]string{"critpath", "-txn", "t1", path}, &out, io.Discard); code != 0 {
		t.Fatal("critpath on a flight dump failed")
	}
	if !strings.Contains(out.String(), "txn=t1") {
		t.Fatalf("critpath output = %q", out.String())
	}
}

func TestFlightErrors(t *testing.T) {
	if code := dispatch([]string{"flight"}, io.Discard, io.Discard); code != 2 {
		t.Fatal("missing operand accepted")
	}
	if code := dispatch([]string{"flight", "/nonexistent.json"}, io.Discard, io.Discard); code != 1 {
		t.Fatal("missing file accepted")
	}
	// A simulator trace is not a flight dump.
	if code := dispatch([]string{"flight", writeTrace(t)}, io.Discard, io.Discard); code != 1 {
		t.Fatal("non-dump file accepted")
	}
}

func TestKindsSummary(t *testing.T) {
	path := writeTrace(t)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() //nolint:errcheck
	// kinds() is exercised through run; here just confirm maxf.
	if maxf(1, 2) != 2 || maxf(3, 2) != 3 {
		t.Error("maxf wrong")
	}
}
