package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs/flight"
	"repro/internal/obs/span"
)

// capture runs main's run() with stdout redirected to a pipe-backed file.
func capture(t *testing.T, args []string) (int, string) {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	code := run(args, out, out)
	if _, err := out.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(buf)
}

func TestPlanOnlyIsDeterministic(t *testing.T) {
	args := []string{"-seed", "42", "-n", "5", "-shape", "churn", "-plan"}
	code1, out1 := capture(t, args)
	code2, out2 := capture(t, args)
	if code1 != 0 || code2 != 0 {
		t.Fatalf("exit codes %d/%d", code1, code2)
	}
	if out1 != out2 {
		t.Fatalf("plan not deterministic:\n%s\nvs\n%s", out1, out2)
	}
	if !strings.Contains(out1, "plan seed=42 n=5 t=2 shape=churn") {
		t.Fatalf("unexpected plan header:\n%s", out1)
	}
}

func TestReplayClusterSeed(t *testing.T) {
	code, out := capture(t, []string{"-seed", "7", "-n", "3", "-shape", "crash-restart", "-tick", "500us"})
	if code != 0 {
		t.Fatalf("replay exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "audit PASS") {
		t.Fatalf("missing audit verdict:\n%s", out)
	}
}

// TestReplayServiceModeWithTrace: a service replay's -spans-out carries
// the run's protocol milestones beside its spans; the tracer's -trace-out
// is gone.
func TestReplayServiceModeWithTrace(t *testing.T) {
	spansPath := filepath.Join(t.TempDir(), "spans.json")
	code, out := capture(t, []string{
		"-seed", "7", "-n", "3", "-shape", "lossy", "-mode", "service",
		"-tick", "500us", "-spans-out", spansPath,
	})
	if code != 0 {
		t.Fatalf("service replay exited %d:\n%s", code, out)
	}
	raw, err := os.ReadFile(spansPath)
	if err != nil {
		t.Fatalf("spans not written: %v", err)
	}
	g, err := span.ReadJSON(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, s := range g.Spans {
		if s.Kind == span.KindEvent {
			seen[s.Name] = true
		}
	}
	for _, want := range []string{span.EventGoSent, span.EventGoRecv, span.EventVoteCast} {
		if !seen[want] {
			t.Errorf("span ring missing %s milestones (has %v)", want, seen)
		}
	}
	if code, _ := capture(t, []string{"-mode", "service", "-trace-out", spansPath}); code != 2 {
		t.Fatalf("-trace-out accepted (exit %d)", code)
	}
}

// TestServiceSpansOutAndCritpath: a service run writes its causal span
// graph, prints the slowest transaction's critical path after the audit
// log, and the dump is a loadable span graph in which that transaction's
// critical path descends into its batch's rounds.
func TestServiceSpansOutAndCritpath(t *testing.T) {
	spansPath := filepath.Join(t.TempDir(), "spans.json")
	code, out := capture(t, []string{
		"-seed", "11", "-n", "3", "-shape", "clean", "-mode", "service",
		"-tick", "500us", "-spans-out", spansPath,
	})
	if code != 0 {
		t.Fatalf("service replay exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "slowest transaction: chaos-11-") ||
		!strings.Contains(out, "critical path:") {
		t.Fatalf("missing critical-path attribution:\n%s", out)
	}
	// The attribution must follow the audit log, never precede (or
	// infiltrate) it — Log() stays a pure function of the seed.
	if strings.Index(out, "audit PASS") > strings.Index(out, "slowest transaction:") {
		t.Fatalf("critical path printed before the audit log:\n%s", out)
	}
	raw, err := os.ReadFile(spansPath)
	if err != nil {
		t.Fatalf("spans not written: %v", err)
	}
	g, err := span.ReadJSON(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("spans dump unreadable: %v", err)
	}
	if len(g.Spans) == 0 || len(g.Edges) == 0 {
		t.Fatalf("spans dump empty: %d spans, %d edges", len(g.Spans), len(g.Edges))
	}
	// A member's critical path must not stop at the service stages: a
	// round step is listed and rounds hold a nonzero share. (Links are not
	// asserted: the in-process hub delivers in 0 us in the clean shape.)
	_, rest, _ := strings.Cut(out, "slowest transaction: ")
	slowest, _, _ := strings.Cut(rest, " ")
	p, err := g.CriticalPathTxn(slowest)
	if err != nil {
		t.Fatalf("critical path of %q: %v", slowest, err)
	}
	roundStep := false
	for _, st := range p.Steps {
		roundStep = roundStep || st.Span.Kind == span.KindRound
	}
	if !roundStep || p.ByKind[span.KindRound] <= 0 {
		t.Fatalf("critical path of %s has no round step or no round share (by kind %v):\n%s",
			slowest, p.ByKind, p.Render())
	}
}

// TestWatchedServiceWritesFlightDump: the CLI route of the detection-
// coverage loop. A watched crash run passes the watchdog coverage check
// and -flight-out leaves a dump the flight reader accepts, spans included.
func TestWatchedServiceWritesFlightDump(t *testing.T) {
	flightPath := filepath.Join(t.TempDir(), "flight.json")
	code, out := capture(t, []string{
		"-mode", "service", "-seed", "3", "-n", "5", "-shape", "crash",
		"-tick", "500us", "-watch", "-flight-out", flightPath,
	})
	if code != 0 {
		t.Fatalf("watched replay exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "check watchdog-crash-detection PASS") {
		t.Fatalf("watched run carries no passing coverage check:\n%s", out)
	}
	raw, err := os.ReadFile(flightPath)
	if err != nil {
		t.Fatalf("flight dump not written: %v", err)
	}
	d, err := flight.ReadDump(raw)
	if err != nil {
		t.Fatalf("flight dump unreadable: %v", err)
	}
	if d.Reason != "chaos" || d.Spans == nil || len(d.Spans.Spans) == 0 {
		t.Fatalf("flight dump is missing the run: reason=%q spans=%v", d.Reason, d.Spans != nil)
	}
}

// TestReplayShardedSeed: -mode sharded replays a cross-shard plan, the
// audit log carries the shard assignments (so the log alone reproduces
// the workload), and the cross-layer summary prints after the log.
func TestReplayShardedSeed(t *testing.T) {
	code, out := capture(t, []string{
		"-seed", "7", "-n", "3", "-shape", "crash", "-mode", "sharded",
		"-shards", "3", "-tick", "500us",
	})
	if code != 0 {
		t.Fatalf("sharded replay exited %d:\n%s", code, out)
	}
	for _, want := range []string{
		"shards n=3 cross_fraction=0.3",
		"txnshards ",
		"check cross-atomicity PASS",
		"check recovery-agreement PASS",
		"audit PASS",
		"cross layer: submitted=",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("sharded output missing %q:\n%s", want, out)
		}
	}
}

func TestBadFlagsRejected(t *testing.T) {
	if code, _ := capture(t, []string{"-mode", "nonsense"}); code != 2 {
		t.Fatalf("bad mode exited %d, want 2", code)
	}
	if code, _ := capture(t, []string{"-n", "0"}); code != 2 {
		t.Fatalf("n=0 exited %d, want 2", code)
	}
}
