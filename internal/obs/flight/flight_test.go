package flight

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs/span"
	"repro/internal/obs/watch"
)

type staticSource struct{ st watch.Stats }

func (s staticSource) WatchStats(time.Duration) watch.Stats { return s.st }

func testRecorder(t *testing.T, dir string) (*Recorder, *watch.Watchdog) {
	t.Helper()
	sp := span.NewCollectorClock(16, func() int64 { return 0 })
	sp.Add(span.Span{Txn: "t-1", Track: "service", Name: "admit", Start: 1, End: 2})
	sp.Mark("batch:b-1", span.ProcTrack(1), span.EventStage, "tick=6 stage=1")

	src := staticSource{st: watch.Stats{Shards: []watch.ShardSample{
		{Shard: "0", InFlight: 3, CrashedNodes: []int{2}},
	}}}
	wd := watch.New(src, watch.Config{})

	clock := time.Unix(1700000000, 0)
	rec := New(Config{
		Spans: sp, Watchdog: wd,
		Dir: dir, Cooldown: time.Minute,
		Clock: func() time.Time { return clock },
	})
	return rec, wd
}

func TestSnapshotAssemblesAllSections(t *testing.T) {
	rec, wd := testRecorder(t, "")
	wd.Tick()
	d := rec.Snapshot("manual")
	if d.Format != DumpFormat || d.Seq != 1 {
		t.Fatalf("header: %+v", d)
	}
	if d.Spans == nil || len(d.Spans.Spans) != 2 || d.Spans.Spans[1].Kind != span.KindEvent {
		t.Fatalf("spans: %+v", d.Spans)
	}
	if len(d.Shards) != 1 || d.Shards[0].InFlight != 3 {
		t.Fatalf("shards: %+v", d.Shards)
	}
	if d.Health.Status != "degraded" || d.Health.ByRule[watch.RuleNodeDown] != 1 {
		t.Fatalf("health: %+v", d.Health)
	}
	if d2 := rec.Snapshot("again"); d2.Seq != 2 {
		t.Fatalf("seq should advance: %d", d2.Seq)
	}
}

func TestTriggerDumpAtomicAndCoolsDown(t *testing.T) {
	dir := t.TempDir()
	rec, wd := testRecorder(t, dir)
	wd.Tick()

	path, err := rec.TriggerDump("node-down")
	if err != nil || path == "" {
		t.Fatalf("dump: %v %q", err, path)
	}
	if !strings.HasSuffix(path, "flight-000001-node-down.json") {
		t.Fatalf("path: %q", path)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !IsDumpJSON(raw) {
		t.Fatalf("sniff failed on %q...", raw[:60])
	}
	d, err := ReadDump(raw)
	if err != nil {
		t.Fatal(err)
	}
	if d.Reason != "node-down" || len(d.Shards) != 1 {
		t.Fatalf("readback: %+v", d)
	}

	// Second trigger inside the cooldown is suppressed.
	path2, err := rec.TriggerDump("node-down")
	if err != nil || path2 != "" {
		t.Fatalf("cooldown should suppress: %v %q", err, path2)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*"))
	if len(files) != 1 {
		t.Fatalf("want exactly 1 file (no tmp leftovers): %v", files)
	}
}

func TestOnAnomalyHookDumps(t *testing.T) {
	dir := t.TempDir()
	rec, wd := testRecorder(t, dir)
	_ = wd
	rec.OnAnomaly(watch.Anomaly{Rule: watch.RuleTxnStall, Txn: "x"})
	files, _ := filepath.Glob(filepath.Join(dir, "flight-*.json"))
	if len(files) != 1 {
		t.Fatalf("anomaly should persist a dump: %v", files)
	}
}

func TestTriggerDumpDisabledWithoutDir(t *testing.T) {
	rec, _ := testRecorder(t, "")
	path, err := rec.TriggerDump("x")
	if err != nil || path != "" {
		t.Fatalf("no dir should be a silent no-op: %v %q", err, path)
	}
}

func TestHandler(t *testing.T) {
	rec, wd := testRecorder(t, "")
	wd.Tick()
	rw := httptest.NewRecorder()
	rec.Handler().ServeHTTP(rw, httptest.NewRequest("GET", "/debug/flight", nil))
	if rw.Code != 200 {
		t.Fatalf("status %d", rw.Code)
	}
	var d Dump
	if err := json.Unmarshal(rw.Body.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	if d.Format != DumpFormat || d.Reason != "on-demand" || d.Spans == nil || len(d.Spans.Spans) != 2 {
		t.Fatalf("dump: format=%q reason=%q spans=%+v", d.Format, d.Reason, d.Spans)
	}
	rw = httptest.NewRecorder()
	rec.Handler().ServeHTTP(rw, httptest.NewRequest("DELETE", "/debug/flight", nil))
	if rw.Code != 405 {
		t.Fatalf("DELETE should 405, got %d", rw.Code)
	}
}

func TestReadDumpRejectsOtherFormats(t *testing.T) {
	if _, err := ReadDump([]byte(`{"format":"span-graph"}`)); err == nil {
		t.Fatalf("a span graph should be rejected")
	}
	if _, err := ReadDump([]byte(`{nope`)); err == nil {
		t.Fatalf("garbage should error")
	}
}

func TestCanonicalSummaryDeterministic(t *testing.T) {
	d := &Dump{
		Reason: "node-down",
		Health: watch.Health{
			ByRule: map[string]uint64{
				watch.RuleTxnStall: 3,
				watch.RuleNodeDown: 2,
			},
			Recent: []watch.Anomaly{
				{Rule: watch.RuleNodeDown, Node: 4},
				{Rule: watch.RuleNodeDown, Node: 1},
				{Rule: watch.RuleTxnStall, Txn: "t"},
			},
		},
	}
	want := "flight reason=node-down\n" +
		"rule node-down count=2 nodes=[1 4]\n" +
		"rule txn-stall count=3\n"
	for i := 0; i < 20; i++ {
		if got := CanonicalSummary(d); got != want {
			t.Fatalf("summary drifted:\n%q\nwant\n%q", got, want)
		}
	}
}

func TestSanitize(t *testing.T) {
	if got := sanitize("slo-burn"); got != "slo-burn" {
		t.Fatalf("%q", got)
	}
	if got := sanitize("../../etc passwd"); got != "______etc_passwd" {
		t.Fatalf("%q", got)
	}
	if got := sanitize(""); got != "manual" {
		t.Fatalf("%q", got)
	}
}
