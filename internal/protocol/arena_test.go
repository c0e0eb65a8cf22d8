package protocol_test

import (
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/protocol"
)

// TestArenaAcceptanceSweep is the issue's acceptance criterion: all four
// protocols complete the same seeded chaos sweep under the shared
// auditor with zero wrong answers anywhere; Paxos Commit and Protocol 2
// terminate on every t<n/2 plan; 2PC exhibits at least one audited
// blocking run.
func TestArenaAcceptanceSweep(t *testing.T) {
	res, err := protocol.Sweep(protocol.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Wrong != 0 {
		for _, r := range res.Runs {
			if r.Wrong {
				t.Errorf("wrong answer: %+v", r)
			}
		}
		t.Fatalf("%d wrong answers in the arena sweep", res.Wrong)
	}
	if res.Blocked["paxos"] != 0 {
		t.Errorf("paxos blocked %d times; must terminate on every t<n/2 plan", res.Blocked["paxos"])
	}
	if res.Blocked["protocol2"] != 0 {
		t.Errorf("protocol2 blocked %d times; must terminate on every t<n/2 plan", res.Blocked["protocol2"])
	}
	if res.Blocked["2pc"] == 0 {
		t.Errorf("2pc never blocked; the sweep must include its failure mode")
	}
	// Every blocked 2PC run must be audited as such: in-doubt machines
	// present and no violations.
	for _, r := range res.Runs {
		if r.Protocol == "2pc" && r.Class == "blocked" {
			if r.InDoubt == 0 {
				t.Errorf("blocked 2pc run seed=%d has no in-doubt machines", r.Seed)
			}
			if len(r.Violations) != 0 {
				t.Errorf("blocked 2pc run seed=%d has violations %v", r.Seed, r.Violations)
			}
		}
	}
}

// TestArenaSweepReproducible: the same options produce byte-identical
// audit logs and tables at any worker count.
func TestArenaSweepReproducible(t *testing.T) {
	opts := protocol.Options{
		Seeds:  4,
		Shapes: []chaos.Shape{chaos.ShapeLossy, chaos.ShapeCrash},
		Advs:   []protocol.AdvKind{protocol.AdvRoundRobin, protocol.AdvPareto},
	}
	a, err := protocol.Sweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 8
	b, err := protocol.Sweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Log != b.Log {
		t.Fatalf("audit log differs between workers=1 and workers=8:\n--- w1 ---\n%s\n--- w8 ---\n%s", a.Log, b.Log)
	}
	if a.Table.String() != b.Table.String() {
		t.Fatalf("table differs between workers=1 and workers=8:\n--- w1 ---\n%s\n--- w8 ---\n%s", a.Table, b.Table)
	}
}

// TestArenaUniformAdvAndAllShapesSafe covers the remaining adversary and
// the full four-protocol × uniform combination at a smaller seed count.
func TestArenaUniformAdvAndAllShapesSafe(t *testing.T) {
	res, err := protocol.Sweep(protocol.Options{
		Seeds: 4, Advs: []protocol.AdvKind{protocol.AdvUniform}, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Wrong != 0 {
		t.Fatalf("%d wrong answers under the uniform adversary:\n%s", res.Wrong, res.Log)
	}
}

func TestByName(t *testing.T) {
	for _, p := range protocol.All() {
		got, err := protocol.ByName(p.Name())
		if err != nil {
			t.Fatal(err)
		}
		if got.Name() != p.Name() {
			t.Errorf("ByName(%q) = %q", p.Name(), got.Name())
		}
	}
	if _, err := protocol.ByName("quorum-free-wishful-commit"); err == nil {
		t.Error("expected error for unknown protocol")
	}
}

// TestArenaLogShape sanity-checks the audit log format: a header, one
// line per run, a summary.
func TestArenaLogShape(t *testing.T) {
	res, err := protocol.Sweep(protocol.Options{
		Seeds: 2, Shapes: []chaos.Shape{chaos.ShapeClean},
		Advs: []protocol.AdvKind{protocol.AdvRoundRobin},
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(res.Log, "\n"), "\n")
	wantRuns := 4 * 2 // protocols × seeds
	if len(lines) != wantRuns+2 {
		t.Fatalf("log has %d lines, want %d:\n%s", len(lines), wantRuns+2, res.Log)
	}
	if !strings.HasPrefix(lines[0], "arena ") {
		t.Errorf("missing header: %q", lines[0])
	}
	if !strings.HasPrefix(lines[len(lines)-1], "summary ") {
		t.Errorf("missing summary: %q", lines[len(lines)-1])
	}
	// Clean round-robin runs are on-time and failure-free: everything
	// decides, nothing blocks.
	for _, l := range lines[1 : len(lines)-1] {
		if !strings.Contains(l, "checks=ok") || strings.Contains(l, "class=blocked") {
			t.Errorf("unexpected clean-run line: %q", l)
		}
	}
}
