package chaos

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs/flight"
	"repro/internal/obs/watch"
)

// nodeDownSet collects the nodes named by node-down anomalies.
func nodeDownSet(anomalies []watch.Anomaly) map[int]bool {
	down := map[int]bool{}
	for _, a := range anomalies {
		if a.Rule == watch.RuleNodeDown {
			down[a.Node] = true
		}
	}
	return down
}

// TestWatchServiceCrashDetectionSweep is the issue's detection-coverage
// acceptance for crashes: across a seeded crash-shape sweep, every
// fail-stop that actually fired raises a node-down anomaly by the run's
// final watchdog tick, and node-down never names a live node (both
// enforced by the auditor; re-checked here explicitly).
func TestWatchServiceCrashDetectionSweep(t *testing.T) {
	firedTotal, detectedTotal := 0, 0
	for seed := uint64(1); seed <= 8; seed++ {
		p, err := NewPlan(PlanConfig{Seed: seed, N: 5, Shape: ShapeCrash})
		if err != nil {
			t.Fatal(err)
		}
		rep, data, err := RunService(p, RunOptions{Watch: &watch.Config{}})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Pass() {
			t.Fatalf("seed %d audit failed:\n%s", seed, rep.Log())
		}
		if !strings.Contains(rep.Log(), "check watchdog-crash-detection PASS") {
			t.Fatalf("seed %d audit lacks the coverage check:\n%s", seed, rep.Log())
		}
		down := nodeDownSet(data.Anomalies)
		for n, c := range data.Crashed {
			if c {
				firedTotal++
				if down[n] {
					detectedTotal++
				}
			}
		}
		for n := range down {
			if !data.Crashed[n] {
				t.Fatalf("seed %d: node-down for live node %d", seed, n)
			}
		}
	}
	if firedTotal == 0 {
		t.Fatal("no crash fired across the sweep; the coverage test lost its subject")
	}
	if detectedTotal != firedTotal {
		t.Fatalf("detected %d of %d fired crashes", detectedTotal, firedTotal)
	}
}

// TestWatchServicePartitionStallSweep: partition plans block transactions
// behind the cut; with a stall age far below the partition window the
// watchdog must report txn-stall anomalies on every seeded plan, and the
// audit must still pass (stalls on a faulty plan are findings, not
// failures).
func TestWatchServicePartitionStallSweep(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		// A processor holding an abort vote for every member of its batch
		// stops waiting for votes, so a transaction with a NO vote may
		// decide before the cut bites; only an all-yes one needs every
		// vote, the cut-off ones too. VoteBias 1 makes every transaction
		// all-yes and leaves the seeded cuts and drops as they were (the
		// vote draws are fixed in number).
		p, err := NewPlan(PlanConfig{Seed: seed, N: 5, Shape: ShapePartition, VoteBias: 1})
		if err != nil {
			t.Fatal(err)
		}
		rep, data, err := RunService(p, RunOptions{
			Watch: &watch.Config{StallAge: 5 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Pass() {
			t.Fatalf("seed %d audit failed:\n%s", seed, rep.Log())
		}
		stalls := 0
		for _, a := range data.Anomalies {
			if a.Rule == watch.RuleTxnStall {
				stalls++
			}
		}
		if stalls == 0 {
			t.Fatalf("seed %d: partitioned run raised no txn-stall anomaly (%d anomalies)",
				seed, len(data.Anomalies))
		}
	}
}

// TestWatchServiceCleanSweep: fault-free plans must produce zero
// anomalies — the zero-false-positive half of the detection contract,
// enforced by the watchdog-clean audit check.
func TestWatchServiceCleanSweep(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		p, err := NewPlan(PlanConfig{Seed: seed, N: 5, Shape: ShapeClean})
		if err != nil {
			t.Fatal(err)
		}
		rep, data, err := RunService(p, RunOptions{Watch: &watch.Config{}})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Pass() {
			t.Fatalf("seed %d audit failed:\n%s", seed, rep.Log())
		}
		if !strings.Contains(rep.Log(), "check watchdog-clean PASS") {
			t.Fatalf("seed %d audit lacks the clean check:\n%s", seed, rep.Log())
		}
		if len(data.Anomalies) != 0 {
			t.Fatalf("seed %d: clean run raised %v", seed, data.Anomalies)
		}
	}
}

// TestWatchShardedCrashDetection: the same coverage contract holds for
// the sharded runner, where a fail-stop takes the node down in every
// group and the watchdog samples the shard coordinator.
func TestWatchShardedCrashDetection(t *testing.T) {
	fired := 0
	for seed := uint64(1); seed <= 4; seed++ {
		p, err := NewPlan(PlanConfig{Seed: seed, N: 5, Shape: ShapeCrash, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		// The subject is detection, not timing: the plans' first crashes
		// fall at ticks 8 to 22, and ten fault-free transactions are often
		// over by then, so pull each schedule forward to start at tick 0.
		for i, first := 0, p.Crashes[0].Tick; i < len(p.Crashes); i++ {
			p.Crashes[i].Tick -= first
		}
		rep, data, err := RunShardedService(p, RunOptions{Watch: &watch.Config{}})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Pass() {
			t.Fatalf("seed %d audit failed:\n%s", seed, rep.Log())
		}
		down := nodeDownSet(data.Anomalies)
		for n, c := range data.Crashed {
			if c {
				fired++
				if !down[n] {
					t.Fatalf("seed %d: crash of node %d undetected", seed, n)
				}
			}
		}
	}
	if fired == 0 {
		t.Fatal("no crash fired across the sharded sweep")
	}
}

// TestWatchUnwatchedRunsUnchanged: without RunOptions.Watch the audit
// log carries no watchdog checks — pre-existing seeded logs stay
// byte-identical.
func TestWatchUnwatchedRunsUnchanged(t *testing.T) {
	p, err := NewPlan(PlanConfig{Seed: 3, N: 5, Shape: ShapeCrash})
	if err != nil {
		t.Fatal(err)
	}
	rep, data, err := RunService(p, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if data.Watched || data.Anomalies != nil {
		t.Fatalf("unwatched run carries watch data: %+v", data.Anomalies)
	}
	if strings.Contains(rep.Log(), "watchdog") {
		t.Fatalf("unwatched audit mentions the watchdog:\n%s", rep.Log())
	}
}

// TestWatchFlightSummaryStable is the byte-stability acceptance: the
// canonical flight summary of a watched run — the artifact chaos CI
// compares across reruns — is identical for repeated executions of the
// same plan. The plan is handcrafted with both crashes at tick 0 so the
// fired-crash set is not racy.
func TestWatchFlightSummaryStable(t *testing.T) {
	votes := [][]bool{
		{true, true, true, true, true},
		{true, true, true, true, true},
		{true, false, true, true, true},
		{true, true, true, true, true},
	}
	run := func() string {
		p := &Plan{
			Cfg:      PlanConfig{Seed: 7, N: 5, T: 2, Shape: ShapeCrash},
			TxnVotes: votes,
			Crashes: []CrashEvent{
				{Node: 1, Tick: 0, RestartTick: -1},
				{Node: 3, Tick: 0, RestartTick: -1},
			},
		}
		_, data, err := RunService(p, RunOptions{Watch: &watch.Config{}})
		if err != nil {
			t.Fatal(err)
		}
		return flight.CanonicalSummary(&flight.Dump{Reason: "chaos", Health: data.Health})
	}
	want := "flight reason=chaos\nrule node-down count=2 nodes=[1 3]\n"
	for i := 0; i < 3; i++ {
		if got := run(); got != want {
			t.Fatalf("run %d summary = %q, want %q", i, got, want)
		}
	}
}
