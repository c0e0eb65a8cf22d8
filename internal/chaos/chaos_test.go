package chaos

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/obs/watch"
)

// sweepTick is the protocol tick used by the live sweeps: fast enough to
// keep hundreds of runs cheap, slow enough that the tick clock is
// meaningful under -race on a loaded CI box.
const sweepTick = 500 * time.Microsecond

// runOne executes one cluster plan and fails the test with the replay
// seed on any audit violation — the failure message IS the repro:
// `go run ./cmd/chaos -seed <s> ...` replays it.
func runOne(t *testing.T, cfg PlanConfig) {
	t.Helper()
	p, err := NewPlan(cfg)
	if err != nil {
		t.Fatalf("seed=%d: %v", cfg.Seed, err)
	}
	rep, _, err := RunCluster(p, RunOptions{TickEvery: sweepTick})
	if err != nil {
		t.Fatalf("FAILING SEED %d (shape=%s n=%d): run error: %v", cfg.Seed, cfg.Shape, cfg.N, err)
	}
	if !rep.Pass() {
		t.Fatalf("FAILING SEED %d (replay: go run ./cmd/chaos -seed %d -shape %s -n %d)\n%s",
			cfg.Seed, cfg.Seed, cfg.Shape, cfg.N, rep.Log())
	}
}

// TestClusterSweep is the property-style randomized sweep: seeded plans
// across shapes, cluster sizes, and vote patterns against the live
// goroutine cluster. Short mode trims the seed count, -race CI runs the
// full set, and CHAOS_NIGHTLY (see TestChaosNightly) multiplies it.
func TestClusterSweep(t *testing.T) {
	seeds := 4
	sizes := []int{3, 5}
	if testing.Short() {
		seeds, sizes = 1, []int{5}
	}
	for _, shape := range Shapes() {
		for _, n := range sizes {
			for s := 0; s < seeds; s++ {
				cfg := PlanConfig{
					Seed:  uint64(s)*1_000_003 + uint64(n)*101 + uint64(len(shape)),
					N:     n,
					Shape: shape,
				}
				t.Run(fmt.Sprintf("%s/n%d/seed%d", shape, n, cfg.Seed), func(t *testing.T) {
					runOne(t, cfg)
				})
			}
		}
	}
}

// TestClusterSweepVotePatterns drives deterministic vote edge cases (all
// yes, one no, all no) through a hostile shape.
func TestClusterSweepVotePatterns(t *testing.T) {
	n := 5
	patterns := map[string][]bool{
		"all-yes": {true, true, true, true, true},
		"one-no":  {true, true, false, true, true},
		"all-no":  {false, false, false, false, false},
	}
	for name, votes := range patterns {
		votes := votes
		t.Run(name, func(t *testing.T) {
			runOne(t, PlanConfig{Seed: 0xabc, N: n, Shape: ShapeChurn, Votes: votes})
		})
	}
}

// runServiceOne executes one service plan and fails the test with the
// replay command on any audit violation.
func runServiceOne(t *testing.T, cfg PlanConfig) (*Report, *ServiceRunData) {
	t.Helper()
	p, err := NewPlan(cfg)
	if err != nil {
		t.Fatalf("seed=%d: %v", cfg.Seed, err)
	}
	rep, data, err := RunService(p, RunOptions{TickEvery: sweepTick})
	if err != nil {
		t.Fatalf("FAILING SEED %d (shape=%s shards=%d): run error: %v", cfg.Seed, cfg.Shape, cfg.Shards, err)
	}
	if !rep.Pass() {
		t.Fatalf("FAILING SEED %d (replay: go run ./cmd/chaos -seed %d -shape %s -n %d -mode service -shards %d)\n%s",
			cfg.Seed, cfg.Seed, cfg.Shape, cfg.N, max(cfg.Shards, 1), rep.Log())
	}
	if v := data.Metrics.Aggregate.SafetyViolations; v != 0 {
		t.Fatalf("FAILING SEED %d: %d safety violations", cfg.Seed, v)
	}
	return rep, data
}

// TestServiceSweep runs the plan's transaction workload through the full
// commit service (admission queue, dispatcher, HTTP-facing state) under
// fault injection. Two seed families: the general shapes, and the two
// hostile shapes batching touches most — crash-restart (the batch
// coordinator can die mid-flood) and partition (the vote exchange can
// stall behind a window).
func TestServiceSweep(t *testing.T) {
	families := []struct {
		shapes     []Shape
		mul, add   uint64
		shortShape Shape
	}{
		{[]Shape{ShapeClean, ShapeLossy, ShapeChurn, ShapeCrash}, 7919, 17, ShapeLossy},
		{[]Shape{ShapeCrashRestart, ShapePartition}, 6151, 29, ShapePartition},
	}
	for _, f := range families {
		shapes, seeds := f.shapes, 2
		if testing.Short() {
			shapes, seeds = []Shape{f.shortShape}, 1
		}
		for _, shape := range shapes {
			for s := 0; s < seeds; s++ {
				cfg := PlanConfig{Seed: uint64(s)*f.mul + f.add, N: 5, Shape: shape}
				t.Run(fmt.Sprintf("%s/seed%d", shape, cfg.Seed), func(t *testing.T) {
					runServiceOne(t, cfg)
				})
			}
		}
	}
}

// TestServiceCheckLists pins each service-run shape's check list: a
// one-shard log lists the history checker's consistency, validity and
// stability rules, then agreement, metric consistency and trace sanity;
// a two-shard log adds the durability and commit-of-commits rules and
// recovery termination after stability; a watched run appends the three
// watchdog checks (watchdog-clean because the plan is clean).
func TestServiceCheckLists(t *testing.T) {
	one := []string{"consistency", "validity", "stability", "agreement", "metric-consistency", "trace-sanity"}
	two := []string{"consistency", "validity", "stability", "durability", "commit-of-commits",
		"recovery-termination", "agreement", "metric-consistency", "trace-sanity"}
	watched := []string{"watchdog-crash-detection", "watchdog-no-false-node-down", "watchdog-clean"}
	for _, tc := range []struct {
		shards int
		watch  bool
		want   []string
	}{
		{1, false, one},
		{1, true, append(one[:len(one):len(one)], watched...)},
		{2, false, two},
		{2, true, append(two[:len(two):len(two)], watched...)},
	} {
		t.Run(fmt.Sprintf("shards%d/watch=%v", tc.shards, tc.watch), func(t *testing.T) {
			p, err := NewPlan(PlanConfig{Seed: 21, N: 3, Shape: ShapeClean, Shards: tc.shards})
			if err != nil {
				t.Fatal(err)
			}
			o := RunOptions{TickEvery: sweepTick}
			if tc.watch {
				o.Watch = &watch.Config{}
			}
			rep, _, err := RunService(p, o)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Pass() {
				t.Fatalf("audit failed:\n%s", rep.Log())
			}
			var got []string
			for _, c := range rep.Checks {
				got = append(got, c.Name)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("checks %v, want %v", got, tc.want)
			}
		})
	}
}

// TestServiceAuditLogWorkerCounts: the service's passing audit log is
// byte-identical across runs at different GOMAXPROCS — scheduling
// (goroutine interleavings, shard stepping overlap) must never leak into
// the audited story.
func TestServiceAuditLogWorkerCounts(t *testing.T) {
	cfg := PlanConfig{Seed: 0xbadc0de, N: 5, Shape: ShapeCrashRestart}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	workers := []int{1, 2, prev}
	logs := make([]string, len(workers))
	for i, w := range workers {
		runtime.GOMAXPROCS(w)
		p, err := NewPlan(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, _, err := RunService(p, RunOptions{TickEvery: sweepTick})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !rep.Pass() {
			t.Fatalf("workers=%d: audit failed:\n%s", w, rep.Log())
		}
		logs[i] = rep.Log()
	}
	for i := 1; i < len(logs); i++ {
		if logs[i] != logs[0] {
			t.Fatalf("audit logs differ between GOMAXPROCS=%d and %d:\n--- a\n%s\n--- b\n%s",
				workers[0], workers[i], logs[0], logs[i])
		}
	}
}

// TestAuditLogReproducible: two independent live runs of the same seed
// produce byte-identical passing audit logs — the wall-clock
// nondeterminism of the runs never leaks into the normalized log.
func TestAuditLogReproducible(t *testing.T) {
	cfg := PlanConfig{Seed: 0xd15ea5e, N: 5, Shape: ShapeChurn}
	var logs [2]string
	for i := range logs {
		p, err := NewPlan(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, _, err := RunCluster(p, RunOptions{TickEvery: sweepTick})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Pass() {
			t.Fatalf("audit failed:\n%s", rep.Log())
		}
		logs[i] = rep.Log()
	}
	if logs[0] != logs[1] {
		t.Fatalf("audit logs differ across runs:\n--- a\n%s\n--- b\n%s", logs[0], logs[1])
	}
}

// TestChaosNightly is the long sweep the nightly CI job runs with
// CHAOS_NIGHTLY=1: hundreds of seeded plans across every shape and odd
// cluster sizes up to 9, cluster and service modes, and sharded service
// plans (2 and 4 groups of 3 and 5) whose cross transactions exercise
// commit-of-commits and the coordinator's recovery.
func TestChaosNightly(t *testing.T) {
	if os.Getenv("CHAOS_NIGHTLY") == "" {
		t.Skip("set CHAOS_NIGHTLY=1 for the long sweep")
	}
	seeds := 12
	for _, shape := range Shapes() {
		for _, n := range []int{3, 5, 7, 9} {
			for s := 0; s < seeds; s++ {
				cfg := PlanConfig{
					Seed:  uint64(s)*2_000_033 + uint64(n)*1009 + uint64(len(shape))*31,
					N:     n,
					Shape: shape,
				}
				t.Run(fmt.Sprintf("cluster/%s/n%d/seed%d", shape, n, cfg.Seed), func(t *testing.T) {
					runOne(t, cfg)
				})
			}
		}
	}
	for _, shape := range Shapes() {
		for s := 0; s < 4; s++ {
			cfg := PlanConfig{Seed: uint64(s)*104_729 + uint64(len(shape)), N: 5, Shape: shape}
			t.Run(fmt.Sprintf("service/%s/seed%d", shape, cfg.Seed), func(t *testing.T) {
				runServiceOne(t, cfg)
			})
		}
		for _, shards := range []int{2, 4} {
			for _, n := range []int{3, 5} {
				for s := 0; s < 4; s++ {
					cfg := PlanConfig{
						Seed:   uint64(s)*15_485_863 + uint64(shards*n)*61 + uint64(len(shape)),
						N:      n,
						Shape:  shape,
						Shards: shards,
					}
					t.Run(fmt.Sprintf("sharded/%s/shards%d/n%d/seed%d", shape, shards, n, cfg.Seed), func(t *testing.T) {
						runServiceOne(t, cfg)
					})
				}
			}
		}
	}
}
