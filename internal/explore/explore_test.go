package explore_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/types"
)

func votes(bits ...int) []types.Value {
	out := make([]types.Value, len(bits))
	for i, b := range bits {
		out[i] = types.Value(b)
	}
	return out
}

func TestCrashSweepAllCommit(t *testing.T) {
	// Exhaustive: every subset of up to 2 of 3 processors, every crash
	// clock in [0, 6], all-commit votes. Zero conflicts and zero
	// validity violations required across the whole family.
	vs := votes(1, 1, 1)
	res, err := explore.CrashSweep(explore.CrashSweepConfig{
		Factory:      core.Factory(core.Config{N: 3, T: 1, K: 2, Gadget: true}, vs),
		N:            3,
		K:            2,
		Seed:         1,
		Votes:        vs,
		MaxCrashed:   2,
		ClockHorizon: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs < 50 {
		t.Fatalf("sweep too small: %d runs", res.Runs)
	}
	if res.Conflicts != 0 || res.Violations != 0 {
		t.Fatalf("violations found: %+v (first: %s)", res, res.FirstViolation)
	}
	// Every single-crash schedule (f <= t = 1) must decide.
	if res.Decided == 0 {
		t.Fatal("no schedule decided")
	}
}

func TestCrashSweepWithAbortVote(t *testing.T) {
	vs := votes(1, 0, 1)
	res, err := explore.CrashSweep(explore.CrashSweepConfig{
		Factory:      core.Factory(core.Config{N: 3, T: 1, K: 2, Gadget: true}, vs),
		N:            3,
		K:            2,
		Seed:         2,
		Votes:        vs,
		MaxCrashed:   1,
		ClockHorizon: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Conflicts != 0 || res.Violations != 0 {
		t.Fatalf("violations: %+v (first: %s)", res, res.FirstViolation)
	}
}

func TestCrashSweepFiveProcs(t *testing.T) {
	if testing.Short() {
		t.Skip("larger sweep")
	}
	vs := votes(1, 1, 1, 1, 1)
	res, err := explore.CrashSweep(explore.CrashSweepConfig{
		Factory:      core.Factory(core.Config{N: 5, T: 2, K: 2, Gadget: true}, vs),
		N:            5,
		K:            2,
		Seed:         3,
		Votes:        vs,
		MaxCrashed:   2,
		ClockHorizon: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Conflicts != 0 || res.Violations != 0 {
		t.Fatalf("violations: %+v (first: %s)", res, res.FirstViolation)
	}
	if res.Runs != 276 { // C(5,0)+C(5,1)*5+C(5,2)*25 schedules
		t.Fatalf("sweep too small: %d", res.Runs)
	}
}

func TestExploreTwoProcessors(t *testing.T) {
	// Bounded model check of the full two-processor protocol (t = 0):
	// every canonical interleaving to depth 12 (10 in -short mode). No
	// reachable configuration may violate agreement or abort validity.
	depth, states := 12, 30_000
	if testing.Short() {
		depth, states = 10, 10_000
	}
	vs := votes(1, 1)
	res, err := explore.Explore(explore.ExploreConfig{
		Factory:   core.Factory(core.Config{N: 2, T: 0, K: 1, Gadget: true}, vs),
		N:         2,
		K:         1,
		Seed:      4,
		Votes:     vs,
		MaxDepth:  depth,
		MaxStates: states,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != "" {
		t.Fatalf("violation within bounds: %s via %v", res.Violation, res.ViolationPath)
	}
	if res.StatesVisited < 100 {
		t.Fatalf("exploration too small: %d states", res.StatesVisited)
	}
	if res.DecidedStates == 0 {
		t.Fatal("no decided configuration reached within bounds")
	}
}

func TestExploreAbortVoteNeverCommits(t *testing.T) {
	// With an initial abort vote, abort validity is audited in every
	// reachable configuration: no interleaving may produce a commit.
	depth, states := 12, 30_000
	if testing.Short() {
		depth, states = 10, 10_000
	}
	vs := votes(1, 0)
	res, err := explore.Explore(explore.ExploreConfig{
		Factory:   core.Factory(core.Config{N: 2, T: 0, K: 1, Gadget: true}, vs),
		N:         2,
		K:         1,
		Seed:      5,
		Votes:     vs,
		MaxDepth:  depth,
		MaxStates: states,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != "" {
		t.Fatalf("violation: %s via %v", res.Violation, res.ViolationPath)
	}
	if res.DecidedStates == 0 {
		t.Fatal("no decided configuration reached")
	}
}

func TestExploreThreeProcessorsShallow(t *testing.T) {
	if testing.Short() {
		t.Skip("wider exploration")
	}
	vs := votes(1, 1, 1)
	res, err := explore.Explore(explore.ExploreConfig{
		Factory:   core.Factory(core.Config{N: 3, T: 1, K: 1, Gadget: true}, vs),
		N:         3,
		K:         1,
		Seed:      6,
		Votes:     vs,
		MaxDepth:  9,
		MaxStates: 40_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != "" {
		t.Fatalf("violation: %s via %v", res.Violation, res.ViolationPath)
	}
	if res.StatesVisited < 500 {
		t.Fatalf("exploration too small: %d", res.StatesVisited)
	}
}

// TestExploreWorkerCountInvariant checks the parallel-BFS guarantee:
// the exploration result — every counter, truncation flag, and (when a
// violation exists) the violation path — is identical at any worker
// count. Truncation via MaxStates is included because mid-level cutoff
// is the subtlest case for the deterministic merge.
func TestExploreWorkerCountInvariant(t *testing.T) {
	vs := votes(1, 1)
	run := func(workers, maxStates int) *explore.ExploreResult {
		res, err := explore.Explore(explore.ExploreConfig{
			Factory:   core.Factory(core.Config{N: 2, T: 0, K: 1, Gadget: true}, vs),
			N:         2,
			K:         1,
			Seed:      7,
			Votes:     vs,
			MaxDepth:  9,
			MaxStates: maxStates,
			Workers:   workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	for _, maxStates := range []int{20_000, 500} {
		want := run(-1, maxStates)
		for _, workers := range []int{2, 8} {
			got := run(workers, maxStates)
			if got.StatesVisited != want.StatesVisited ||
				got.Expanded != want.Expanded || got.Truncated != want.Truncated ||
				got.DecidedStates != want.DecidedStates || got.Violation != want.Violation ||
				fmt.Sprint(got.ViolationPath) != fmt.Sprint(want.ViolationPath) {
				t.Fatalf("maxStates=%d workers=%d: result %+v differs from serial %+v",
					maxStates, workers, got, want)
			}
		}
	}
}

func TestDeliveryModeString(t *testing.T) {
	if explore.DeliverNone.String() != "none" ||
		explore.DeliverAll.String() != "all" ||
		explore.DeliverOldest.String() != "oldest" {
		t.Error("mode strings changed")
	}
	if explore.DeliveryMode(9).String() == "" {
		t.Error("unknown mode string empty")
	}
}
