package explore_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/explore"
)

func TestValencyAllCommitIsBivalent(t *testing.T) {
	// Lemma 15 made concrete: from the all-commit initial configuration,
	// both outcomes are reachable (commit if the schedule is timely,
	// abort if the GO/vote waits time out), so the initial configuration
	// — and many successors — are bivalent.
	depth, states := 14, 40_000
	if testing.Short() {
		depth, states = 12, 15_000
	}
	vs := votes(1, 1)
	res, err := explore.Valency(explore.ExploreConfig{
		Factory:   core.Factory(core.Config{N: 2, T: 0, K: 1, Gadget: true}, vs),
		N:         2,
		K:         1,
		Seed:      11,
		Votes:     vs,
		MaxDepth:  depth,
		MaxStates: states,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reachable1 {
		t.Fatal("commit unreachable from the all-commit configuration")
	}
	if !res.Reachable0 {
		t.Fatal("abort unreachable: starvation paths must lead to timeout-abort")
	}
	if !res.Bivalent() {
		t.Fatal("initial all-commit configuration must be bivalent (Lemma 15)")
	}
	if res.BivalentStates == 0 {
		t.Fatal("no bivalent configurations counted")
	}
	if res.UnivalentStates == 0 {
		t.Fatal("no univalent configurations counted (decided states are univalent)")
	}
}

func TestValencyAbortVoteIsUnivalent(t *testing.T) {
	// Abort validity as valency: with an initial 0, only abort is
	// reachable — the configuration is {0}-valent under every explored
	// schedule.
	depth, states := 14, 40_000
	if testing.Short() {
		depth, states = 12, 15_000
	}
	vs := votes(1, 0)
	res, err := explore.Valency(explore.ExploreConfig{
		Factory:   core.Factory(core.Config{N: 2, T: 0, K: 1, Gadget: true}, vs),
		N:         2,
		K:         1,
		Seed:      12,
		Votes:     vs,
		MaxDepth:  depth,
		MaxStates: states,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reachable1 {
		t.Fatal("commit reachable despite an initial abort vote")
	}
	if !res.Reachable0 {
		t.Fatal("abort unreachable")
	}
	if res.BivalentStates != 0 {
		t.Fatalf("%d bivalent states in a {0}-valent system", res.BivalentStates)
	}
}
