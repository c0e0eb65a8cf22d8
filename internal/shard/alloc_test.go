package shard_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/shard"
)

// TestShardedSubmitAllocBudget is the alloc-regression guard for the
// sharding layer; CI's Test step runs it, and -short (the race step)
// skips it. AllocsPerRun counts process-wide mallocs, so each figure
// includes the groups' own protocol work — a sequential submit is a
// width-1 batch on three managers — and the budgets carry about 3x
// headroom for scheduler timing and toolchain variation: they exist to
// catch order-of-magnitude regressions (per-message allocations creeping
// into the submit path), not single-alloc drift. Measured on the 2-core
// bench box: ~89 allocs per single-shard submit, ~210 per two-shard cross
// submit (~226 and ~481 before the step path stopped allocating per step).
//
// The submits must COMMIT, so the tick is one a loaded 2-core box can
// keep: at 5 ms the protocol's 2K-tick timeouts are 30 ms, and the test
// passes with four spinning threads beside it (200 µs did not).
func TestShardedSubmitAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counting needs an unloaded scheduler")
	}
	c, err := shard.New(shard.Config{
		Shards: 2,
		Group: service.Config{
			N: 3, K: 3, Seed: 0xa110c,
			TickEvery:      5 * time.Millisecond,
			DefaultTimeout: time.Minute,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := c.Close(ctx); err != nil {
			t.Error(err)
		}
	}()

	// One key per shard so the cross case spans both groups.
	keys := make([]string, 2)
	for s := range keys {
		for j := 0; ; j++ {
			k := "alloc-" + string(rune('a'+s)) + string(rune('0'+j%10)) + string(rune('0'+j/10))
			if c.Router().Route(k) == s {
				keys[s] = k
				break
			}
		}
	}

	submit := func(req shard.Request) {
		res, err := c.Submit(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if res.State != service.StateCommit {
			t.Fatalf("resolved %+v", res)
		}
	}
	// Warm-up: let both groups' buffers and the cross table reach their
	// working size.
	for i := 0; i < 10; i++ {
		submit(shard.Request{})
		submit(shard.Request{Keys: keys})
	}

	single := testing.AllocsPerRun(20, func() { submit(shard.Request{}) })
	cross := testing.AllocsPerRun(20, func() { submit(shard.Request{Keys: keys}) })
	t.Logf("allocs per submit: single-shard %.0f, cross-shard %.0f", single, cross)
	if single > 270 {
		t.Errorf("single-shard submit allocates %.0f, budget 270", single)
	}
	if cross > 640 {
		t.Errorf("cross-shard submit allocates %.0f, budget 640", cross)
	}
}
