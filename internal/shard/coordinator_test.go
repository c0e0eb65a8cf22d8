package shard_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/types"
)

// newCoordinator starts a fast-ticking sharded deployment and registers
// its teardown.
func newCoordinator(t *testing.T, cfg shard.Config) *shard.Coordinator {
	t.Helper()
	if cfg.Group.N == 0 {
		cfg.Group.N = 3
	}
	if cfg.Group.K == 0 {
		cfg.Group.K = 3
	}
	if cfg.Group.TickEvery == 0 {
		cfg.Group.TickEvery = 200 * time.Microsecond
	}
	if cfg.Group.DefaultTimeout == 0 {
		cfg.Group.DefaultTimeout = 10 * time.Second
	}
	c, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		c.Close(ctx) //nolint:errcheck // teardown
	})
	return c
}

// crossKeys probes for a key set spanning exactly the given two distinct
// shards of c's router.
func crossKeys(t *testing.T, c *shard.Coordinator, a, b int) []string {
	t.Helper()
	var ka, kb string
	for i := 0; i < 100000 && (ka == "" || kb == ""); i++ {
		k := fmt.Sprintf("key-%d", i)
		switch c.Router().Route(k) {
		case a:
			if ka == "" {
				ka = k
			}
		case b:
			if kb == "" {
				kb = k
			}
		}
	}
	if ka == "" || kb == "" {
		t.Fatalf("no keys found for shards %d and %d", a, b)
	}
	return []string{ka, kb}
}

func TestSingleShardFastPath(t *testing.T) {
	c := newCoordinator(t, shard.Config{Shards: 2, Group: service.Config{Seed: 1}})
	res, err := c.Submit(context.Background(), shard.Request{ID: "solo-1"})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != service.StateCommit {
		t.Fatalf("state = %v, want COMMIT", res.State)
	}
	if len(res.Shards) != 1 || res.Shards[0] != c.Router().Route("solo-1") {
		t.Fatalf("shards = %v, want [%d]", res.Shards, c.Router().Route("solo-1"))
	}
	st, ok := c.Status("solo-1")
	if !ok || st.Cross || st.Shard != res.Shards[0] {
		t.Fatalf("status = %+v ok=%v", st, ok)
	}
	if m := c.Metrics(); m.Cross.Submitted != 0 {
		t.Fatalf("single-shard txn counted as cross: %+v", m.Cross)
	}
}

func TestCrossShardCommit(t *testing.T) {
	var log shard.MemCrossLog
	c := newCoordinator(t, shard.Config{
		Shards: 3, Group: service.Config{Seed: 2}, Log: &log,
	})
	keys := crossKeys(t, c, 0, 2)
	res, err := c.Submit(context.Background(), shard.Request{ID: "pay-1", Keys: keys})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != service.StateCommit || res.Decision != types.DecisionCommit {
		t.Fatalf("result = %+v, want COMMIT", res)
	}
	if len(res.Shards) != 2 || res.Shards[0] != 0 || res.Shards[1] != 2 {
		t.Fatalf("shards = %v, want [0 2]", res.Shards)
	}

	// Each participating shard holds a committed child; the bystander
	// shard knows nothing.
	for _, k := range []int{0, 2} {
		st, ok := c.Group(k).Status(shard.ChildID("pay-1", k))
		if !ok || st.State != service.StateCommit {
			t.Fatalf("shard %d child: %+v ok=%v", k, st, ok)
		}
	}
	if _, ok := c.Group(1).Status(shard.ChildID("pay-1", 1)); ok {
		t.Fatal("non-participating shard 1 knows the child")
	}

	// Top-level status is cross-aware.
	st, ok := c.Status("pay-1")
	if !ok || !st.Cross || st.State != service.StateCommit || st.Decision != "COMMIT" {
		t.Fatalf("status = %+v ok=%v", st, ok)
	}

	// The WAL tells the whole story: begin, both verdicts, the outcome.
	states := shard.ReconstructCross(log.Records())
	cs := states["pay-1"]
	if cs == nil || cs.InDoubt() || cs.Outcome != types.DecisionCommit {
		t.Fatalf("reconstructed state = %+v", cs)
	}
	if cs.Verdicts[0] != types.DecisionCommit || cs.Verdicts[2] != types.DecisionCommit {
		t.Fatalf("verdicts = %v", cs.Verdicts)
	}

	if m := c.Metrics(); m.Cross.Submitted != 1 || m.Cross.Committed != 1 {
		t.Fatalf("cross metrics = %+v", m.Cross)
	}
}

func TestCrossShardAbort(t *testing.T) {
	c := newCoordinator(t, shard.Config{Shards: 2, Group: service.Config{Seed: 3}})
	keys := crossKeys(t, c, 0, 1)
	votes := []bool{true, false, true} // processor 1 votes abort in every group
	res, err := c.Submit(context.Background(), shard.Request{ID: "ab-1", Keys: keys, Votes: votes})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != service.StateAbort || res.Decision != types.DecisionAbort {
		t.Fatalf("result = %+v, want ABORT", res)
	}
	// Atomicity: no child may have committed.
	for _, k := range res.Shards {
		st, ok := c.Group(k).Status(shard.ChildID("ab-1", k))
		if !ok || st.State == service.StateCommit {
			t.Fatalf("shard %d child: %+v ok=%v", k, st, ok)
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	c := newCoordinator(t, shard.Config{Shards: 2, Group: service.Config{Seed: 4}})
	if _, err := c.Submit(context.Background(), shard.Request{ID: "bad#s0"}); err == nil {
		t.Error("reserved child separator accepted")
	}
	keys := make([]string, shard.MaxKeys+1)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	if _, err := c.Submit(context.Background(), shard.Request{Keys: keys}); err == nil {
		t.Error("oversized key set accepted")
	}
	// Duplicate cross-shard ids are rejected like the service rejects
	// duplicate single ids.
	ck := crossKeys(t, c, 0, 1)
	if _, err := c.Submit(context.Background(), shard.Request{ID: "dup-1", Keys: ck}); err != nil {
		t.Fatal(err)
	}
	_, err := c.Submit(context.Background(), shard.Request{ID: "dup-1", Keys: ck})
	var de *service.DuplicateError
	if !errors.As(err, &de) {
		t.Errorf("duplicate cross id error = %v, want DuplicateError", err)
	}
}

// A coordinator that crashed after logging begin — before any child
// reached any shard — recovers by proposing abort everywhere: the
// Gray & Lamport rule that an unprepared participant aborts.
func TestRecoverUnpreparedAborts(t *testing.T) {
	log := &shard.MemCrossLog{}
	if err := log.Append(shard.CrossRecord{Type: shard.RecBegin, Txn: "lost-1", Shards: []int{0, 1}}); err != nil {
		t.Fatal(err)
	}
	recs := log.Records()

	c := newCoordinator(t, shard.Config{
		Shards: 2, Group: service.Config{Seed: 5}, Log: log,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	settled, err := c.Recover(ctx, recs)
	if err != nil {
		t.Fatal(err)
	}
	if settled != 1 {
		t.Fatalf("settled = %d, want 1", settled)
	}
	st, ok := c.Status("lost-1")
	if !ok || st.State != service.StateAbort || st.Decision != "ABORT" {
		t.Fatalf("recovered status = %+v ok=%v", st, ok)
	}
	// The recovery wrote the outcome; a second replay agrees.
	cs := shard.ReconstructCross(log.Records())["lost-1"]
	if cs == nil || cs.InDoubt() || cs.Outcome != types.DecisionAbort {
		t.Fatalf("reconstructed = %+v", cs)
	}
	if m := c.Metrics(); m.Cross.Recovered != 1 {
		t.Fatalf("recovered metric = %d", m.Cross.Recovered)
	}
}

// A coordinator that crashed after its children decided recovers the
// true outcome from the shards' absorbing decisions — it must agree
// with what the first run observed.
func TestRecoverAgreesWithDecidedChildren(t *testing.T) {
	c := newCoordinator(t, shard.Config{
		Shards: 2, Group: service.Config{Seed: 6}, Log: &shard.MemCrossLog{},
	})
	keys := crossKeys(t, c, 0, 1)
	res, err := c.Submit(context.Background(), shard.Request{ID: "done-1", Keys: keys})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != service.StateCommit {
		t.Fatalf("first run state = %v", res.State)
	}

	// Simulate the crash: keep only the begin record, as if the verdict
	// and outcome appends were lost, and recover against the same groups
	// (whose children have already decided).
	records := []shard.CrossRecord{{Type: shard.RecBegin, Txn: "done-1", Shards: res.Shards}}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := c.Recover(ctx, records); err != nil {
		t.Fatal(err)
	}
	st, ok := c.Status("done-1")
	if !ok || st.State != service.StateCommit {
		t.Fatalf("recovered status = %+v ok=%v, want COMMIT (first run committed)", st, ok)
	}
}

// Satellite: drain path. Stop called mid-batch must resolve every
// in-flight submission — single-shard and cross-shard alike — as a
// terminal state; nothing is lost, nothing hangs.
func TestDrainMidBatchResolvesEverything(t *testing.T) {
	c := newCoordinator(t, shard.Config{Shards: 2, Group: service.Config{Seed: 7}})
	keys := crossKeys(t, c, 0, 1)

	const singles, crosses = 8, 4
	results := make(chan shard.Result, singles+crosses)
	errs := make(chan error, singles+crosses)
	submit := func(req shard.Request) {
		res, err := c.Submit(context.Background(), req)
		if err != nil {
			errs <- err
			return
		}
		results <- res
	}
	for i := 0; i < singles; i++ {
		go submit(shard.Request{ID: fmt.Sprintf("drain-s-%d", i)})
	}
	for i := 0; i < crosses; i++ {
		go submit(shard.Request{ID: fmt.Sprintf("drain-x-%d", i), Keys: keys})
	}

	// Let the batch land in the queues, then stop mid-flight.
	time.Sleep(2 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}

	for i := 0; i < singles+crosses; i++ {
		select {
		case res := <-results:
			if !res.State.Terminal() {
				t.Fatalf("non-terminal result %+v", res)
			}
		case err := <-errs:
			// Rejected at admission (draining) is a clean resolution too:
			// the client knows the txn never started.
			if err != service.ErrDraining {
				t.Fatalf("unexpected error: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("a submission was lost: no result within 30s of Close")
		}
	}

	// Whatever decided must agree per shard pair: no cross child may be
	// COMMIT while its sibling is ABORT.
	for i := 0; i < crosses; i++ {
		id := fmt.Sprintf("drain-x-%d", i)
		states := map[int]service.State{}
		for _, k := range []int{0, 1} {
			if st, ok := c.Group(k).Status(shard.ChildID(id, k)); ok {
				states[k] = st.State
			}
		}
		if states[0] == service.StateCommit && states[1] == service.StateAbort ||
			states[0] == service.StateAbort && states[1] == service.StateCommit {
			t.Fatalf("cross txn %s children split: %v", id, states)
		}
	}
}
