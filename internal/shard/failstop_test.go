package shard_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/wal"
)

// TestOneFailedJournalStopsOneGroup: of three groups, group 1's disk fails
// from its first record on. Group 1 fail-stops — it refuses admission with
// a JournalError naming it and the deployment reports not ready — while
// groups 0 and 2 keep acking, single-shard and across the two of them. A
// cross transaction touching group 1 is never acked COMMIT. Every acked
// answer survives a restart on the same disks, the failed group's
// included.
func TestOneFailedJournalStopsOneGroup(t *testing.T) {
	const shards, failed = 3, 1
	probe := wal.NewFaultFS(wal.NewMemFS(), 0)
	pj, err := wal.OpenDecisionLog(wal.SegmentedOptions{FS: probe, Name: fmt.Sprintf("shard-%d", failed)})
	if err != nil {
		t.Fatal(err)
	}
	opsAtOpen := probe.Ops()
	pj.Close() //nolint:errcheck // a probe

	disks := make([]*wal.MemFS, shards)
	for k := range disks {
		disks[k] = wal.NewMemFS()
	}
	crossDisk := wal.NewMemFS()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	open := func(failing bool) (c *shard.Coordinator, closeAll func()) {
		journals := make([]*wal.DecisionLog, shards)
		for k := range journals {
			var fs wal.FS = disks[k]
			if failing && k == failed {
				fs = wal.NewFaultFS(disks[k], opsAtOpen+1)
			}
			j, err := wal.OpenDecisionLog(wal.SegmentedOptions{FS: fs, Name: fmt.Sprintf("shard-%d", k)})
			if err != nil {
				t.Fatal(err)
			}
			journals[k] = j
		}
		cross, recs, err := shard.OpenCrossSegmented("", wal.SegmentedOptions{FS: crossDisk})
		if err != nil {
			t.Fatal(err)
		}
		c, err = shard.New(shard.Config{
			Shards: shards,
			Group: service.Config{
				N: 3, K: 3, Seed: 9, TickEvery: 200 * time.Microsecond, DefaultTimeout: 10 * time.Second,
			},
			ConfigureGroup: func(k int, g *service.Config) { g.Journal = journals[k] },
			Log:            cross.CrossLog,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Recover(ctx, recs); err != nil {
			t.Fatal(err)
		}
		return c, func() {
			if err := c.Close(ctx); err != nil {
				t.Error(err)
			}
			for _, j := range journals {
				j.Close() //nolint:errcheck // the failed one reports its poison
			}
			if err := cross.Close(); err != nil {
				t.Error(err)
			}
		}
	}

	c, closeAll := open(true)
	// A few single-shard transactions on every group: group 1's first
	// flush fails, and from then on it refuses.
	acked := make(map[string]shard.TxnStatus)
	ack := func(id string, res shard.Result) {
		t.Helper()
		st, ok := c.Status(id)
		if !ok || st.State != res.State {
			t.Fatalf("%s: answered %s, status %+v", id, res.State, st)
		}
		acked[id] = st
	}
	perGroup := make([]int, shards)
	for i := 0; i < 60; i++ {
		id := fmt.Sprintf("fs-%d", i)
		k := c.Router().Route(id)
		res, err := c.Submit(ctx, shard.Request{ID: id})
		if k == failed {
			var je *service.JournalError
			if err == nil && res.State != service.StateFailed || err != nil && (!errors.As(err, &je) || je.Shard != "1") {
				t.Fatalf("%s on the failed group: %+v, %v; want FAILED or a JournalError naming shard 1", id, res, err)
			}
			continue
		}
		if err != nil || res.State != service.StateCommit {
			t.Fatalf("%s on sound group %d: %+v, %v", id, k, res, err)
		}
		perGroup[k]++
		ack(id, res)
	}
	if perGroup[0] == 0 || perGroup[2] == 0 {
		t.Fatalf("acked per group %v: both sound groups must serve", perGroup)
	}
	if c.Ready() {
		t.Error("a deployment with a failed group reports ready")
	}
	var je *service.JournalError
	if err := c.JournalErr(); !errors.As(err, &je) || je.Shard != "1" {
		t.Errorf("JournalErr = %v, want shard 1's", err)
	}

	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("fs-x02-%d", i)
		res, err := c.Submit(ctx, shard.Request{ID: id, Keys: crossKeys(t, c, 0, 2)})
		if err != nil || res.State != service.StateCommit {
			t.Fatalf("%s across the sound groups: %+v, %v", id, res, err)
		}
		ack(id, res)
	}
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("fs-x01-%d", i)
		res, err := c.Submit(ctx, shard.Request{ID: id, Keys: crossKeys(t, c, 0, failed)})
		if err == nil && res.State == service.StateCommit {
			t.Fatalf("%s touches the failed group and was acked COMMIT", id)
		}
		if err == nil && res.State == service.StateAbort {
			ack(id, res) // an in-doubt TIMEOUT is no answer; recovery may settle it
		}
	}
	closeAll()

	c, closeAll = open(false)
	defer closeAll()
	for id, before := range acked {
		after, ok := c.Status(id)
		if !ok || after.State != before.State || after.Decision != before.Decision {
			t.Errorf("%s: acked %s/%s, after restart %+v (known %v)", id, before.State, before.Decision, after, ok)
		}
	}
}
