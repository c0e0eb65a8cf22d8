package shard_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/obs/flight"
	"repro/internal/obs/watch"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/types"
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

// TestFailedJournalIsDetectedWithinOneWatchInterval: the watchdog over a
// two-group deployment whose group 1 disk fails from its first record on.
// Its time to detect the failed journal is at most one watch interval:
// the first tick that samples after the failed flush raises journal-failed
// naming shard 1, and the OnAnomaly hook cuts a flight dump whose shard
// sample carries the error. The rule fires once, however many ticks follow.
func TestFailedJournalIsDetectedWithinOneWatchInterval(t *testing.T) {
	const interval = 100 * time.Millisecond
	probe := wal.NewFaultFS(wal.NewMemFS(), 0)
	pj, err := wal.OpenDecisionLog(wal.SegmentedOptions{FS: probe})
	if err != nil {
		t.Fatal(err)
	}
	opsAtOpen := probe.Ops()
	pj.Close() //nolint:errcheck // a probe
	journals := make([]*wal.DecisionLog, 2)
	for k := range journals {
		fs := wal.FS(wal.NewMemFS())
		if k == 1 {
			fs = wal.NewFaultFS(fs, opsAtOpen+1)
		}
		if journals[k], err = wal.OpenDecisionLog(wal.SegmentedOptions{FS: fs}); err != nil {
			t.Fatal(err)
		}
		defer journals[k].Close() //nolint:errcheck // the failed one reports its poison
	}
	c, err := shard.New(shard.Config{
		Shards:         2,
		Group:          service.Config{N: 3, K: 3, Seed: 9, TickEvery: time.Millisecond},
		ConfigureGroup: func(k int, g *service.Config) { g.Journal = journals[k] },
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	defer c.Close(ctx) //nolint:errcheck // group 1 is fail-stopped

	type detection struct {
		at   time.Time
		a    watch.Anomaly
		dump string
	}
	detected := make(chan detection, 1)
	var rec *flight.Recorder
	wd := watch.New(c, watch.Config{Interval: interval, OnAnomaly: func(a watch.Anomaly) {
		at := time.Now()
		path, err := rec.TriggerDump(a.Rule)
		if err != nil {
			t.Error(err)
		}
		detected <- detection{at, a, path}
	}})
	rec = flight.New(flight.Config{Watchdog: wd, Dir: t.TempDir()})
	wd.Start()
	defer wd.Stop()

	flushed := make(chan error, 1)
	c.Group(1).Record([]string{"outside"}, []types.Decision{types.DecisionCommit}, func(err error) { flushed <- err })
	if err := <-flushed; err == nil {
		t.Fatal("the record's flush succeeded on a failing disk")
	}
	failed := time.Now()
	var d detection
	select {
	case d = <-detected:
	case <-time.After(10 * time.Second):
		t.Fatal("the failed journal was never detected")
	}
	// A ticker fire on a busy machine may come late; half an interval of
	// slack keeps the bound about the rule, not the scheduler.
	took := d.at.Sub(failed)
	t.Logf("time to detect %v at a %v watch interval", took, interval)
	if took > interval+interval/2 {
		t.Errorf("journal-failed raised %v after the failed flush, want within one %v interval", took, interval)
	}
	if d.a.Rule != watch.RuleJournalFailed || d.a.Shard != "1" {
		t.Errorf("detected %+v, want journal-failed on shard 1", d.a)
	}
	raw, err := os.ReadFile(d.dump)
	if err != nil {
		t.Fatal(err)
	}
	var dump flight.Dump
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Reason != watch.RuleJournalFailed || len(dump.Shards) != 2 ||
		dump.Shards[0].JournalErr != "" || dump.Shards[1].JournalErr == "" {
		t.Errorf("flight dump %s: reason %q, shards %+v; want journal-failed with shard 1's error alone", d.dump, dump.Reason, dump.Shards)
	}
	time.Sleep(3 * interval)
	if n := wd.Counts()[watch.RuleJournalFailed]; n != 1 {
		t.Errorf("journal-failed raised %d times over %d ticks, want once", n, wd.Health().Ticks)
	}
}
