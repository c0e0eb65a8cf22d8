package chaos

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/service"
)

// TestShardedPlanDeterminism: shard assignments are a pure function of
// the seed, draw from their own stream (unsharded plan bytes unchanged),
// and respect the cross fraction's shape (sets of size 1 or 2, sorted,
// in range).
func TestShardedPlanDeterminism(t *testing.T) {
	cfg := PlanConfig{Seed: 42, N: 5, Shape: ShapeChurn, Shards: 4, Txns: 64}
	a, err := NewPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Canonical() != b.Canonical() {
		t.Fatal("sharded plan not deterministic")
	}
	if !strings.Contains(a.Canonical(), "shards n=4 cross_fraction=0.3") {
		t.Fatalf("canonical missing shard line:\n%s", a.Canonical())
	}

	// The unsharded plan for the same seed must be byte-identical to the
	// sharded one minus the shard lines: sharding draws from a separate
	// stream.
	plain, err := NewPlan(PlanConfig{Seed: 42, N: 5, Shape: ShapeChurn, Txns: 64})
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, line := range strings.Split(a.Canonical(), "\n") {
		if strings.HasPrefix(line, "shards ") || strings.HasPrefix(line, "txnshards ") {
			continue
		}
		kept = append(kept, line)
	}
	if got, want := strings.Join(kept, "\n"), plain.Canonical(); got != want {
		t.Fatalf("sharding perturbed the unsharded draws:\n--- sharded minus shard lines\n%s\n--- plain\n%s", got, want)
	}

	cross, single := 0, 0
	for _, set := range a.TxnShards {
		switch len(set) {
		case 1:
			single++
		case 2:
			cross++
			if set[0] >= set[1] {
				t.Fatalf("unsorted shard set %v", set)
			}
		default:
			t.Fatalf("shard set size %d", len(set))
		}
		for _, s := range set {
			if s < 0 || s >= 4 {
				t.Fatalf("shard %d out of range", s)
			}
		}
	}
	if cross == 0 || single == 0 {
		t.Fatalf("degenerate mix: cross=%d single=%d", cross, single)
	}
}

// TestShardedServiceSweep drives cross-shard workloads across shard
// counts and fault shapes — including crash shapes, where the
// cross-shard combine must stay atomic while participants die under it.
func TestShardedServiceSweep(t *testing.T) {
	shapes := []Shape{ShapeClean, ShapeLossy, ShapeCrash, ShapeCrashRestart}
	shardCounts := []int{2, 4}
	seeds := 2
	if testing.Short() {
		shapes, shardCounts, seeds = []Shape{ShapeLossy, ShapeCrash}, []int{2}, 1
	}
	for _, shape := range shapes {
		for _, shards := range shardCounts {
			for s := 0; s < seeds; s++ {
				cfg := PlanConfig{
					Seed:          uint64(s)*6700_417 + uint64(shards)*257 + uint64(len(shape)),
					N:             3,
					Shape:         shape,
					Shards:        shards,
					Txns:          12,
					CrossFraction: 0.5,
				}
				t.Run(fmt.Sprintf("%s/shards%d/seed%d", shape, shards, cfg.Seed), func(t *testing.T) {
					_, data := runServiceOne(t, cfg)
					// The plan's cross fraction is 0.3 over 12 txns; make
					// sure the sweep actually exercised the two-layer path.
					if data.Metrics.Cross.Submitted == 0 {
						t.Fatalf("seed %d drove no cross-shard transactions", cfg.Seed)
					}
				})
			}
		}
	}
}

// TestShardedRecoveryEcho: the harness's WAL-without-outcomes replay is a
// real re-derivation — it settles every decided cross transaction and the
// auditor's history sees the echo data as a restart epoch.
func TestShardedRecoveryEcho(t *testing.T) {
	cfg := PlanConfig{Seed: 99, N: 3, Shape: ShapeClean, Shards: 3, Txns: 16, CrossFraction: 0.8}
	_, data := runServiceOne(t, cfg)
	decided := 0
	for _, res := range data.Results {
		if len(res.Shards) > 1 && (res.State == service.StateCommit || res.State == service.StateAbort) {
			decided++
			if _, ok := data.EchoOutcomes[res.ID]; !ok {
				t.Fatalf("decided cross txn %s missing from echo outcomes", res.ID)
			}
		}
	}
	if decided == 0 {
		t.Fatal("no decided cross transactions to echo")
	}
	if len(data.Records) == 0 {
		t.Fatal("cross WAL recorded nothing")
	}
}

// TestShardedAuditLogReproducible: two live sharded runs of one seed emit
// byte-identical passing audit logs.
func TestShardedAuditLogReproducible(t *testing.T) {
	cfg := PlanConfig{Seed: 0x5eed, N: 3, Shape: ShapeLossy, Shards: 2, Txns: 10}
	var logs [2]string
	for i := range logs {
		rep, _ := runServiceOne(t, cfg)
		logs[i] = rep.Log()
	}
	if logs[0] != logs[1] {
		t.Fatalf("sharded audit logs differ across runs:\n--- a\n%s\n--- b\n%s", logs[0], logs[1])
	}
}
