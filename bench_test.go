// Benchmarks regenerating the paper's quantitative claims, one per
// experiment of DESIGN.md's index (E1–E12). Each iteration executes one
// experiment unit (a full protocol run, or a full mini-sweep for the
// aggregate experiments) and reports the paper-relevant quantity as a
// custom metric alongside the usual ns/op:
//
//	go test -bench=. -benchmem
//
// The paper's analytical bounds appear as metrics: E1 reports
// rounds/decision (Theorem 10 bound: 14), E2 stages/decision (Lemma 8
// bound: 4), E6 ticks/decision (Remark 1 bound: 8K), and so on.
package tcommit_test

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	tcommit "repro"
	"repro/internal/adversary"
	"repro/internal/harness"
	"repro/internal/lowerbound"
	"repro/internal/rng"
	"repro/internal/rounds"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/twopc"
	"repro/internal/txn"
	"repro/internal/types"
)

// BenchmarkE1CommitRounds measures asynchronous rounds to decision for
// Protocol 2 (Theorem 10: expected <= 14).
func BenchmarkE1CommitRounds(b *testing.B) {
	for _, n := range []int{3, 7, 13} {
		b.Run(benchName("n", n), func(b *testing.B) {
			totalRounds := 0
			for i := 0; i < b.N; i++ {
				seed := uint64(i)*7919 + 11
				res, _, err := harness.RunCommit(harness.CommitRun{
					N: n, K: 4, Seed: seed, Record: true,
					Adversary: &adversary.Random{Rand: rng.NewStream(seed ^ 0xE1), DeliverProb: 0.7},
				})
				if err != nil || !res.AllNonfaultyDecided() {
					b.Fatalf("run failed: %v", err)
				}
				an, err := rounds.Analyze(res.Trace, 0)
				if err != nil {
					b.Fatal(err)
				}
				r, ok := an.DecisionRound(res.DecidedClock)
				if !ok {
					b.Fatal("undecided")
				}
				totalRounds += r
			}
			b.ReportMetric(float64(totalRounds)/float64(b.N), "rounds/decision")
		})
	}
}

// BenchmarkE2AgreementStages measures Protocol 1 stages to decision with
// the shared coin list (Lemma 8: expected < 4).
func BenchmarkE2AgreementStages(b *testing.B) {
	for _, n := range []int{3, 9} {
		b.Run(benchName("n", n), func(b *testing.B) {
			totalStages := 0
			for i := 0; i < b.N; i++ {
				seed := uint64(i)*131 + 3
				res, ams, err := harness.RunAgreement(harness.AgreementRun{
					N: n, Initial: harness.SplitVotes(n), Shared: true, Seed: seed,
					Adversary: &adversary.Random{Rand: rng.NewStream(seed ^ 0xE2)},
				})
				if err != nil || !res.AllNonfaultyDecided() {
					b.Fatalf("run failed: %v", err)
				}
				totalStages += harness.MaxStage(ams)
			}
			b.ReportMetric(float64(totalStages)/float64(b.N), "stages/decision")
		})
	}
}

// BenchmarkE3SharedVsLocalCoins contrasts plain Ben-Or with the shared
// coin list under the value-splitting scheduler (exponential vs constant).
func BenchmarkE3SharedVsLocalCoins(b *testing.B) {
	for _, variant := range []struct {
		name   string
		shared bool
	}{{"ben-or", false}, {"shared", true}} {
		b.Run(variant.name, func(b *testing.B) {
			totalStages := 0
			for i := 0; i < b.N; i++ {
				seed := uint64(i)*17 + 5
				res, ams, err := harness.RunAgreement(harness.AgreementRun{
					N: 5, Initial: harness.SplitVotes(5), Shared: variant.shared,
					Seed: seed, Adversary: &adversary.BenOrSpoiler{}, MaxSteps: 5_000_000,
				})
				if err != nil || !res.AllNonfaultyDecided() {
					b.Fatalf("run failed: %v", err)
				}
				totalStages += harness.MaxStage(ams)
			}
			b.ReportMetric(float64(totalStages)/float64(b.N), "stages/decision")
		})
	}
}

// BenchmarkE4FaultSweep measures decision latency as crash count grows
// within the tolerance (Theorem 9: always decides; zero conflicts).
func BenchmarkE4FaultSweep(b *testing.B) {
	n := 7
	for _, f := range []int{0, 1, 3} {
		b.Run(benchName("f", f), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				seed := uint64(i)*37 + uint64(f)
				var plan []adversary.CrashPlan
				for j := 0; j < f; j++ {
					plan = append(plan, adversary.CrashPlan{Proc: types.ProcID(n - 1 - j), AtClock: 2 + j})
				}
				res, _, err := harness.RunCommit(harness.CommitRun{
					N: n, K: 4, Seed: seed,
					Adversary: &adversary.Crash{Inner: &adversary.RoundRobin{}, Plan: plan},
				})
				if err != nil || !res.AllNonfaultyDecided() {
					b.Fatalf("run failed: %v", err)
				}
				if trace.CheckAgreement(res.Outcomes()) != nil {
					b.Fatal("agreement violated")
				}
			}
		})
	}
}

// BenchmarkE5AbortValidity measures abort-path decisions under chaos (the
// Abort Validity condition holds in every run).
func BenchmarkE5AbortValidity(b *testing.B) {
	n := 7
	for i := 0; i < b.N; i++ {
		seed := uint64(i)*53 + 1
		votes := harness.AllVotes(n, types.V1)
		votes[int(seed)%n] = types.V0
		res, _, err := harness.RunCommit(harness.CommitRun{
			N: n, K: 4, Seed: seed, Votes: votes,
			Adversary: &adversary.Random{Rand: rng.NewStream(seed ^ 0xE5)},
		})
		if err != nil || !res.AllNonfaultyDecided() {
			b.Fatalf("run failed: %v", err)
		}
		if trace.CheckAbortValidity(votes, res.Outcomes()) != nil {
			b.Fatal("abort validity violated")
		}
	}
}

// BenchmarkE6CommitValidity8K measures decision clock ticks in the
// failure-free on-time regime (Remark 1: within 8K).
func BenchmarkE6CommitValidity8K(b *testing.B) {
	for _, k := range []int{2, 8} {
		b.Run(benchName("K", k), func(b *testing.B) {
			totalTicks := 0
			for i := 0; i < b.N; i++ {
				res, _, err := harness.RunCommit(harness.CommitRun{
					N: 9, K: k, Seed: uint64(i) * 101,
				})
				if err != nil || !res.AllNonfaultyDecided() {
					b.Fatalf("run failed: %v", err)
				}
				c := res.MaxDecidedClock()
				if c > 8*k {
					b.Fatalf("decision at %d ticks exceeds 8K=%d", c, 8*k)
				}
				totalTicks += c
			}
			b.ReportMetric(float64(totalTicks)/float64(b.N), "ticks/decision")
		})
	}
}

// BenchmarkE7BaselineComparison measures the three protocols under the
// same late-message attack; the wrong/blocked metrics echo E7's table.
func BenchmarkE7BaselineComparison(b *testing.B) {
	n, k := 5, 2
	lateAdv := func() sim.Adversary {
		return &adversary.TargetedLate{
			Inner: &adversary.RoundRobin{},
			Plan:  []adversary.LatePlan{{From: 0, To: 2, SkipFirst: 1, HoldUntilClock: 300}},
		}
	}
	b.Run("2pc-timeout", func(b *testing.B) {
		wrong := 0
		for i := 0; i < b.N; i++ {
			ms := make([]types.Machine, n)
			for j := 0; j < n; j++ {
				m, err := twopc.New(twopc.Config{
					ID: types.ProcID(j), N: n, K: k, Vote: types.V1,
					Policy: twopc.PolicyTimeoutAbort,
				})
				if err != nil {
					b.Fatal(err)
				}
				ms[j] = m
			}
			res, err := sim.Run(sim.Config{
				K: k, Machines: ms, Adversary: lateAdv(),
				Seeds: rng.NewCollection(uint64(i), n), MaxSteps: 20_000,
			})
			if err != nil {
				b.Fatal(err)
			}
			if trace.CheckAgreement(res.Outcomes()) != nil {
				wrong++
			}
		}
		b.ReportMetric(float64(wrong)/float64(b.N), "inconsistent/run")
	})
	b.Run("protocol2", func(b *testing.B) {
		wrong := 0
		for i := 0; i < b.N; i++ {
			res, _, err := harness.RunCommit(harness.CommitRun{
				N: n, K: k, Seed: uint64(i), Adversary: lateAdv(), MaxSteps: 60_000,
			})
			if err != nil || !res.AllNonfaultyDecided() {
				b.Fatalf("run failed: %v", err)
			}
			if trace.CheckAgreement(res.Outcomes()) != nil {
				wrong++
			}
		}
		b.ReportMetric(float64(wrong)/float64(b.N), "inconsistent/run")
	})
}

// BenchmarkE8LowerBoundProcessors runs the Theorem 14 blocking
// demonstration (n = 2t blocks; n = 2t+1 decides).
func BenchmarkE8LowerBoundProcessors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := lowerboundDemo(uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		if !res.EvenBlocked || res.EvenConflict || !res.OddDecided {
			b.Fatalf("Theorem 14 shape failed: %+v", res)
		}
	}
}

// BenchmarkE9DelayScaling measures decision ticks as the adversary delay
// bound D grows (Theorem 17: grows without bound).
func BenchmarkE9DelayScaling(b *testing.B) {
	for _, d := range []int{2, 8, 32} {
		b.Run(benchName("D", d), func(b *testing.B) {
			totalTicks := 0
			for i := 0; i < b.N; i++ {
				res, _, err := harness.RunCommit(harness.CommitRun{
					N: 5, K: 2, Seed: uint64(i)*29 + uint64(d), MaxSteps: 500_000,
					Adversary: &adversary.BoundedDelay{D: d},
				})
				if err != nil || !res.AllNonfaultyDecided() {
					b.Fatalf("run failed: %v", err)
				}
				totalTicks += res.MaxDecidedClock()
			}
			b.ReportMetric(float64(totalTicks)/float64(b.N), "ticks/decision")
		})
	}
}

// BenchmarkE10ExtraCoins measures Protocol 1 stage counts as the
// coordinator flips c*n coins (Remark 3: approaches 3).
func BenchmarkE10ExtraCoins(b *testing.B) {
	for _, c := range []int{1, 4} {
		b.Run(benchName("c", c), func(b *testing.B) {
			totalStages := 0
			for i := 0; i < b.N; i++ {
				seed := uint64(i)*997 + uint64(c)
				res, commits, err := harness.RunCommit(harness.CommitRun{
					N: 7, K: 4, Seed: seed, CoinFactor: c,
					Adversary: &adversary.Random{Rand: rng.NewStream(seed ^ 0xE10)},
				})
				if err != nil || !res.AllNonfaultyDecided() {
					b.Fatalf("run failed: %v", err)
				}
				for _, cm := range commits {
					if ag := cm.Agreement(); ag != nil && ag.DecidedStage() > 0 {
						totalStages += ag.DecidedStage()
						break
					}
				}
			}
			b.ReportMetric(float64(totalStages)/float64(b.N), "stages/decision")
		})
	}
}

// BenchmarkE11MessageComplexity measures messages per decision for each
// protocol in the failure-free regime.
func BenchmarkE11MessageComplexity(b *testing.B) {
	n := 9
	b.Run("protocol2", func(b *testing.B) {
		total := 0
		for i := 0; i < b.N; i++ {
			res, _, err := harness.RunCommit(harness.CommitRun{N: n, Seed: uint64(i), Record: true})
			if err != nil {
				b.Fatal(err)
			}
			total += res.Trace.Stats().Sent
		}
		b.ReportMetric(float64(total)/float64(b.N), "msgs/decision")
	})
	b.Run("2pc", func(b *testing.B) {
		total := 0
		for i := 0; i < b.N; i++ {
			ms := make([]types.Machine, n)
			for j := 0; j < n; j++ {
				m, err := twopc.New(twopc.Config{ID: types.ProcID(j), N: n, K: 4, Vote: types.V1})
				if err != nil {
					b.Fatal(err)
				}
				ms[j] = m
			}
			res, err := sim.Run(sim.Config{
				K: 4, Machines: ms, Adversary: &adversary.RoundRobin{},
				Seeds: rng.NewCollection(uint64(i), n), Record: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			total += res.Trace.Stats().Sent
		}
		b.ReportMetric(float64(total)/float64(b.N), "msgs/decision")
	})
}

// BenchmarkE12RoundDefinition measures the round analyzer itself on the
// degenerate lockstep scenario of §2.2.
func BenchmarkE12RoundDefinition(b *testing.B) {
	tr := harness.BeaconTrace(9, 4, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an, err := rounds.Analyze(tr, 0)
		if err != nil {
			b.Fatal(err)
		}
		if an.EndClock[0][7] != 8*4 {
			b.Fatalf("round boundary wrong: %d", an.EndClock[0][7])
		}
	}
}

// BenchmarkE14ServiceThroughput measures sustained commit throughput of
// the client-facing service over a live in-process cluster: each
// iteration submits one transaction through the full admission → batch →
// dispatch → decide → notify path, with heavily parallel clients keeping
// the batcher busy. Each dispatch batch is decided by ONE agreement
// instance, so the decision rate is (batch occupancy) × (instance rate).
// Reports end-to-end txns/sec.
func BenchmarkE14ServiceThroughput(b *testing.B) {
	for _, n := range []int{3, 5} {
		b.Run(benchName("n", n), func(b *testing.B) {
			svc, err := tcommit.Serve(tcommit.ServiceConfig{
				N: n, K: 3, Seed: 0xE14,
				TickEvery:      200 * time.Microsecond,
				BatchMax:       128,
				MaxInFlight:    4096,
				QueueDepth:     8192,
				DefaultTimeout: time.Minute,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				if err := svc.Close(ctx); err != nil {
					b.Error(err)
				}
			}()
			// Far more clients than GOMAXPROCS: batch occupancy — not
			// client count — is what the batched mode converts into
			// throughput, so the offered load must keep BatchMax-sized
			// batches available at every dispatch. The pool is spawned
			// and parked on a gate before the timer starts; the timed
			// window holds only submissions, so small b.N measures one
			// full batch, not goroutine startup.
			const clients = 256
			var remaining atomic.Int64
			remaining.Store(int64(b.N))
			gate := make(chan struct{})
			var wg sync.WaitGroup
			var benchErr atomic.Value
			for w := 0; w < clients; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-gate
					for remaining.Add(-1) >= 0 {
						res, err := svc.Submit(context.Background(), tcommit.CommitRequest{})
						if err != nil {
							benchErr.CompareAndSwap(nil, err)
							return
						}
						if res.State != service.StateCommit {
							benchErr.CompareAndSwap(nil, fmt.Errorf("resolved %+v", res))
							return
						}
					}
				}()
			}
			b.ResetTimer()
			start := time.Now()
			close(gate)
			wg.Wait()
			b.StopTimer()
			if err, ok := benchErr.Load().(error); ok {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "txns/sec")
		})
	}
}

// BenchmarkE15BatchedManagerDecide measures the manager-level batched
// agreement path with no wall-clock pacing: one iteration spawns a
// 64-transaction batch across three sharded managers and steps the
// simulator until every member is decided on every node. CPU-bound and
// deterministic, this is the stable regression gate for the batch
// machinery — E14 exercises the same path end-to-end but is
// tick-latency-bound, so its numbers move with the host's timer
// resolution rather than with code changes.
func BenchmarkE15BatchedManagerDecide(b *testing.B) {
	const n, width = 3, 64
	ids := make([]txn.ID, width)
	abortVoted := make(map[txn.ID]bool, width)
	own := make([]bool, width)
	for i := range ids {
		ids[i] = txn.ID(benchName("btx", i))
		abortVoted[ids[i]] = i%8 == 7 // node 1 dissents on every 8th member
		own[i] = true
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		managers := make([]*txn.Manager, n)
		machines := make([]types.Machine, n)
		for p := 0; p < n; p++ {
			p := p
			mgr, err := txn.NewManager(txn.Config{
				ID: types.ProcID(p), N: n, K: 3, InboxShards: 8,
				Vote: func(id txn.ID) bool { return p != 1 || !abortVoted[id] },
			})
			if err != nil {
				b.Fatal(err)
			}
			managers[p] = mgr
			machines[p] = mgr
		}
		if err := managers[0].BeginBatch("bench-batch", ids, own); err != nil {
			b.Fatal(err)
		}
		// One fixed seed for every iteration: the coin-flip schedule is
		// identical run to run, so ns/op moves only when the code does —
		// exactly what a CI regression gate needs. (Per-iteration seeds
		// would fold the heavy tail of randomized agreement into the
		// mean and flake the gate.)
		_, err := sim.Run(sim.Config{
			K: 3, Machines: machines, Adversary: &adversary.RoundRobin{},
			Seeds:    rng.NewCollection(0xE15, n),
			MaxSteps: 100_000,
			StopWhen: func(*sim.Result) bool {
				for _, mgr := range managers {
					for _, id := range ids {
						if _, ok := mgr.DecisionOf(id); !ok {
							return false
						}
					}
				}
				return true
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, mgr := range managers {
			if d, ok := mgr.DecisionOf(ids[7]); !ok || d != types.DecisionAbort {
				b.Fatalf("node %d: abort-voted member decided (%v,%v)", mgr.ID(), d, ok)
			}
		}
	}
	b.ReportMetric(width, "txns/batch")
}

// BenchmarkShardedServiceThroughput measures the sharded coordinator's
// sustained decision rate: independent commit groups behind the
// consistent-hash router, driven by GOMAXPROCS-parallel clients. The
// shards=4/cross=0 case is the scale-out claim — four groups must beat
// one group by well over 2× because the groups pipeline independently —
// while cross=20 prices the two-layer commit-of-commits (every fifth
// transaction spans two groups). Reports end-to-end txns/sec.
func BenchmarkShardedServiceThroughput(b *testing.B) {
	cases := []struct {
		shards   int
		crossPct int
	}{
		{1, 0},
		{4, 0},
		{4, 20},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(benchName("shards", tc.shards)+"/"+benchName("cross", tc.crossPct), func(b *testing.B) {
			// Each group's admission cap is the scarce resource: with far
			// more clients than one group can hold in flight, aggregate
			// throughput is (groups × MaxInFlight) / decision latency, so
			// shard count — not client count — sets the ceiling. The cap
			// is deliberately small relative to what one core can decide,
			// keeping every configuration tick-latency-bound rather than
			// CPU-bound (so the comparison measures capacity, not
			// scheduler contention — and stays meaningful on 1-core CI).
			coord, err := shard.New(shard.Config{
				Shards: tc.shards,
				Group: service.Config{
					N: 3, K: 3, Seed: 0x54a4d,
					TickEvery:      500 * time.Microsecond,
					MaxInFlight:    4,
					QueueDepth:     4096,
					DefaultTimeout: time.Minute,
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				if err := coord.Close(ctx); err != nil {
					b.Error(err)
				}
			}()
			// One deterministic key per shard for the cross-shard pairs;
			// keyless submissions route by their auto-generated id, which
			// spreads uniformly on its own.
			shardKey := make([]string, tc.shards)
			for s := range shardKey {
				for j := 0; ; j++ {
					k := "bench-" + itoa(s) + "-" + itoa(j)
					if coord.Router().Route(k) == s {
						shardKey[s] = k
						break
					}
				}
			}
			var seq atomic.Uint64
			if par := 128 / runtime.GOMAXPROCS(0); par > 1 {
				b.SetParallelism(par) // ~128 clients regardless of core count
			}
			start := time.Now()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					var req shard.Request
					if tc.crossPct > 0 {
						i := seq.Add(1)
						if i%100 < uint64(tc.crossPct) {
							a := int(i) % tc.shards
							req.Keys = []string{shardKey[a], shardKey[(a+1)%tc.shards]}
						}
					}
					res, err := coord.Submit(context.Background(), req)
					if err != nil {
						b.Fatal(err)
					}
					// Under admission pressure a late-dispatched instance may
					// abort (the protocol's on-time requirement) — still a
					// decision. Only indecision fails the benchmark.
					if res.State != service.StateCommit && res.State != service.StateAbort {
						b.Fatalf("resolved %+v", res)
					}
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "txns/sec")
		})
	}
}

func lowerboundDemo(seed uint64) (*lowerbound.Theorem14Result, error) {
	return lowerbound.Theorem14Demo(1, seed, 10_000)
}

func benchName(label string, v int) string {
	return label + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
