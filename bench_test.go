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
	"testing"

	"repro/internal/adversary"
	"repro/internal/harness"
	"repro/internal/lowerbound"
	"repro/internal/rng"
	"repro/internal/rounds"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/twopc"
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
