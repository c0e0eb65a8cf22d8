package harness

import (
	"fmt"
	"strings"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/lowerbound"
	"repro/internal/rng"
	"repro/internal/rounds"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/types"
)

// E7BaselineComparison reproduces the §1 comparison with Skeen [S] and
// Dwork–Skeen [DS]: one late message makes 2PC (timeout policy) and 3PC
// decide inconsistently, while Protocol 2 under the very same lateness
// pattern converts it into a safe unanimous outcome. The blocking variant
// of 2PC is also measured under a coordinator crash.
func E7BaselineComparison(opt Options) (*Report, error) {
	n, k := 5, 2
	runs := opt.runs(25)
	tbl := stats.NewTable("protocol", "scenario", "inconsistent", "blocked", "consistent")
	pass := true

	late := func() sim.Adversary {
		return &adversary.TargetedLate{
			Inner: &adversary.RoundRobin{},
			Plan:  []adversary.LatePlan{{From: 0, To: 2, SkipFirst: 1, HoldUntilClock: 300}},
		}
	}
	// proto is the table's label; name resolves through the one name table
	// (the table's "2pc-blocking" is what every command line calls 2pc).
	scenarios := []struct {
		proto, name, scenario string
		adv                   func() sim.Adversary
		maxSteps              int
	}{
		{"2pc-timeout", "2pc-timeout", "late outcome msg", late, 20_000},
		{"2pc-blocking", "2pc", "coordinator crash", coordinatorCrash, 5_000},
		{"3pc", "3pc", "late precommit msg", late, 20_000},
		{"protocol2", "protocol2", "late outcome msg", late, 60_000},
		{"protocol2", "protocol2", "coordinator crash", coordinatorCrash, 60_000},
	}

	for _, sc := range scenarios {
		sc := sc
		// 0 = consistent, 1 = blocked, 2 = inconsistent.
		verdicts, err := sweep(opt, runs, func(r int) (int, error) {
			res, err := runNamed(sc.name, n, k, nil, opt.Seed+uint64(r)*53, sc.adv(), sc.maxSteps)
			if err != nil {
				return 0, err
			}
			switch {
			case trace.CheckAgreement(res.Outcomes()) != nil:
				return 2, nil
			case !res.AllNonfaultyDecided():
				return 1, nil
			default:
				return 0, nil
			}
		})
		if err != nil {
			return nil, err
		}
		inconsistent, blocked, consistent := 0, 0, 0
		for _, v := range verdicts {
			switch v {
			case 2:
				inconsistent++
			case 1:
				blocked++
			default:
				consistent++
			}
		}
		tbl.AddRow(sc.proto, sc.scenario, inconsistent, blocked, consistent)
		isOurs := sc.proto == "protocol2"
		if isOurs && (inconsistent > 0 || blocked > 0) {
			pass = false
		}
		if sc.proto == "2pc-timeout" && inconsistent == 0 {
			pass = false // the baseline defect must reproduce
		}
		if sc.proto == "3pc" && inconsistent == 0 {
			pass = false
		}
		if sc.proto == "2pc-blocking" && blocked == 0 {
			pass = false
		}
	}
	return &Report{
		ID:    "E7",
		Title: "Baseline comparison: 2PC / 3PC vs Protocol 2 under identical faults",
		Claim: "§1: late messages cause [S]/[DS]-style protocols to answer wrongly (or block); Protocol 2 stays safe and live",
		Table: tbl,
		Pass:  pass,
	}, nil
}

// E8LowerBoundProcessors reproduces Theorem 14 constructively: at n = 2t a
// t-admissible crash pattern blocks the protocol forever (safely), while
// n = 2t+1 decides; plus machine-checks of the proof's schedule-surgery
// lemmas on the real protocol code.
func E8LowerBoundProcessors(opt Options) (*Report, error) {
	ts := []int{1, 2, 3}
	if opt.Quick {
		ts = []int{1, 2}
	}
	tbl := stats.NewTable("t", "n=2t blocked", "n=2t conflicts", "n=2t+1 decided")
	pass := true
	for _, tol := range ts {
		res, err := lowerbound.Theorem14Demo(tol, opt.Seed+uint64(tol), 30_000)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(tol, res.EvenBlocked, res.EvenConflict, res.OddDecided)
		if !res.EvenBlocked || res.EvenConflict || !res.OddDecided {
			pass = false
		}
	}
	notes := []string{}
	// Machine-check Lemmas 12/13 (the surgery steps of the proof) on the
	// real Protocol 2 machines.
	f := core.Factory(core.Config{N: 4, T: 1, K: 2, Gadget: true}, AllVotes(4, types.V1))
	s := map[types.ProcID]bool{0: true, 1: true}
	sched, err := lowerbound.GenerateIsolatedSchedule(f, opt.Seed, lowerbound.IsolatedScheduleOptions{Cycles: 10, S: s})
	if err != nil {
		return nil, err
	}
	if err := lowerbound.VerifyKillInvisibility(f, opt.Seed, s, sched); err != nil {
		pass = false
		notes = append(notes, "Lemma 13(a) check FAILED: "+err.Error())
	} else {
		notes = append(notes, "Lemma 13(a) kill-surgery machine-check passed on Protocol 2")
	}
	if err := lowerbound.VerifyDeafenInvisibility(f, opt.Seed, s, sched); err != nil {
		pass = false
		notes = append(notes, "Lemma 13(b) check FAILED: "+err.Error())
	} else {
		notes = append(notes, "Lemma 13(b) deafen-surgery machine-check passed on Protocol 2")
	}
	return &Report{
		ID:    "E8",
		Title: "Lower bound on processors (n > 2t is necessary)",
		Claim: "Theorem 14: no t-nonblocking transaction commit protocol exists when n <= 2t",
		Table: tbl,
		Notes: notes,
		Pass:  pass,
	}, nil
}

// E9DelayScaling reproduces Theorem 17's phenomenon: an adversary that
// delays every message D recipient-steps forces decision time to grow
// linearly in D, so no bounded expected clock-tick guarantee is possible.
func E9DelayScaling(opt Options) (*Report, error) {
	ds := []int{1, 2, 4, 8, 16, 32, 64}
	if opt.Quick {
		ds = []int{1, 4, 16}
	}
	runs := opt.runs(15)
	n, k := 5, 2
	tbl := stats.NewTable("D", "mean decision ticks", "ticks / D")
	pass := true
	var prev float64
	for _, d := range ds {
		d := d
		sample, err := sweep(opt, runs, func(r int) (float64, error) {
			seed := opt.Seed + uint64(r)*29 + uint64(d)
			res, _, err := RunCommit(CommitRun{
				N: n, K: k, Seed: seed, MaxSteps: 500_000,
				Adversary: &adversary.BoundedDelay{D: d},
			})
			if err != nil {
				return 0, err
			}
			if !res.AllNonfaultyDecided() {
				return 0, fmt.Errorf("E9: D=%d undecided", d)
			}
			return float64(res.MaxDecidedClock()), nil
		})
		if err != nil {
			return nil, err
		}
		m := stats.Mean(sample)
		tbl.AddRow(d, m, m/float64(d))
		if m < prev {
			pass = false
		}
		prev = m
	}
	return &Report{
		ID:    "E9",
		Title: "Decision time vs adversary delay bound D",
		Claim: "Theorem 17: no protocol terminates in a bounded expected number of clock ticks (decision time grows without bound in D)",
		Table: tbl,
		Pass:  pass,
	}, nil
}

// E10ExtraCoins reproduces Remark 3: a coordinator flipping c*n coins
// pushes the expected stage count toward 3 (and rounds toward 12).
func E10ExtraCoins(opt Options) (*Report, error) {
	n := 7
	cs := []int{1, 2, 4, 8}
	if opt.Quick {
		cs = []int{1, 4}
	}
	runs := opt.runs(60)
	tbl := stats.NewTable("coin factor", "coins", "mean stages", "fallback flips possible")
	pass := true
	for _, c := range cs {
		c := c
		sample, err := sweep(opt, runs, func(r int) (float64, error) {
			seed := opt.Seed + uint64(r)*997 + uint64(c)
			res, commits, err := RunCommit(CommitRun{
				N: n, K: 4, Seed: seed, CoinFactor: c,
				Adversary: &adversary.Random{Rand: rng.NewStream(seed ^ 0xE10)},
			})
			if err != nil {
				return 0, err
			}
			if !res.AllNonfaultyDecided() {
				return 0, fmt.Errorf("E10: c=%d undecided", c)
			}
			maxStage := 0
			for _, cm := range commits {
				if ag := cm.Agreement(); ag != nil && ag.DecidedStage() > maxStage {
					maxStage = ag.DecidedStage()
				}
			}
			return float64(maxStage), nil
		})
		if err != nil {
			return nil, err
		}
		s := stats.Summarize(sample)
		tbl.AddRow(c, c*n, s.Mean, s.Max > float64(c*n))
		if s.Mean >= 4 {
			pass = false
		}
	}
	return &Report{
		ID:    "E10",
		Title: "Coordinator coin count ablation (Remark 3)",
		Claim: "Remark 3: flipping more than n coins pushes the expected value of Lemma 8 toward 3 (and rounds toward 12)",
		Table: tbl,
		Pass:  pass,
	}, nil
}

// E11MessageComplexity compares message counts per decision across the
// protocols (§2.4 rules out flooding; this quantifies the actual traffic).
func E11MessageComplexity(opt Options) (*Report, error) {
	ns := []int{3, 5, 9, 13}
	if opt.Quick {
		ns = []int{3, 9}
	}
	runs := opt.runs(20)
	tbl := stats.NewTable("n", "protocol2", "p2 KiB", "protocol1", "ben-or", "2pc", "3pc")
	for _, n := range ns {
		n := n
		avg := func(name string, votes []types.Value, pick func(trace.MessageStats) float64) float64 {
			return avgTraceStat(opt, runs, func(r int) (*sim.Result, error) {
				return runNamed(name, n, 4, votes, opt.Seed+uint64(r), nil, 0)
			}, pick)
		}
		sent := func(s trace.MessageStats) float64 { return float64(s.Sent) }
		bits := func(s trace.MessageStats) float64 { return float64(s.TotalBits) }
		tbl.AddRow(n, avg("protocol2", nil, sent), avg("protocol2", nil, bits)/8192,
			avg("p1", SplitVotes(n), sent), avg("benor", SplitVotes(n), sent),
			avg("2pc", nil, sent), avg("3pc", nil, sent))
	}
	return &Report{
		ID:    "E11",
		Title: "Message complexity per decision (failure-free)",
		Claim: "§2.4: the protocol must not flood the message system; traffic is O(n^2) per stage like its peers' O(n) phases",
		Table: tbl,
		Notes: []string{"randomized quorum protocols trade O(n^2) traffic for asynchrony tolerance; 2PC/3PC are O(n) but timing-fragile (E7)"},
		Pass:  true,
	}, nil
}

// avgTraceStat averages a trace statistic over a seed sweep; failed or
// traceless runs are dropped from the sample (matching the serial
// behavior this replaced).
func avgTraceStat(opt Options, runs int, f func(r int) (*sim.Result, error), pick func(trace.MessageStats) float64) float64 {
	type point struct {
		v  float64
		ok bool
	}
	pts, err := sweep(opt, runs, func(r int) (point, error) {
		res, err := f(r)
		if err != nil || res.Trace == nil {
			return point{}, nil
		}
		return point{v: pick(res.Trace.Stats()), ok: true}, nil
	})
	if err != nil {
		return 0
	}
	var sample []float64
	for _, p := range pts {
		if p.ok {
			sample = append(sample, p.v)
		}
	}
	return stats.Mean(sample)
}

// E12RoundDefinition sanity-checks §2.2: under lockstep synchrony with
// round-start sends and delays exactly K, the asynchronous round
// boundaries coincide with synchronous rounds (end of round r at clock
// r*K).
func E12RoundDefinition(opt Options) (*Report, error) {
	ks := []int{1, 2, 4, 8}
	ns := []int{2, 5, 9}
	if opt.Quick {
		ks, ns = []int{2, 8}, []int{2, 5}
	}
	tbl := stats.NewTable("n", "K", "rounds checked", "boundaries exact")
	pass := true
	const numRounds = 8
	for _, n := range ns {
		for _, k := range ks {
			tr := buildBeaconTrace(n, k, numRounds)
			an, err := rounds.Analyze(tr, 0)
			if err != nil {
				return nil, err
			}
			exact := true
			for p := 0; p < n; p++ {
				for r := 1; r <= numRounds; r++ {
					if an.EndClock[p][r-1] != r*k {
						exact = false
					}
				}
			}
			tbl.AddRow(n, k, numRounds, exact)
			if !exact {
				pass = false
			}
		}
	}
	return &Report{
		ID:    "E12",
		Title: "Asynchronous rounds degenerate to synchronous rounds",
		Claim: "§2.2: with synchronized processors, round-start sends, and delays exactly K, the definition equals the standard synchronous round",
		Table: tbl,
		Pass:  pass,
	}, nil
}

// BeaconTrace synthesizes the §2.2 degenerate scenario as a trace: every
// processor broadcasts at each round's first tick; messages arrive at the
// recipients' round-end tick. Exported for the E12 bench.
func BeaconTrace(n, k, numRounds int) *trace.Trace {
	return buildBeaconTrace(n, k, numRounds)
}

// buildBeaconTrace synthesizes the §2.2 degenerate scenario as a trace:
// every processor broadcasts at each round's first tick; messages arrive
// at the recipients' round-end tick.
func buildBeaconTrace(n, k, numRounds int) *trace.Trace {
	tr := trace.New(n, k)
	seq := 0
	recvAt := make(map[[2]int][]int)
	for tick := 1; tick <= numRounds*k; tick++ {
		for p := 0; p < n; p++ {
			eventIdx := (tick-1)*n + p
			var sent []int
			if (tick-1)%k == 0 {
				for to := 0; to < n; to++ {
					tr.AddMsg(trace.MsgRecord{
						Seq: seq, From: types.ProcID(p), To: types.ProcID(to),
						Kind: "beacon", SentEvent: eventIdx, SentClock: tick,
					})
					rc := tick + k - 1
					recvAt[[2]int{rc, to}] = append(recvAt[[2]int{rc, to}], seq)
					sent = append(sent, seq)
					seq++
				}
			}
			delivered := recvAt[[2]int{tick, p}]
			tr.AddEvent(trace.Event{Proc: types.ProcID(p), ClockAfter: tick, Delivered: delivered, Sent: sent})
			for _, s := range delivered {
				tr.MarkDelivered(s, eventIdx, tick)
			}
		}
	}
	return tr
}

// experiments is the one experiment table, in report order (there is no
// E14: the service-throughput measurement it named is bench/'s job).
var experiments = []struct {
	id  string
	run func(Options) (*Report, error)
}{
	{"E1", E1ExpectedRounds}, {"E2", E2AgreementStages}, {"E3", E3SharedVsLocalCoins},
	{"E4", E4FaultSweep}, {"E5", E5AbortValidity}, {"E6", E6CommitValidity8K},
	{"E7", E7BaselineComparison}, {"E8", E8LowerBoundProcessors}, {"E9", E9DelayScaling},
	{"E10", E10ExtraCoins}, {"E11", E11MessageComplexity}, {"E12", E12RoundDefinition},
	{"E13", E13Recovery}, {"E15", E15Arena},
}

// All runs every experiment in order.
func All(opt Options) ([]*Report, error) {
	var out []*Report
	for _, e := range experiments {
		r, err := e.run(opt)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// ByID returns the experiment runner for an id like "E4".
func ByID(id string) (func(Options) (*Report, error), bool) {
	for _, e := range experiments {
		if e.id == id {
			return e.run, true
		}
	}
	return nil, false
}

// IDs lists the experiment ids in order, for help and error text.
func IDs() string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return strings.Join(ids, ",")
}
