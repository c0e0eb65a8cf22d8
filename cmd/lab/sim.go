package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/adversary"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/rounds"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/types"
)

// runSim runs one protocol from the name table under the formal-model
// simulator with a configurable adversary and prints the outcome.
//
//	lab sim -n 5                          # Protocol 2, all-commit, on-time network
//	lab sim -n 5 -votes 11011             # processor 2 votes abort
//	lab sim -n 7 -crash 5@2,6@0           # two crash faults
//	lab sim -n 5 -adversary random -runs 20
//	lab sim -n 5 -adversary delay:16 -k 2
//	lab sim -n 5 -partition 0,0,1,1,1@150
//	lab sim -n 5 -k 2 -protocol 2pc-timeout -adversary late   # reproduce the E7 inconsistency
//	lab sim -n 7 -protocol benor -adversary random
//
// For protocol2 an agreement violation is this repository's bug and
// fails the run; for the comparison protocols it is the finding, printed
// as the closing verdict line.
func runSim(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("lab sim", flag.ContinueOnError)
	var (
		n         = fs.Int("n", 5, "number of processors")
		k         = fs.Int("k", 4, "timing constant K (clock ticks)")
		faults    = fs.Int("t", 0, "fault tolerance t (default (n-1)/2)")
		votesStr  = fs.String("votes", "", "vote string, e.g. 11011 (default all commit)")
		seed      = fs.Uint64("seed", 1, "master seed")
		runs      = fs.Int("runs", 1, "number of seeded runs")
		advName   = fs.String("adversary", "roundrobin", "roundrobin | random | delay:D | late")
		crashStr  = fs.String("crash", "", "crash plan p@clock[,p@clock...]")
		partition = fs.String("partition", "", "partition groups g0,g1,...@healEvent (heal -1: never)")
		budget    = fs.Int("budget", 0, "step budget (0: default)")
		coins     = fs.Int("coins", 1, "coin factor c (protocol2, p1: c*n shared coins)")
		verbose   = fs.Bool("v", false, "per-processor detail")
		traceFile = fs.String("tracefile", "", "write the (last) run's trace as JSON for cmd/tracedump")
		protoName = fs.String("protocol", "protocol2", protocol.Names())
	)
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}

	p, err := protocol.ByName(*protoName)
	if err != nil {
		return err
	}
	if *coins != 1 && !p.TakesCoins() {
		return fmt.Errorf("-coins applies to protocol2 and p1 only; %s shares no coins", p.Name())
	}
	votes, err := parseVotes(*votesStr, *n)
	if err != nil {
		return err
	}
	newAdversary, err := parseAdversary(*advName, *crashStr, *partition, *n, *seed)
	if err != nil {
		return err
	}
	if *faults == 0 {
		*faults = (*n - 1) / 2
	}
	subject := p.Name() == "protocol2"

	var last *sim.Result
	committed, aborted, blocked, inconsistent := 0, 0, 0, 0
	verdict := "consistent: all nonfaulty processors agree"
	for r := 0; r < *runs; r++ {
		res, _, err := p.Run(protocol.Instance{
			N: *n, T: *faults, K: *k, Votes: votes, CoinFactor: *coins, Seed: *seed + uint64(r),
		}, newAdversary(), *budget)
		if err != nil {
			return err
		}
		last = res

		split := trace.CheckAgreement(res.Outcomes())
		stuck := !res.AllNonfaultyDecided()
		switch {
		case split != nil && subject:
			return fmt.Errorf("internal protocol violation: %w", split)
		case split != nil:
			if inconsistent == 0 {
				verdict = fmt.Sprintf("AGREEMENT VIOLATED: %v", split)
			}
			inconsistent++
		case stuck:
			if inconsistent == 0 {
				verdict = "blocked: some nonfaulty processor never decided"
			}
			blocked++
		default:
			for q := range res.Decided {
				if res.Decided[q] {
					if res.Values[q] == types.V1 {
						committed++
					} else {
						aborted++
					}
					break
				}
			}
		}
		if *runs == 1 || *verbose {
			printRun(stdout, r, res, stuck)
		}
	}

	fmt.Fprintf(stdout, "summary: %d/%d commit, %d abort, %d blocked", committed, *runs, aborted, blocked)
	if inconsistent > 0 {
		fmt.Fprintf(stdout, ", %d inconsistent", inconsistent)
	}
	fmt.Fprintln(stdout)
	if !subject {
		fmt.Fprintln(stdout, verdict)
	}

	if *traceFile == "" || last == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := last.Trace.WriteJSON(&buf); err != nil {
		return err
	}
	return os.WriteFile(*traceFile, buf.Bytes(), 0o644)
}

// printRun prints one run: the scheduler's counters, the asynchronous
// round by which the last nonfaulty processor decided (0 if blocked), and
// every processor's outcome.
func printRun(w io.Writer, r int, res *sim.Result, stuck bool) {
	round := 0
	if !stuck {
		if an, err := rounds.Analyze(res.Trace, 0); err == nil {
			round, _ = an.DecisionRound(res.DecidedClock)
		}
	}
	fmt.Fprintf(w, "run %d: steps=%d msgs=%d onTime=%v rounds=%d maxClock=%d\n",
		r, res.Steps, res.Trace.Stats().Sent, res.Trace.OnTime(), round, res.MaxDecidedClock())
	for q := range res.Decided {
		status := "undecided"
		if res.Decided[q] {
			status = types.DecisionOf(res.Values[q]).String()
		}
		if res.Crashed[q] {
			status += " (crashed)"
		}
		fmt.Fprintf(w, "  processor %d: %s\n", q, status)
	}
}

// parseAdversary is the one parser of -adversary, -crash and -partition.
// Adversaries carry scheduling state, so it returns a constructor: every
// seeded run gets a fresh one, all seeded alike.
func parseAdversary(name, crash, partition string, n int, seed uint64) (func() sim.Adversary, error) {
	var base func() sim.Adversary
	switch {
	case name == "roundrobin" || name == "":
		base = func() sim.Adversary { return &adversary.RoundRobin{} }
	case name == "random":
		base = func() sim.Adversary { return &adversary.Random{Rand: rng.NewStream(seed ^ 0x5EED)} }
	case strings.HasPrefix(name, "delay:"):
		d, err := strconv.Atoi(strings.TrimPrefix(name, "delay:"))
		if err != nil || d < 1 {
			return nil, fmt.Errorf("bad delay adversary %q", name)
		}
		base = func() sim.Adversary { return &adversary.BoundedDelay{D: d} }
	case name == "late":
		// The E7 attack shape: the coordinator's second message to
		// processor 2 arrives long after every timeout.
		base = func() sim.Adversary {
			return &adversary.TargetedLate{
				Inner: &adversary.RoundRobin{},
				Plan:  []adversary.LatePlan{{From: 0, To: 2, SkipFirst: 1, HoldUntilClock: 300}},
			}
		}
	default:
		return nil, fmt.Errorf("unknown adversary %q (want roundrobin|random|delay:D|late)", name)
	}

	var crashes []adversary.CrashPlan
	if crash != "" {
		for _, part := range strings.Split(crash, ",") {
			proc, clock, ok := strings.Cut(part, "@")
			p, err1 := strconv.Atoi(proc)
			c, err2 := strconv.Atoi(clock)
			if !ok || err1 != nil || err2 != nil {
				return nil, fmt.Errorf("bad crash entry %q (want p@clock)", part)
			}
			if p < 0 || p >= n {
				return nil, fmt.Errorf("crash entry %q names processor %d of %d", part, p, n)
			}
			crashes = append(crashes, adversary.CrashPlan{Proc: types.ProcID(p), AtClock: c})
		}
	}

	var groups []int
	heal := 0
	if partition != "" {
		list, at, ok := strings.Cut(partition, "@")
		if !ok {
			return nil, fmt.Errorf("bad partition %q (want g0,g1,...@heal)", partition)
		}
		for _, g := range strings.Split(list, ",") {
			v, err := strconv.Atoi(g)
			if err != nil {
				return nil, fmt.Errorf("bad partition group %q", g)
			}
			groups = append(groups, v)
		}
		if len(groups) != n {
			return nil, fmt.Errorf("partition %q assigns %d processors, n=%d", partition, len(groups), n)
		}
		var err error
		if heal, err = strconv.Atoi(at); err != nil {
			return nil, fmt.Errorf("bad heal event %q", at)
		}
	}

	return func() sim.Adversary {
		adv := base()
		if groups != nil {
			adv = &adversary.Partition{Inner: adv, GroupOf: groups, HealEvent: heal}
		}
		if len(crashes) > 0 {
			adv = &adversary.Crash{Inner: adv, Plan: crashes}
		}
		return adv
	}, nil
}
