package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/explore"
)

// runCheck systematically checks the commit protocol's safety over whole
// execution families (internal/explore):
//
//	lab check -mode sweep -n 5 -max-crashed 2 -horizon 4
//	    exhaustively enumerates crash schedules (victim sets × crash
//	    clocks) and audits every run against the §2.4 conditions.
//
//	lab check -mode bfs -n 2 -depth 12
//	    bounded breadth-first search over canonical scheduler choices,
//	    memoized by configuration fingerprint, auditing every reachable
//	    configuration.
//
//	lab check -mode valency -n 2 -depth 14
//	    classifies reachable configurations by valency (which decision
//	    values remain reachable), machine-checking the Lemma 15 structure:
//	    all-commit initial configurations are bivalent; an abort vote
//	    makes the system {0}-valent.
func runCheck(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("lab check", flag.ContinueOnError)
	var (
		mode       = fs.String("mode", "sweep", "sweep | bfs | valency")
		n          = fs.Int("n", 3, "number of processors")
		k          = fs.Int("k", 2, "timing constant K")
		votesStr   = fs.String("votes", "", "vote string, e.g. 101 (default all commit)")
		seed       = fs.Uint64("seed", 1, "seed")
		maxCrashed = fs.Int("max-crashed", 0, "sweep: max victims (default t)")
		horizon    = fs.Int("horizon", 5, "sweep: crash clock horizon")
		depth      = fs.Int("depth", 10, "bfs/valency: action depth bound")
		maxStates  = fs.Int("max-states", 20000, "bfs/valency: state cap")
		workers    = fs.Int("workers", 0, "bfs: goroutines per level (0 = GOMAXPROCS, <0 = serial); result is identical at any setting")
	)
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}
	votes, err := parseVotes(*votesStr, *n)
	if err != nil {
		return err
	}
	faults := (*n - 1) / 2
	factory := core.Factory(core.Config{N: *n, T: faults, K: *k, Gadget: true}, votes)
	start := time.Now()

	switch *mode {
	case "sweep":
		mc := *maxCrashed
		if mc == 0 {
			mc = faults
		}
		res, err := explore.CrashSweep(explore.CrashSweepConfig{
			Factory: factory, N: *n, K: *k, Seed: *seed, Votes: votes,
			MaxCrashed: mc, ClockHorizon: *horizon,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "crash sweep: %d schedules in %v\n", res.Runs, time.Since(start).Round(time.Millisecond))
		fmt.Fprintf(stdout, "  decided: %d  blocked: %d\n", res.Decided, res.Blocked)
		fmt.Fprintf(stdout, "  conflicts: %d  validity violations: %d\n", res.Conflicts, res.Violations)
		if res.FirstViolation != "" {
			fmt.Fprintf(stdout, "  FIRST VIOLATION: %s\n", res.FirstViolation)
			return fmt.Errorf("safety violated")
		}
		fmt.Fprintln(stdout, "  every schedule within bounds is safe")
	case "bfs":
		res, err := explore.Explore(explore.ExploreConfig{
			Factory: factory, N: *n, K: *k, Seed: *seed, Votes: votes,
			MaxDepth: *depth, MaxStates: *maxStates, Workers: *workers,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "bfs: %d configurations (%d with decisions) in %v, truncated=%v\n",
			res.StatesVisited, res.DecidedStates, time.Since(start).Round(time.Millisecond), res.Truncated)
		if res.Violation != "" {
			fmt.Fprintf(stdout, "  VIOLATION: %s\n  path: %v\n", res.Violation, res.ViolationPath)
			return fmt.Errorf("safety violated")
		}
		fmt.Fprintln(stdout, "  every reachable configuration within bounds is safe")
	case "valency":
		res, err := explore.Valency(explore.ExploreConfig{
			Factory: factory, N: *n, K: *k, Seed: *seed, Votes: votes,
			MaxDepth: *depth, MaxStates: *maxStates,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "valency: %d configurations in %v, truncated=%v\n",
			res.StatesVisited, time.Since(start).Round(time.Millisecond), res.Truncated)
		fmt.Fprintf(stdout, "  commit reachable: %v  abort reachable: %v\n", res.Reachable1, res.Reachable0)
		fmt.Fprintf(stdout, "  bivalent configurations: %d  univalent: %d\n", res.BivalentStates, res.UnivalentStates)
		if res.Bivalent() {
			fmt.Fprintln(stdout, "  initial configuration is BIVALENT (the Lemma 15 structure)")
		} else {
			fmt.Fprintln(stdout, "  initial configuration is univalent within bounds")
		}
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	return nil
}
