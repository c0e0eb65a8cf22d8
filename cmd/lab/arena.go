package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/chaos"
	"repro/internal/protocol"
)

// runArena races the four commit protocols — 2PC, 3PC, Paxos Commit, and
// the paper's Protocol 2 — under identical seeded chaos plans and
// adversaries, audits every run, and prints the per-protocol comparison
// table (EXPERIMENTS.md "Protocol arena" chapter).
//
// The exit status is the audit verdict: nonzero if any protocol answered
// wrongly anywhere, or a nonblocking protocol (Paxos Commit, Protocol 2)
// failed to terminate on a t-admissible plan. 2PC/3PC blocking is
// reported but allowed — that is their documented failure mode.
//
//	lab arena -seeds 12 -shapes crash,lossy -advs rr,pareto
func runArena(args []string, w, stderr io.Writer) error {
	fs := flag.NewFlagSet("lab arena", flag.ContinueOnError)
	var (
		n        = fs.Int("n", 5, "processors per run")
		k        = fs.Int("k", 12, "timing constant K")
		seeds    = fs.Int("seeds", 12, "plan seeds per shape")
		baseSeed = fs.Uint64("seed", 1, "first plan seed")
		shapes   = fs.String("shapes", "", "comma-separated chaos shapes (default all non-restart shapes)")
		advs     = fs.String("advs", "", "comma-separated adversaries: rr,exp,pareto,uniform (default rr,exp,pareto)")
		protos   = fs.String("protocols", "", "comma-separated protocols: 2pc,3pc,paxos,protocol2 (default all)")
		maxSteps = fs.Int("max-steps", 0, "per-run event budget (0 = default)")
		workers  = fs.Int("workers", 1, "parallel workers; results are identical at any setting")
		out      = fs.String("o", "", "write the table and audit log to this file")
	)
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}

	opts := protocol.Options{
		N: *n, K: *k, Seeds: *seeds, BaseSeed: *baseSeed,
		MaxSteps: *maxSteps, Workers: *workers,
	}
	if *shapes != "" {
		known := make(map[chaos.Shape]bool)
		for _, s := range chaos.Shapes() {
			known[s] = true
		}
		for _, s := range strings.Split(*shapes, ",") {
			shape := chaos.Shape(strings.TrimSpace(s))
			if !known[shape] {
				return fmt.Errorf("unknown shape %q", shape)
			}
			if shape == chaos.ShapeCrashRestart {
				return fmt.Errorf("shape %q is not supported at the formal-model level (no restart step)", shape)
			}
			opts.Shapes = append(opts.Shapes, shape)
		}
	}
	if *advs != "" {
		known := make(map[protocol.AdvKind]bool)
		for _, a := range protocol.AdvKinds() {
			known[a] = true
		}
		for _, a := range strings.Split(*advs, ",") {
			kind := protocol.AdvKind(strings.TrimSpace(a))
			if !known[kind] {
				return fmt.Errorf("unknown adversary %q", kind)
			}
			opts.Advs = append(opts.Advs, kind)
		}
	}
	if *protos != "" {
		for _, name := range strings.Split(*protos, ",") {
			p, err := protocol.ByName(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			if !p.SolvesCommit() {
				return fmt.Errorf("%s does not solve transaction commit; the arena races 2pc,3pc,paxos,protocol2", p.Name())
			}
			opts.Protocols = append(opts.Protocols, p)
		}
	}

	res, err := protocol.Sweep(opts)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, res.Table)
	lines := strings.Split(strings.TrimRight(res.Log, "\n"), "\n")
	fmt.Fprintln(w, lines[len(lines)-1]) // the summary line

	if *out != "" {
		var b strings.Builder
		b.WriteString(res.Table.String())
		b.WriteByte('\n')
		b.WriteString(res.Log)
		if err := os.WriteFile(*out, []byte(b.String()), 0o644); err != nil {
			return err
		}
		fmt.Fprintln(w, "wrote", *out)
	}

	if res.Wrong > 0 {
		return fmt.Errorf("%d wrong answers — the auditor failed", res.Wrong)
	}
	for _, p := range protocol.All() {
		if !p.MayBlock() && res.Blocked[p.Name()] > 0 {
			return fmt.Errorf("%s blocked %d times on t-admissible plans", p.Name(), res.Blocked[p.Name()])
		}
	}
	return nil
}
