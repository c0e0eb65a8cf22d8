// Command lab is the paper's evaluation bench: build n machines, hand
// them to an adversary, tabulate what they decided. Every protocol name
// resolves through internal/protocol's one table.
//
//	lab sim          one protocol under the formal-model simulator and a
//	                 named adversary
//	lab experiments  the paper-reproduction tables of DESIGN.md §3
//	lab arena        2PC, 3PC, Paxos Commit and Protocol 2 raced under
//	                 identical seeded chaos plans, audited
//	lab check        exhaustive safety checks over whole execution
//	                 families (crash sweep, bounded BFS, valency)
//
// `lab <subcommand> -h` lists a subcommand's flags. An unknown
// subcommand or flag exits 2 with the usage text; a failed run, a failed
// shape check or a wrong answer exits 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/types"
)

const usageText = `usage:
  lab sim [flags]           simulate one protocol under a named adversary
  lab experiments [flags]   regenerate the paper-reproduction tables
  lab arena [flags]         race the four commit protocols under identical faults
  lab check [flags]         model-check Protocol 2 (-mode sweep|bfs|valency)
`

var subcommands = map[string]func(args []string, stdout, stderr io.Writer) error{
	"sim":         runSim,
	"experiments": runExperiments,
	"arena":       runArena,
	"check":       runCheck,
}

func main() {
	os.Exit(dispatch(os.Args[1:], os.Stdout, os.Stderr))
}

// usageError marks a command line the flag package refused.
type usageError struct{ error }

func dispatch(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(stderr, usageText)
		return 2
	}
	run, ok := subcommands[args[0]]
	if !ok {
		fmt.Fprintf(stderr, "lab: unknown subcommand %q\n%s", args[0], usageText)
		return 2
	}
	err := run(args[1:], stdout, stderr)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, new(usageError)):
		fmt.Fprint(stderr, usageText)
		return 2
	default:
		fmt.Fprintf(stderr, "lab %s: %v\n", args[0], err)
		return 1
	}
}

// parseFlags parses one subcommand's flags; the flag package has already
// written its complaint and the flag list to stderr when it fails.
func parseFlags(fs *flag.FlagSet, args []string, stderr io.Writer) error {
	fs.SetOutput(stderr)
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return usageError{err}
	}
	return err
}

// parseVotes reads a vote string such as 11011 (1 = commit); the empty
// string means all n processors vote commit.
func parseVotes(s string, n int) ([]types.Value, error) {
	if n < 1 {
		return nil, fmt.Errorf("-n must be >= 1, got %d", n)
	}
	votes := make([]types.Value, n)
	if s == "" {
		for i := range votes {
			votes[i] = types.V1
		}
		return votes, nil
	}
	if len(s) != n {
		return nil, fmt.Errorf("votes %q has %d entries for n=%d", s, len(s), n)
	}
	for i, c := range s {
		switch c {
		case '1':
			votes[i] = types.V1
		case '0':
		default:
			return nil, fmt.Errorf("votes must be 0/1, got %q", c)
		}
	}
	return votes, nil
}
