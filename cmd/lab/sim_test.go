package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/protocol"
	"repro/internal/twopc"
	"repro/internal/types"
)

func TestSimDefaults(t *testing.T) {
	if err := lab(io.Discard, "sim", "-n", "5"); err != nil {
		t.Fatal(err)
	}
}

func TestSimWithVotesAndCrashes(t *testing.T) {
	if err := lab(io.Discard, "sim", "-n", "5", "-votes", "11011", "-crash", "4@2", "-runs", "3"); err != nil {
		t.Fatal(err)
	}
}

func TestSimAdversaries(t *testing.T) {
	for _, adv := range []string{"roundrobin", "random", "delay:6"} {
		if err := lab(io.Discard, "sim", "-n", "3", "-adversary", adv); err != nil {
			t.Fatalf("%s: %v", adv, err)
		}
	}
}

func TestSimPartition(t *testing.T) {
	if err := lab(io.Discard, "sim", "-n", "5", "-k", "2", "-partition", "0,0,1,1,1@150"); err != nil {
		t.Fatal(err)
	}
}

func TestSimTraceFile(t *testing.T) {
	// -tracefile applies to every protocol (the parent wrote it for
	// protocol2 only and dropped the flag on the baseline arm).
	for _, proto := range []string{"protocol2", "3pc"} {
		path := filepath.Join(t.TempDir(), "trace.json")
		if err := lab(io.Discard, "sim", "-n", "3", "-protocol", proto, "-tracefile", path); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil || fi.Size() == 0 {
			t.Fatalf("%s: trace file missing or empty: %v", proto, err)
		}
	}
}

func TestSimErrors(t *testing.T) {
	cases := [][]string{
		{"-n", "5", "-votes", "111"},          // vote length mismatch
		{"-n", "3", "-votes", "1x1"},          // bad vote char
		{"-n", "3", "-adversary", "unknown"},  // bad adversary
		{"-n", "3", "-adversary", "delay:x"},  // bad delay
		{"-n", "3", "-crash", "nope"},         // bad crash syntax
		{"-n", "3", "-crash", "a@b"},          // bad crash numbers
		{"-n", "3", "-crash", "7@1"},          // crash victim out of range (panicked at the parent)
		{"-n", "3", "-partition", "0,1"},      // missing heal
		{"-n", "3", "-partition", "0,x@5"},    // bad group
		{"-n", "3", "-partition", "0,1,0@zz"}, // bad heal
		{"-n", "5", "-partition", "0,1@5"},    // groups for 2 of 5 processors (panicked at the parent)
		{"-n", "4", "-t", "2"},                // n <= 2t
	}
	for _, args := range cases {
		if err := lab(io.Discard, append([]string{"sim"}, args...)...); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestParseVotes(t *testing.T) {
	votes, err := parseVotes("", 3)
	if err != nil || len(votes) != 3 || votes[0] != types.V1 {
		t.Fatalf("default votes: %v %v", votes, err)
	}
	votes, err = parseVotes("010", 3)
	if err != nil || votes[0] != types.V0 || votes[1] != types.V1 || votes[2] != types.V0 {
		t.Fatalf("parsed votes: %v %v", votes, err)
	}
}

func TestSimBaselines(t *testing.T) {
	for _, proto := range []string{"p1", "benor", "2pc-timeout", "2pc", "3pc", "paxos"} {
		if err := lab(io.Discard, "sim", "-n", "5", "-protocol", proto); err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
	}
}

func TestSimBaselineLateAttack(t *testing.T) {
	// The E7 attack through the CLI: must run cleanly (the inconsistency
	// is reported in the output, not as an error).
	for _, proto := range []string{"2pc-timeout", "3pc"} {
		var out strings.Builder
		if err := lab(&out, "sim", "-n", "5", "-k", "2", "-protocol", proto, "-adversary", "late"); err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if !strings.Contains(lastLine(out.String()), "AGREEMENT VIOLATED") {
			t.Errorf("%s under the late adversary did not split:\n%s", proto, out.String())
		}
	}
}

// One name, one protocol: 2pc is the blocking variant everywhere, so the
// late message can never split it; the simulator and the arena resolve
// the name through the same table row.
func TestTwoPCMeansBlockingEverywhere(t *testing.T) {
	var out strings.Builder
	if err := lab(&out, "sim", "-n", "5", "-k", "2", "-protocol", "2pc", "-adversary", "late"); err != nil {
		t.Fatal(err)
	}
	if last := lastLine(out.String()); !strings.HasPrefix(last, "consistent") && !strings.HasPrefix(last, "blocked") {
		t.Errorf("blocking 2PC ended %q", last)
	}

	votes, err := parseVotes("", 3)
	if err != nil {
		t.Fatal(err)
	}
	in := protocol.Instance{N: 3, T: 1, K: 2, Votes: votes}
	fromSim, err := protocol.ByName("2pc")
	if err != nil {
		t.Fatal(err)
	}
	var fromArena protocol.Protocol
	for _, p := range protocol.All() {
		if p.Name() == "2pc" {
			fromArena = p
		}
	}
	for _, p := range []protocol.Protocol{fromSim, fromArena} {
		machines, err := p.New(in)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range machines {
			if got := m.(*twopc.Machine).Policy(); got != twopc.PolicyBlock {
				t.Errorf("2pc machine %d built with policy %v, want PolicyBlock", m.ID(), got)
			}
		}
	}
}

func TestSimBaselineCrash(t *testing.T) {
	if err := lab(io.Discard, "sim", "-n", "5", "-protocol", "3pc", "-crash", "0@1"); err != nil {
		t.Fatal(err)
	}
}

func TestSimBaselineErrors(t *testing.T) {
	if err := lab(io.Discard, "sim", "-n", "3", "-protocol", "nope"); err == nil {
		t.Error("unknown protocol accepted")
	}
	if err := lab(io.Discard, "sim", "-n", "3", "-protocol", "2pc-block"); err == nil {
		t.Error("retired name 2pc-block accepted")
	}
	if err := lab(io.Discard, "sim", "-n", "3", "-protocol", "2pc", "-crash", "bad"); err == nil {
		t.Error("bad baseline crash accepted")
	}
	// A flag is honoured or rejected by name, never dropped: -coins means
	// something to protocol2 and p1 only.
	for _, proto := range []string{"benor", "2pc", "2pc-timeout", "3pc", "paxos"} {
		err := lab(io.Discard, "sim", "-n", "3", "-protocol", proto, "-coins", "2")
		if err == nil || !strings.Contains(err.Error(), "-coins") {
			t.Errorf("%s -coins 2: got %v, want a rejection naming -coins", proto, err)
		}
	}
	for _, proto := range []string{"protocol2", "p1"} {
		if err := lab(io.Discard, "sim", "-n", "3", "-protocol", proto, "-coins", "2"); err != nil {
			t.Errorf("%s -coins 2: %v", proto, err)
		}
	}
}

// The flags the parent's baseline arm accepted and dropped now apply to
// every protocol: -adversary delay:D, -runs, -partition, -t.
func TestSimFlagsApplyToEveryProtocol(t *testing.T) {
	var out strings.Builder
	if err := lab(&out, "sim", "-n", "3", "-k", "2", "-protocol", "2pc", "-adversary", "delay:6"); err != nil {
		t.Fatalf("delay:6 under 2pc: %v", err)
	}
	if !strings.Contains(out.String(), "onTime=false") {
		t.Errorf("delay:6 at K=2 left 2pc's run on time:\n%s", out.String())
	}

	out.Reset()
	if err := lab(&out, "sim", "-n", "5", "-protocol", "3pc", "-runs", "4"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "summary: 4/4 commit") {
		t.Errorf("-runs 4 under 3pc:\n%s", out.String())
	}

	out.Reset()
	if err := lab(&out, "sim", "-n", "5", "-k", "2", "-protocol", "2pc", "-partition", "0,0,1,1,1@-1", "-budget", "400"); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(lastLine(out.String()), "blocked") {
		t.Errorf("a partition that never heals did not block 2pc:\n%s", out.String())
	}

	if err := lab(io.Discard, "sim", "-n", "4", "-protocol", "2pc", "-t", "2"); err == nil {
		t.Error("-t 2 at n=4 accepted under 2pc")
	}
}

func TestSimLateAdversaryProtocol2(t *testing.T) {
	if err := lab(io.Discard, "sim", "-n", "5", "-adversary", "late"); err != nil {
		t.Fatal(err)
	}
}
