package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestArenaSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "arena.txt")
	var buf strings.Builder
	err := lab(&buf, "arena",
		"-seeds", "2", "-shapes", "crash", "-advs", "pareto",
		"-protocols", "2pc,3pc,paxos,protocol2", "-workers", "2", "-o", out)
	if err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if !strings.Contains(got, "summary runs=8 wrong=0") {
		t.Errorf("missing clean summary in output:\n%s", got)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"protocol", "paxos", "protocol2", "run proto=2pc", "summary "} {
		if !strings.Contains(string(data), want) {
			t.Errorf("artifact missing %q:\n%s", want, data)
		}
	}
	// Coverage gate: every blocked classification is matched by a
	// protocol-blocked anomaly, with no false positives.
	if !regexp.MustCompile(`watchdog detected=[0-9]+ missed=0 false=0`).Match(data) {
		t.Errorf("artifact has no clean watchdog coverage line:\n%s", data)
	}
}

func TestArenaDeterministicOutput(t *testing.T) {
	args := []string{"arena", "-seeds", "2", "-shapes", "lossy", "-advs", "exp"}
	var a, b strings.Builder
	if err := lab(&a, args...); err != nil {
		t.Fatal(err)
	}
	if err := lab(&b, append(args, "-workers", "4")...); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("output differs across worker counts:\n--- w1 ---\n%s\n--- w4 ---\n%s", a.String(), b.String())
	}
}

func TestArenaRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-shapes", "volcanic"},
		{"-shapes", "crash-restart"},
		{"-advs", "clairvoyant"},
		{"-protocols", "1pc"},
		{"-protocols", "2pc-block"},   // retired into 2pc
		{"-protocols", "2pc-timeout"}, // in the table, but answers wrongly by design
		{"-protocols", "p1"},          // agreement, not commit
	}
	for _, args := range cases {
		var buf strings.Builder
		if err := lab(&buf, append([]string{"arena"}, args...)...); err == nil {
			t.Errorf("expected error for %v", args)
		}
	}
}
