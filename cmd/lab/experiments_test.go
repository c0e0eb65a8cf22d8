package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
)

func TestExperimentsSingleExperiment(t *testing.T) {
	if err := lab(io.Discard, "experiments", "-id", "E12", "-quick"); err != nil {
		t.Fatal(err)
	}
}

func TestExperimentsUnknownExperiment(t *testing.T) {
	if err := lab(io.Discard, "experiments", "-id", "E99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// The one-protocol arena sweep is `lab arena -protocols <name>`; the old
// -protocol spelling must fail, not fall through to running every table.
func TestExperimentsProtocolRejectsUnknownAndConflicts(t *testing.T) {
	if err := lab(io.Discard, "experiments", "-protocol", "2pc"); err == nil {
		t.Error("retired -protocol flag accepted")
	}
	if err := lab(io.Discard, "experiments", "-protocol", "2pc", "-id", "E1"); err == nil {
		t.Error("retired -protocol flag accepted beside -id")
	}
}

func TestExperimentsWritesMarkdown(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.md")
	if err := lab(io.Discard, "experiments", "-id", "E8", "-quick", "-o", path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	if !strings.Contains(out, "## E8") || !strings.Contains(out, "Paper claim") {
		t.Fatalf("markdown malformed:\n%s", out)
	}
}

func TestMarkdownRendering(t *testing.T) {
	r, err := harness.E12RoundDefinition(harness.Options{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	md := markdown([]*harness.Report{r})
	for _, want := range []string{"# Experiment results", "## E12", "```", "Shape matches"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q", want)
		}
	}
	r.Pass = false
	md = markdown([]*harness.Report{r})
	if !strings.Contains(md, "does NOT match") {
		t.Error("failing shape not flagged")
	}
}

// A report whose shape check fails must fail the command, naming the id;
// the parent's experiments binary only changed a markdown sentence and
// exited 0.
func TestExperimentsFailOnShapeMismatch(t *testing.T) {
	r, err := harness.E12RoundDefinition(harness.Options{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := shapeFailures([]*harness.Report{r}); err != nil {
		t.Fatalf("passing report rejected: %v", err)
	}
	r.Pass = false
	err = shapeFailures([]*harness.Report{r})
	if err == nil || !strings.Contains(err.Error(), "E12") {
		t.Fatalf("report forced to Pass=false: got %v, want an error naming E12", err)
	}
}

// The help and error text list the ids from the one experiment table.
func TestExperimentsUnknownIDListsTheTable(t *testing.T) {
	err := lab(io.Discard, "experiments", "-id", "E14")
	if err == nil || !strings.Contains(err.Error(), "E13") || !strings.Contains(err.Error(), "E15") {
		t.Fatalf("got %v, want the id list through E13 and E15", err)
	}
}
