package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
)

func TestRunSingleExperiment(t *testing.T) {
	if err := run([]string{"-id", "E12", "-quick"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-id", "E99"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// The one-protocol arena sweep is `cmd/arena -protocols <name>`; the old
// -protocol spelling must fail, not fall through to running E1..E12.
func TestRunProtocolRejectsUnknownAndConflicts(t *testing.T) {
	if err := run([]string{"-protocol", "2pc"}); err == nil {
		t.Error("retired -protocol flag accepted")
	}
	if err := run([]string{"-protocol", "2pc", "-id", "E1"}); err == nil {
		t.Error("retired -protocol flag accepted beside -id")
	}
}

func TestRunWritesMarkdown(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.md")
	if err := run([]string{"-id", "E8", "-quick", "-o", path}); err != nil {
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
