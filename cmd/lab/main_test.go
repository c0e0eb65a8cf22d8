package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// lab runs one command line through dispatch, stdout to w, and turns a
// nonzero exit into an error carrying the code and stderr.
func lab(w io.Writer, args ...string) error {
	var stderr strings.Builder
	if code := dispatch(args, w, &stderr); code != 0 {
		return fmt.Errorf("exit %d: %s", code, stderr.String())
	}
	return nil
}

func lastLine(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return lines[len(lines)-1]
}

// elapsed matches the wall-clock tokens ("in 121ms") the tables print;
// the goldens hold them stripped the same way.
var elapsed = regexp.MustCompile(` in (\d+(\.\d+)?(h|ms|µs|ns|m|s))+`)

func golden(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// The goldens are the stdout of the four binaries lab replaced
// (commitsim, experiments, arena, modelcheck), captured at the parent
// commit before they were deleted. lab must reproduce each byte for byte.
func TestGoldenSameTablesAsTheRetiredBinaries(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"sim_default", []string{"sim", "-n", "5", "-seed", "1"}},
		{"sim_votes", []string{"sim", "-n", "5", "-votes", "11011"}},
		{"sim_crash_runs", []string{"sim", "-n", "7", "-crash", "5@2,6@0", "-runs", "20"}},
		{"sim_delay", []string{"sim", "-n", "5", "-adversary", "delay:16", "-k", "2"}},
		{"sim_partition", []string{"sim", "-n", "5", "-k", "2", "-partition", "0,0,1,1,1@150"}},
		{"experiments_quick", []string{"experiments", "-quick"}},
		{"arena", []string{"arena", "-seeds", "2", "-shapes", "crash", "-advs", "pareto"}},
		{"check_sweep", []string{"check", "-mode", "sweep", "-n", "3", "-max-crashed", "1", "-horizon", "3"}},
		{"check_sweep_abort", []string{"check", "-mode", "sweep", "-n", "3", "-votes", "101", "-max-crashed", "1", "-horizon", "2"}},
		{"check_bfs", []string{"check", "-mode", "bfs", "-n", "2", "-k", "1", "-depth", "8", "-max-states", "4000"}},
		{"check_valency", []string{"check", "-mode", "valency", "-n", "2", "-k", "1", "-depth", "10", "-max-states", "8000"}},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			var out strings.Builder
			if err := lab(&out, tc.args...); err != nil {
				t.Fatal(err)
			}
			got := elapsed.ReplaceAllString(out.String(), " in ELAPSED")
			if want := golden(t, tc.golden); got != want {
				t.Errorf("lab %s differs from the parent's binary:\n--- got ---\n%s--- want ---\n%s",
					strings.Join(tc.args, " "), got, want)
			}
		})
	}
}

// For the comparison protocols the header moved to the one run format
// (and a summary line joined it); every per-processor line and the
// closing verdict line must still be the parent's.
func TestGoldenBaselineVerdicts(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		// The parent spelled these two -protocol 2pc and -protocol 2pc-block.
		{"sim_2pctimeout_late", []string{"-protocol", "2pc-timeout", "-adversary", "late", "-n", "5", "-k", "2"}},
		{"sim_2pc_late", []string{"-protocol", "2pc", "-adversary", "late", "-n", "5", "-k", "2"}},
		{"sim_3pc_late", []string{"-protocol", "3pc", "-adversary", "late", "-n", "5", "-k", "2"}},
		{"sim_3pc_crash", []string{"-protocol", "3pc", "-crash", "0@1", "-n", "5"}},
		{"sim_p1", []string{"-protocol", "p1", "-n", "5"}},
		{"sim_benor", []string{"-protocol", "benor", "-n", "5"}},
	}
	verdictLines := func(s string) string {
		var keep []string
		for _, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
			if strings.HasPrefix(line, "  processor ") {
				keep = append(keep, line)
			}
		}
		return strings.Join(append(keep, lastLine(s)), "\n")
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			var out strings.Builder
			if err := lab(&out, append([]string{"sim"}, tc.args...)...); err != nil {
				t.Fatal(err)
			}
			if got, want := verdictLines(out.String()), verdictLines(golden(t, tc.golden)); got != want {
				t.Errorf("lab sim %s:\n--- got ---\n%s\n--- want ---\n%s", strings.Join(tc.args, " "), got, want)
			}
		})
	}
}

// The tracedump convention: no arguments, an unknown subcommand and an
// unknown flag all print the usage text and exit 2.
func TestUsageErrorsExitTwo(t *testing.T) {
	cases := [][]string{
		nil,
		{"commitsim", "-n", "5"},
		{"sim", "-bogus"},
		{"experiments", "-bogus"},
		{"arena", "-bogus"},
		{"check", "-bogus"},
	}
	for _, args := range cases {
		var stderr strings.Builder
		if code := dispatch(args, io.Discard, &stderr); code != 2 {
			t.Errorf("lab %v exited %d, want 2", args, code)
		}
		if !strings.Contains(stderr.String(), "usage:") {
			t.Errorf("lab %v printed no usage:\n%s", args, stderr.String())
		}
	}
	// A run that fails is 1, not a usage error.
	if code := dispatch([]string{"sim", "-protocol", "nope"}, io.Discard, io.Discard); code != 1 {
		t.Errorf("unknown protocol exited %d, want 1", code)
	}
}
