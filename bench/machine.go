package main

import (
	"fmt"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// fingerprint identifies the machine and build a result was taken on;
// results from different fingerprints are not comparable.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func machineFingerprint(root string) fingerprint {
	fp := fingerprint{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: "unknown"}
	if v := procValue("/proc/cpuinfo", "model name"); v != "" {
		fp.CPU = v
	}
	// A checkout that is not a git repository stays "unknown".
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		fp.Commit = strings.TrimSpace(string(out))
	}
	return fp
}

func (fp fingerprint) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d GOMAXPROCS=%d %s commit=%s", fp.CPU, fp.NProc, fp.GOMAXPROCS, fp.Go, fp.Commit)
}

// spinIters is the fixed length of the calibration loop (about 60 ms).
const spinIters = 1 << 26

var spinSink uint64

// calibSpin times a fixed single-threaded integer loop and returns its
// speed in millions of iterations per second. It moves only when the
// machine does — a neighbour stealing the core, a frequency change —
// so a run whose before and after scores disagree was disturbed.
func calibSpin() float64 {
	x := uint64(88172645463325252)
	start := time.Now()
	for i := 0; i < spinIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	el := time.Since(start)
	spinSink += x
	return spinIters / 1e6 / el.Seconds()
}

// disturbedBy is how far two calibration scores may differ (as a share
// of the larger) before the run between them is marked disturbed.
const disturbedBy = 0.15

func disturbed(before, after float64) bool {
	hi, lo := max(before, after), min(before, after)
	return hi > 0 && (hi-lo)/hi > disturbedBy
}
