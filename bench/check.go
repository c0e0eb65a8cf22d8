package main

import (
	"fmt"
	"math"
	"os"
	"time"
)

// checkEntry is one metric x workload comparison of -check.
type checkEntry struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	First    float64 `json:"first"`
	Second   float64 `json:"second"`
	Diff     float64 `json:"diff"` // relative to First, or absolute
	Bound    float64 `json:"bound"`
	Absolute bool    `json:"absolute"`
	OK       bool    `json:"ok"`
}

// checkRepeats is how many runs of a workload each of the two sets
// holds; a set's value is their median, as the acceptance driver
// compares medians, not single runs.
const checkRepeats = 3

// check measures the untraced set twice on the same code and compares
// every bounded metric of every workload: two sets that disagree by more
// than a metric's own bound mean the bound (or the machine) cannot carry
// a regression verdict. The two sets' runs alternate, with different
// seeds, so slow drift of the machine lands on both. Disturbed runs
// never enter either set.
func (e *env) check(set []workload, seed int64, window time.Duration, sum *runSummary) error {
	var sets [2]map[string]map[string]float64
	for i := range sets {
		sets[i] = map[string]map[string]float64{}
	}
	for _, w := range set {
		var runs [2][]*report
		for k := 0; k < 2*checkRepeats; k++ {
			s := seed + int64(k)
			r, err := e.gated(w, sum, func() (*report, error) { return e.untraced(w, s, window) })
			if err != nil {
				return err
			}
			runs[k%2] = append(runs[k%2], r)
		}
		for i := range sets {
			med := map[string]float64{}
			for name := range runs[i][0].Metrics {
				var vals []float64
				for _, r := range runs[i] {
					if v, ok := r.Metrics[name]; ok {
						vals = append(vals, v)
					}
				}
				med[name] = median(vals)
			}
			sets[i][w.name] = med
		}
	}
	var bounds []checkBound
	for _, d := range endToEnd {
		bounds = append(bounds, checkBound{d.Name, d.Bound, false})
	}
	bounds = append(bounds, extraBounds...)

	bad := 0
	fmt.Fprintf(os.Stderr, "\n%-18s %-22s %12s %12s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, w := range set {
		a, b := sets[0][w.name], sets[1][w.name]
		for _, bd := range bounds {
			va, oka := a[bd.name]
			vb, okb := b[bd.name]
			if !oka || !okb {
				continue // the workload bypasses this metric
			}
			c := checkEntry{Workload: w.name, Metric: bd.name, First: va, Second: vb, Bound: bd.bound, Absolute: bd.abs}
			c.Diff = math.Abs(vb - va)
			if !bd.abs && va != 0 {
				c.Diff /= math.Abs(va)
			}
			c.OK = c.Diff <= bd.bound
			mark := ""
			if !c.OK {
				mark = "  EXCEEDED"
				bad++
			}
			fmt.Fprintf(os.Stderr, "%-18s %-22s %12.4f %12.4f %9.4f %7.2f%s\n", w.name, bd.name, va, vb, c.Diff, bd.bound, mark)
			sum.Check = append(sum.Check, c)
		}
	}
	if bad > 0 {
		return fmt.Errorf("-check: %d metric(s) differ between two runs of the same code by more than their bound", bad)
	}
	return nil
}
