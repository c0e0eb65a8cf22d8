package main

import (
	"time"

	"repro/internal/service"
	"repro/internal/stats"
)

// metricDef names one metric. The end-to-end list below and the
// per-layer list in layers.go are the single source BENCHMARK.json is
// checked against (manifest_test.go).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median
}

// endToEnd are the client-side metrics every workload reports from its
// untraced run, each with the bound by which it may worsen. The bounds
// come from repeated runs on the reference box (README "Bounds").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"commit_p50_ms", "ms", "lower", 0.25},
	{"throughput_tps", "1/s", "higher", 0.25},
	{"yes_commit_share", "share", "higher", 0.08},
}

// checkBound is one metric's -check limit: a share of the first set's
// value, or (abs) an absolute difference.
type checkBound struct {
	name  string
	bound float64
	abs   bool
}

// extraBounds are the -check bounds of the untraced metrics that cannot
// sit in BENCHMARK.json's end_to_end list, because they exist on one
// workload only, are legitimately 0, or spread too widely to gate on
// (README "Where each name lives"). abs marks an absolute bound.
var extraBounds = []checkBound{
	{"cpu_ms_per_txn", 0.25, false},
	{"commit_p99_ms", 0.50, false},
	{"cross_p50_ms", 0.25, false},
	{"node_crash_stall_ms", 0.50, false},
	{"restart_outage_ms", 0.50, false},
	{"fail_share", 0.01, true},
	{"wrong_answers", 0, true},
	{"acked_lost", 0, true},
}

// units of the untraced metrics that are printed but not in endToEnd.
var extraUnits = map[string]string{
	"cpu_ms_per_txn": "ms", "commit_p99_ms": "ms", "commit_tail_ms": "ms", "cross_p50_ms": "ms", "single_p50_ms": "ms",
	"node_crash_stall_ms": "ms", "restart_outage_ms": "ms", "gen_late_p99_ms": "ms",
	"fail_share": "share", "wrong_answers": "count", "acked_lost": "count",
	"rss_peak_mb": "MB", "calib.spin_mops": "Mops",
}

// outcome is the reduction of one pass to named client-side numbers.
type outcome struct {
	metrics   map[string]float64
	attempted int
	// failed are the operations that got no COMMIT/ABORT answer (TIMEOUT,
	// FAILED, an error, never answered or never sent): the result line's
	// count. late are the ones answered, correctly, after lateAfter; a
	// quarter-second stall of a shared box makes a few, so they are a
	// latency matter and count in fail_share only.
	failed, late int
	acked        int
	// kinds breaks failed and late down: late, no-answer, unsent, or the
	// terminal state.
	kinds map[string]int
	// tailP is the highest percentile the latency sample supports (ten
	// samples beyond it); commit_tail_ms is read there.
	tailP float64
	// correct is false on any wrong answer, lost acked decision, or
	// safety violation counted by the service itself.
	correct bool
}

// reduce turns a pass's samples into the end-to-end metrics.
func (res *passResult) reduce() outcome {
	var lat, cross, single, overhead []float64
	o := outcome{metrics: map[string]float64{}, kinds: map[string]int{}}
	yes, yesCommit, wrong := 0, 0, res.wrong
	for i := range res.window {
		s := &res.window[i]
		o.attempted++
		if s.failed() {
			switch {
			case s.acked():
				o.late++
				o.kinds["late"]++
			case s.state == "":
				o.failed++
				o.kinds["no-answer"]++
			default:
				o.failed++
				o.kinds[string(s.state)]++
			}
		}
		if s.wrong() {
			wrong++
		}
		if !s.req.Dissent {
			yes++
			if s.state == service.StateCommit {
				yesCommit++
			}
		}
		if !s.acked() {
			continue
		}
		o.acked++
		ms := float64(s.latency()) / 1e6
		lat = append(lat, ms)
		if s.req.Cross {
			cross = append(cross, ms)
		} else {
			single = append(single, ms)
		}
		if s.overhead > 0 {
			overhead = append(overhead, float64(s.overhead)/1e6)
		}
	}
	o.attempted += res.unsent
	o.failed += res.unsent
	if res.unsent > 0 {
		o.kinds["unsent"] = res.unsent
	}
	m := o.metrics
	m["setup_s"] = median(res.setupS)
	m["commit_p50_ms"] = median(lat)
	m["commit_p99_ms"] = stats.Percentile(lat, 99)
	o.tailP = tailPercentile(len(lat))
	m["commit_tail_ms"] = stats.Percentile(lat, o.tailP)
	tps, cpuPer, cpu := res.perSlice()
	m["throughput_tps"], m["cpu_ms_per_txn"] = median(tps), median(cpuPer)
	if len(res.lateMs) > 0 && o.acked > 0 {
		// The open loop answers what it is offered: its rate is the whole
		// schedule over the time the schedule took to answer. Its slices
		// hold some sixty transactions each, too few for the daemon's 10 ms
		// CPU clock, so CPU is taken over the whole run.
		m["throughput_tps"] = float64(o.acked) / res.winDur.Seconds()
		m["cpu_ms_per_txn"] = float64(cpu) / 1e6 / float64(o.acked)
	}
	if o.attempted > 0 {
		m["fail_share"] = float64(o.failed+o.late) / float64(o.attempted)
	}
	if yes > 0 {
		m["yes_commit_share"] = float64(yesCommit) / float64(yes)
	}
	m["wrong_answers"] = float64(wrong) + res.violations
	m["acked_lost"] = float64(res.ackedLost)
	if len(cross) > 0 {
		m["cross_p50_ms"] = median(cross)
		m["single_p50_ms"] = median(single)
	}
	if len(res.stallMs) > 0 {
		m["node_crash_stall_ms"] = median(res.stallMs)
	}
	if len(res.outageMs) > 0 {
		m["restart_outage_ms"] = median(res.outageMs)
	}
	if len(res.lateMs) > 0 {
		m["gen_late_p99_ms"] = stats.Percentile(res.lateMs, 99)
	}
	if len(overhead) > 0 {
		m["http.overhead_p50_ms"] = median(overhead)
	}
	m["rss_peak_mb"] = res.rssMB
	o.correct = m["wrong_answers"] == 0 && res.ackedLost == 0 && res.syncCutLost == 0
	return o
}

// perSlice is each slice's acked transactions per second and CPU
// milliseconds per acked transaction, and the CPU of all slices together.
func (res *passResult) perSlice() (tps, cpuPer []float64, cpu time.Duration) {
	for _, sl := range res.slices {
		cpu += sl.cpu
		acked := 0
		for i := range res.window {
			if s := &res.window[i]; s.acked() && s.done >= sl.from && s.done < sl.to {
				acked++
			}
		}
		tps = append(tps, float64(acked)/(sl.to-sl.from).Seconds())
		if acked > 0 {
			cpuPer = append(cpuPer, float64(sl.cpu)/1e6/float64(acked))
		}
	}
	return tps, cpuPer, cpu
}
