package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/service"
	"repro/internal/stats"
)

// perLayer are the metrics of single layers, printed by the traced run.
// They carry no bound: they say where time and work went, so that a
// change to one layer can be located. The last block holds the
// client-side names that cannot be gated end to end (README "Where each
// name lives"); in a traced run they are read off the in-process twin.
var perLayer = []metricDef{
	{Name: "http.overhead_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "http.decode_ns_per_req", Unit: "ns", Better: "lower"},

	{Name: "service.stage_admit_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.stage_batch_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.stage_dispatch_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.stage_decided_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.stage_notify_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.submit_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.stage_sum_over_submit", Unit: "share", Better: "higher"},
	{Name: "service.batch_occupancy_mean", Unit: "count", Better: "higher"},
	{Name: "service.rescues", Unit: "count", Better: "lower"},

	{Name: "txn.rounds_to_decision_p50", Unit: "ticks", Better: "lower"},
	{Name: "txn.spurious_abort_share", Unit: "share", Better: "lower"},
	{Name: "txn.decide_us_per_txn_scalar", Unit: "us", Better: "lower"},
	{Name: "txn.decide_us_per_txn_w1", Unit: "us", Better: "lower"},
	{Name: "txn.decide_us_per_txn_w16", Unit: "us", Better: "lower"},
	{Name: "txn.decide_us_per_txn_w64", Unit: "us", Better: "lower"},

	{Name: "runtime.ticks_per_decision_p50", Unit: "ticks", Better: "lower"},
	{Name: "runtime.steps_per_txn", Unit: "count", Better: "lower"},
	{Name: "runtime.idle_step_share", Unit: "share", Better: "lower"},
	{Name: "runtime.floor_n1_p50_ms", Unit: "ms", Better: "lower"},

	{Name: "transport.msgs_per_txn", Unit: "count", Better: "lower"},
	{Name: "transport.bytes_per_txn", Unit: "B", Better: "lower"},
	{Name: "transport.send_busy_us_per_txn", Unit: "us", Better: "lower"},
	{Name: "transport.link_p50_us", Unit: "us", Better: "lower"},
	{Name: "transport.link_p99_us", Unit: "us", Better: "lower"},
	{Name: "transport.tcp_hop_us", Unit: "us", Better: "lower"},
	{Name: "transport.hub_hop_ns", Unit: "ns", Better: "lower"},

	{Name: "wal.fsyncs_per_txn", Unit: "count", Better: "lower"},
	{Name: "wal.records_per_fsync", Unit: "count", Better: "higher"},
	{Name: "wal.bytes_per_txn", Unit: "B", Better: "lower"},
	{Name: "wal.fsync_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.fsync_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.append_sync_us", Unit: "us", Better: "lower"},
	{Name: "wal.replay_ms_per_100k", Unit: "ms", Better: "lower"},
	{Name: "wal.sync_cut_lost", Unit: "count", Better: "lower"},

	{Name: "shard.route_ns_per_txn", Unit: "ns", Better: "lower"},
	{Name: "shard.cross_overhead_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.crosslog_fsyncs_per_cross_txn", Unit: "count", Better: "lower"},
	{Name: "shard.crosslog_fsync_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.in_doubt", Unit: "count", Better: "lower"},

	{Name: "obs.tracer_record_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.tracer_record_ns_contended", Unit: "ns", Better: "lower"},
	{Name: "obs.span_record_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.trace_overhead_share", Unit: "share", Better: "lower"},

	{Name: "proc.rss_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.goroutines", Unit: "count", Better: "lower"},
	{Name: "calib.spin_mops", Unit: "Mops", Better: "higher"},

	{Name: "cpu_ms_per_txn", Unit: "ms", Better: "lower"},
	{Name: "commit_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "cross_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "node_crash_stall_ms", Unit: "ms", Better: "lower"},
	{Name: "restart_outage_ms", Unit: "ms", Better: "lower"},
	{Name: "fail_share", Unit: "share", Better: "lower"},
	{Name: "wrong_answers", Unit: "count", Better: "lower"},
	{Name: "acked_lost", Unit: "count", Better: "lower"},
}

// sideWindow is how long a traced run samples a layer its own workload
// bypasses (the HTTP hop on an in-process workload, the cross-shard
// layer on an unsharded one) from the workload that owns it, so that no
// per-layer line is ever empty. README marks these cells.
const sideWindow = 1500 * time.Millisecond

// traced is the per-layer run of workload w, all in this process: the
// layer drivers, a plain pass of the twin (the base for the tracing
// overhead), the same twin behind the timing decorators, and short side
// passes for the layers w bypasses. Spans go to spans.json.
func (e *env) traced(w workload, seed int64, window time.Duration) (*report, error) {
	twin := func(w workload, win time.Duration, p *probe) (*passResult, error) {
		return e.measure(pass{w: w, seed: seed, window: win, probe: p, inproc: true, setups: 1, tail: p != nil})
	}
	// The drivers go first, while the process is still small and quiet.
	m, err := runDrivers(e)
	if err != nil {
		return nil, fmt.Errorf("layer drivers: %w", err)
	}
	plainWin := window * 2 / 5
	plain, err := twin(w, plainWin, nil)
	if err != nil {
		return nil, fmt.Errorf("plain twin: %w", err)
	}
	p := newProbe()
	main, err := twin(w, window-plainWin, p)
	if err != nil {
		return nil, fmt.Errorf("traced twin: %w", err)
	}
	if err := p.writeSpans(filepath.Join(e.out, "spans.json")); err != nil {
		return nil, err
	}
	httpSide, shardSide := main, main
	if !w.http {
		if httpSide, err = twin(workloads[0], sideWindow, newProbe()); err != nil {
			return nil, fmt.Errorf("http side pass: %w", err)
		}
	}
	if !w.sharded {
		if shardSide, err = twin(workloads[2], sideWindow, newProbe()); err != nil {
			return nil, fmt.Errorf("shard side pass: %w", err)
		}
	}

	o, po, ho, so := main.reduce(), plain.reduce(), httpSide.reduce(), shardSide.reduce()
	main.layerMetrics(w, p, o, m)
	m["http.overhead_p50_ms"] = ho.metrics["http.overhead_p50_ms"]
	shardSide.shardMetrics(so, m)
	if base := po.metrics["throughput_tps"]; base > 0 {
		m["obs.trace_overhead_share"] = 1 - o.metrics["throughput_tps"]/base
	}
	for _, name := range []string{"cpu_ms_per_txn", "commit_p99_ms", "node_crash_stall_ms", "restart_outage_ms", "fail_share", "wrong_answers", "acked_lost"} {
		m[name] = o.metrics[name]
	}
	m["wal.sync_cut_lost"] = float64(main.syncCutLost)
	// A cut that never discards anything has tested nothing: say how much
	// written-but-unsynced journal the kills threw away.
	fmt.Fprintf(os.Stderr, "bench: %s: sync cuts discarded %d unsynced journal bytes; %d spans kept, %d dropped\n",
		w.name, main.discarded, len(p.spans), p.dropped)
	correct := o.correct && po.correct && ho.correct && so.correct
	return &report{Workload: w.name, Load: w.describe(), Traced: true, Correct: correct, Attempted: o.attempted,
		Failed: o.failed, Late: o.late, Failures: o.kinds, Samples: o.acked, Metrics: m, publish: perLayer}, nil
}

// layerMetrics reduces the traced twin's window to the per-layer names,
// adding them to m.
func (res *passResult) layerMetrics(w workload, p *probe, o outcome, m map[string]float64) {
	acked := float64(max(o.acked, 1))
	d := res.delta

	// service: the five stage medians, weighted over groups, against the
	// median Submit span they should add up to.
	sum := 0.0
	for _, stage := range []string{"admit", "batch", "dispatch", "decided", "notify"} {
		v := stageP50(res.groups, stage)
		m["service.stage_"+stage+"_p50_ms"] = v
		sum += v
	}
	var submit []float64
	for i := range res.window {
		s := &res.window[i]
		switch {
		case !s.acked() || s.due < res.stagesFrom:
		case s.req.Cross: // a cross transaction spans two groups' pipelines
		case s.handler > 0:
			submit = append(submit, float64(s.handler)/1e6)
		case !w.http:
			submit = append(submit, float64(s.latency())/1e6)
		}
	}
	m["service.submit_p50_ms"] = median(submit)
	if sp := m["service.submit_p50_ms"]; sp > 0 {
		m["service.stage_sum_over_submit"] = sum / sp
	}
	if n := d.sum("service_batch_occupancy_count"); n > 0 {
		m["service.batch_occupancy_mean"] = d.sum("service_batch_occupancy_sum") / n
	}
	m["service.rescues"] = res.rescues

	m["txn.rounds_to_decision_p50"] = histQuantile(d, "txn_rounds_to_decision_ticks", 0.5)
	yes, spurious := 0, 0
	for i := range res.window {
		if s := &res.window[i]; s.acked() && !s.req.Dissent {
			yes++
			if s.state == service.StateAbort {
				spurious++
			}
		}
	}
	if yes > 0 {
		m["txn.spurious_abort_share"] = float64(spurious) / float64(yes)
	}

	steps := d.sum("runtime_node_steps_total")
	m["runtime.ticks_per_decision_p50"] = m["service.stage_decided_p50_ms"] / (float64(tickEvery) / 1e6)
	m["runtime.steps_per_txn"] = steps / acked
	if steps > 0 {
		m["runtime.idle_step_share"] = max(0, 1-float64(res.to.busyTicks-res.from.busyTicks)/steps)
	}

	m["transport.msgs_per_txn"] = float64(res.to.msgs-res.from.msgs) / acked
	m["transport.bytes_per_txn"] = float64(res.to.msgBytes-res.from.msgBytes) / acked
	m["transport.send_busy_us_per_txn"] = float64(res.to.sendBusyNs-res.from.sendBusyNs) / 1e3 / acked
	links := p.linkTimes(res.from, res.to)
	p.mu.Lock()
	fsyncs := p.fsyncMs[res.from.fsyncs:res.to.fsyncs]
	m["transport.link_p50_us"] = median(links)
	m["transport.link_p99_us"] = stats.Percentile(links, 99)
	if len(fsyncs) > 0 {
		m["wal.fsync_p50_ms"] = median(fsyncs)
		m["wal.fsync_p99_ms"] = stats.Percentile(fsyncs, 99)
		m["wal.bytes_per_txn"] = float64(res.to.walBytes-res.from.walBytes) / acked
	} else {
		// The cross log's filesystem cannot be decorated from outside its
		// package: read its own fsync histogram, and take the journal's
		// bytes as everything this socket-less process wrote.
		m["wal.fsync_p50_ms"] = histQuantile(d, "wal_fsync_seconds", 0.5) * 1e3
		m["wal.fsync_p99_ms"] = histQuantile(d, "wal_fsync_seconds", 0.99) * 1e3
		m["wal.bytes_per_txn"] = float64(res.wchar) / acked
	}
	p.mu.Unlock()
	fs := d.sum("wal_fsyncs_total")
	m["wal.fsyncs_per_txn"] = fs / acked
	if fs > 0 {
		m["wal.records_per_fsync"] = d.sum("wal_appends_total") / fs
	}

	m["proc.rss_peak_mb"] = res.rssMB
	m["proc.goroutines"] = float64(res.goroutines)
}

// shardMetrics reduces a sharded twin's window to the cross-shard names.
func (res *passResult) shardMetrics(o outcome, m map[string]float64) {
	m["cross_p50_ms"] = o.metrics["cross_p50_ms"]
	m["shard.cross_overhead_p50_ms"] = o.metrics["cross_p50_ms"] - o.metrics["single_p50_ms"]
	crossed := 0
	for i := range res.window {
		if s := &res.window[i]; s.acked() && s.req.Cross {
			crossed++
		}
	}
	if crossed > 0 {
		m["shard.crosslog_fsyncs_per_cross_txn"] = res.delta.sum("wal_fsyncs_total", `log="cross"`) / float64(crossed)
	}
	m["shard.crosslog_fsync_p50_ms"] = histQuantile(res.delta, "wal_fsync_seconds", 0.5, `log="cross"`) * 1e3
	m["shard.in_doubt"] = res.end.sum("cross_in_doubt")
}

// stageP50 is one pipeline stage's median over every group, weighted by
// each group's sample count. The service believes its clock counts
// microseconds; the probed twin's counts nanoseconds (startInproc), so
// what it reports as milliseconds is a thousand times too large.
func stageP50(groups []service.Metrics, stage string) float64 {
	total, weighted := 0.0, 0.0
	for _, g := range groups {
		if st, ok := g.Stages[stage]; ok {
			total += float64(st.Count)
			weighted += st.P50Ms * float64(st.Count)
		}
	}
	if total == 0 {
		return 0
	}
	return weighted / total / 1000
}
