package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func smokeEnv(t *testing.T) *env {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	e := &env{root: root, out: filepath.Join(root, "bench", "out", "test-"+t.Name())}
	os.RemoveAll(e.out) //nolint:errcheck // a previous run's leftovers
	if err := os.MkdirAll(filepath.Join(e.out, "raw"), 0o755); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		e.reap()
		os.RemoveAll(e.out) //nolint:errcheck // scratch
	})
	return e
}

// One second of each workload, as the untraced run drives it (the real
// daemon for the HTTP ones): answers arrive, none is wrong, none acked
// is lost. No timing is asserted — the test shares the machine.
func TestSmokeEveryWorkload(t *testing.T) {
	e := smokeEnv(t)
	for _, w := range workloads {
		if w.http {
			if err := e.buildCommitd(); err != nil {
				t.Fatal(err)
			}
		}
		res, err := e.measure(pass{w: w, seed: 3, window: time.Second, setups: 1})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		o := res.reduce()
		if o.acked == 0 {
			t.Errorf("%s: no transaction was acked in a second", w.name)
		}
		if !o.correct {
			t.Errorf("%s: wrong_answers=%v acked_lost=%v", w.name, o.metrics["wrong_answers"], o.metrics["acked_lost"])
		}
		if res.swept == 0 {
			t.Errorf("%s: the status sweep checked nothing", w.name)
		}
		if w.open && (len(res.stallMs) != faultCycles || len(res.outageMs) == 0) {
			t.Errorf("%s: %d node-crash stalls and %d restart outages measured over %d cycles",
				w.name, len(res.stallMs), len(res.outageMs), faultCycles)
		}
		for _, d := range endToEnd {
			if v := o.metrics[d.Name]; !(v > 0) {
				t.Errorf("%s: %s = %v, want a positive number", w.name, d.Name, v)
			}
		}
	}
}

// The traced twin of the faults workload: decorators in place, every
// kill a synced-prefix copy. Every acked decision must survive the cut,
// and the layer reduction must fill its names.
func TestSmokeTracedTwinSurvivesSyncCut(t *testing.T) {
	e := smokeEnv(t)
	w, _ := findWorkload("http_faults_c2")
	p := newProbe()
	res, err := e.measure(pass{w: w, seed: 4, window: 1200 * time.Millisecond, probe: p, inproc: true, setups: 1, tail: true})
	if err != nil {
		t.Fatal(err)
	}
	o := res.reduce()
	if o.acked == 0 || !o.correct || res.syncCutLost != 0 {
		t.Errorf("acked=%d correct=%v sync_cut_lost=%d", o.acked, o.correct, res.syncCutLost)
	}
	m := map[string]float64{}
	res.layerMetrics(w, p, o, m)
	for _, name := range []string{"transport.msgs_per_txn", "transport.link_p50_us", "wal.fsyncs_per_txn",
		"wal.fsync_p50_ms", "service.stage_decided_p50_ms", "service.submit_p50_ms", "runtime.steps_per_txn"} {
		if !(m[name] > 0) {
			t.Errorf("%s = %v, want a positive number", name, m[name])
		}
	}
	if err := p.writeSpans(filepath.Join(e.out, "spans.json")); err != nil {
		t.Error(err)
	}
}
