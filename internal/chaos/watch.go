package chaos

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/obs/watch"
)

// watchRun drives a live watchdog alongside a service run: the
// watchdog's own Start ticks it at the configured interval while the
// workload executes, and finish stops it and takes a final synchronous
// tick after every crash timer has settled — so a crash firing in the
// run's last instants is still observed, bounding detection latency at
// one tick past the run.
type watchRun struct {
	wd        *watch.Watchdog
	mu        sync.Mutex
	anomalies []watch.Anomaly
}

// startWatch attaches a watchdog to src when o.Watch is set. The
// caller's config is copied; Interval defaults to 2*TickEvery, Registry
// to the run's, and OnAnomaly/OnTick are owned by the harness.
func startWatch(o *RunOptions, src watch.Source) *watchRun {
	if o.Watch == nil {
		return nil
	}
	cfg := *o.Watch
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * o.TickEvery
	}
	if cfg.Registry == nil {
		cfg.Registry = o.Registry
	}
	cfg.OnTick = nil
	w := &watchRun{}
	cfg.OnAnomaly = func(a watch.Anomaly) {
		w.mu.Lock()
		w.anomalies = append(w.anomalies, a)
		w.mu.Unlock()
	}
	w.wd = watch.New(src, cfg)
	w.wd.Start()
	return w
}

// finish stops the watchdog, takes the final synchronous tick, and
// returns everything the watchdog saw. Nil-safe: an unwatched run yields
// zero values.
func (w *watchRun) finish() ([]watch.Anomaly, watch.Health) {
	if w == nil {
		return nil, watch.Health{}
	}
	w.wd.Stop()
	w.wd.Tick()
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.anomalies, w.wd.Health()
}

// auditWatch appends the detection-coverage checks to a service audit.
// The contract mirrors what an operator needs from the live watchdog:
// every injected crash is reported (by the final tick at the latest),
// node-down is never reported for a live node, and a fault-free plan
// raises no anomalies at all.
func auditWatch(r *Report, p *Plan, crashed []bool, anomalies []watch.Anomaly, watched bool) {
	if !watched {
		return
	}
	down := map[int]bool{}
	for _, a := range anomalies {
		if a.Rule == watch.RuleNodeDown {
			down[a.Node] = true
		}
	}
	var missed []int
	for i, c := range crashed {
		if c && !down[i] {
			missed = append(missed, i)
		}
	}
	r.add("watchdog-crash-detection", len(missed) == 0,
		fmt.Sprintf("crashed nodes %v raised no node-down anomaly", missed))

	var bogus []int
	for n := range down {
		if n >= len(crashed) || !crashed[n] {
			bogus = append(bogus, n)
		}
	}
	sort.Ints(bogus)
	r.add("watchdog-no-false-node-down", len(bogus) == 0,
		fmt.Sprintf("node-down reported for live nodes %v", bogus))

	if p.FaultFree() {
		r.add("watchdog-clean", len(anomalies) == 0,
			fmt.Sprintf("%d anomalies on a fault-free plan", len(anomalies)))
	}
}
