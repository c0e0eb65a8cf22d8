package chaos

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/obs/watch"
	"repro/internal/recovery"
	"repro/internal/rng"
	"repro/internal/runtime"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wal"
)

// RunOptions tunes the live harnesses. Zero values take defaults sized so
// a single run finishes in well under a second on an idle machine.
type RunOptions struct {
	// TickEvery is the protocol tick length (default 1ms).
	TickEvery time.Duration
	// K is the protocol timing constant in ticks (default 4).
	K int
	// BudgetTicks bounds a run's lifetime in ticks (default 8*Horizon +
	// 512). Hitting the budget is reported as a termination failure —
	// the plan's fault envelope guarantees the protocol decides well
	// inside it.
	BudgetTicks int
	// Registry and Tracer receive run telemetry; nil creates fresh ones.
	Registry *obs.Registry
	Tracer   *obs.Tracer
	// Spans, if non-nil, collects causal spans from the run: service
	// stages, manager rounds, and hub link delays (service mode), or
	// link delays only (cluster mode, whose machines are raw core
	// protocol instances, not managers). Nil disables span collection —
	// audit reproducibility never depends on it.
	Spans *span.Collector
	// Watch attaches a live watchdog to service-mode runs (RunService,
	// RunShardedService): it is ticked while the workload executes plus
	// once synchronously after the last crash timer settles, and the
	// auditor gains detection-coverage checks — every fired crash must
	// raise a node-down anomaly, node-down must never name a live node,
	// and a fault-free plan must raise nothing. The config is copied;
	// Interval defaults to 2*TickEvery and OnAnomaly/OnTick are owned by
	// the harness. Keep StallAge at its default (or above the run budget)
	// unless the plan is built to stall transactions, or the clean check
	// turns load-dependent. Nil disables watching; cluster mode ignores
	// it.
	Watch *watch.Config
}

func (o *RunOptions) defaults(p *Plan) {
	if o.TickEvery <= 0 {
		o.TickEvery = time.Millisecond
	}
	if o.K <= 0 {
		o.K = 4
	}
	if o.BudgetTicks <= 0 {
		o.BudgetTicks = 8*p.Cfg.Horizon + 512
	}
	if o.Registry == nil {
		o.Registry = obs.NewRegistry()
	}
	if o.Tracer == nil {
		o.Tracer = obs.NewTracer(1 << 14)
	}
}

// clusterHarness is the mutable state the orchestration goroutines share.
type clusterHarness struct {
	mu          sync.Mutex
	stopped     bool
	decided     []bool
	crashFired  []bool
	recovered   map[int]types.Value
	recoveredOK map[int]bool
}

func (h *clusterHarness) onDecision(p types.ProcID, _ types.Value) {
	h.mu.Lock()
	h.decided[p] = true
	h.mu.Unlock()
}

func (h *clusterHarness) setRecovered(node int, v types.Value, ok bool) {
	h.mu.Lock()
	if ok {
		h.recovered[node] = v
	}
	h.recoveredOK[node] = ok
	h.mu.Unlock()
}

// vacuousStall reports whether the run looks like the never-started
// degenerate case: the coordinator crashed and no processor has decided
// or recovered anything.
func (h *clusterHarness) vacuousStall() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.crashFired) == 0 || !h.crashFired[0] {
		return false
	}
	for _, d := range h.decided {
		if d {
			return false
		}
	}
	return len(h.recovered) == 0
}

// complete reports whether every processor slot is resolved: decided, or
// crashed, and (when a restart is scheduled) recovered.
func (h *clusterHarness) complete(p *Plan) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := 0; i < p.Cfg.N; i++ {
		if !h.decided[i] && !h.crashFired[i] {
			return false
		}
	}
	for _, ev := range p.Crashes {
		if ev.RestartTick < 0 {
			continue
		}
		if _, resolved := h.recoveredOK[ev.Node]; !resolved {
			return false
		}
	}
	return true
}

// RunCluster executes one single-instance commit run under the plan's
// adversary and audits it.
//
// Every processor runs the paper's Protocol 2 wrapped in a write-ahead
// log and an outcome-query responder. The plan's crash schedule fires as
// live fail-stops; restart events replay the victim's WAL and, absent a
// journaled decision, run the recovery client against the survivors. The
// run ends when every processor has decided, crashed, or recovered — or
// when the tick budget expires, which the auditor reports as a
// termination violation.
func RunCluster(p *Plan, o RunOptions) (*Report, *ClusterRunData, error) {
	o.defaults(p)
	n := p.Cfg.N

	// Each node goroutine appends to its own journal; the harness reads one
	// only after that node's goroutine has stopped.
	journals := make([]wal.Records, n)
	set, err := core.NewSet(core.Config{N: n, T: p.Cfg.T, K: o.K, Gadget: true}, types.Values(p.Votes))
	if err != nil {
		return nil, nil, fmt.Errorf("chaos: build machines: %w", err)
	}
	machines := make([]types.Machine, n)
	for i, cm := range set {
		machines[i] = &recovery.Responder{Inner: wal.NewLoggedCommit(cm, &journals[i])}
	}

	h := &clusterHarness{
		decided:     make([]bool, n),
		crashFired:  make([]bool, n),
		recovered:   map[int]types.Value{},
		recoveredOK: map[int]bool{},
	}

	inj := NewInjector(p, o.TickEvery)
	cl, err := runtime.NewLocalCluster(machines, runtime.ClusterOptions{
		TickEvery:  o.TickEvery,
		MaxTicks:   o.BudgetTicks,
		Seed:       p.Cfg.Seed ^ 0xa5a5a5a5deadbeef,
		Hub:        transport.HubOptions{Inject: inj.Decide, Spans: o.Spans},
		OnDecision: h.onDecision,
		Registry:   o.Registry,
		Tracer:     o.Tracer,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("chaos: build cluster: %w", err)
	}

	deadline := time.Duration(o.BudgetTicks)*o.TickEvery + 2*time.Second
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()

	inj.Arm()
	cl.Start(ctx)

	// Crash schedule: tracked timers so the harness knows which crashes
	// actually fired before the run resolved (a processor may decide
	// before its scheduled crash tick).
	var crashTimers []*time.Timer
	for _, ev := range p.Crashes {
		ev := ev
		crashTimers = append(crashTimers, time.AfterFunc(
			time.Duration(ev.Tick)*o.TickEvery, func() {
				h.mu.Lock()
				if h.stopped {
					h.mu.Unlock()
					return
				}
				h.crashFired[ev.Node] = true
				h.mu.Unlock()
				cl.Crash(types.ProcID(ev.Node))
			}))
	}

	// Restart schedule: after the restart tick, join the victim's stopped
	// goroutine (its WAL is then stable), replay the log, reconnect the
	// hub, and either short-circuit on a journaled decision or run the
	// recovery client over the victim's endpoint.
	var restarts sync.WaitGroup
	for _, ev := range p.Crashes {
		if ev.RestartTick < 0 {
			continue
		}
		ev := ev
		restarts.Add(1)
		go func() {
			defer restarts.Done()
			pid := types.ProcID(ev.Node)
			timer := time.NewTimer(time.Duration(ev.RestartTick) * o.TickEvery)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				h.setRecovered(ev.Node, 0, false)
				return
			}
			select {
			case <-cl.Node(pid).Done():
			case <-ctx.Done():
				h.setRecovered(ev.Node, 0, false)
				return
			}
			st := wal.Reconstruct(journals[ev.Node])
			cl.Restart(pid)
			if st.Decided {
				h.setRecovered(ev.Node, st.Decision, true)
				return
			}
			client, err := recovery.NewClient(recovery.ClientConfig{
				ID: pid, N: n, QueryEvery: 4, Resume: st,
			})
			if err != nil {
				h.setRecovered(ev.Node, 0, false)
				return
			}
			node, err := runtime.NewNode(runtime.NodeConfig{
				Machine:   client,
				Transport: cl.Hub().Endpoint(pid),
				Rand:      rng.NewStream(p.Cfg.Seed ^ 0x5bd1e995*(uint64(ev.Node)+1)),
				TickEvery: o.TickEvery,
				MaxTicks:  o.BudgetTicks,
				Registry:  o.Registry,
			})
			if err != nil {
				h.setRecovered(ev.Node, 0, false)
				return
			}
			node.Start(ctx)
			select {
			case <-node.Done():
			case <-ctx.Done():
				node.Stop()
				<-node.Done()
			}
			if v, ok := client.Decision(); ok {
				h.setRecovered(ev.Node, v, true)
			} else {
				h.setRecovered(ev.Node, 0, false)
			}
		}()
	}

	// Wait for resolution (or the budget). One stall is legitimate: the
	// coordinator crashing before its GO flood escapes means the
	// protocol never starts and nobody will ever decide — detect it
	// (coordinator crashed, nothing decided long after every fault
	// window and restart closed) instead of burning the whole budget.
	timedOut, vacuous := false, false
	start := time.Now()
	vacuousAfter := time.Duration(6*p.Cfg.Horizon) * o.TickEvery
	poll := time.NewTicker(4 * o.TickEvery)
	for !h.complete(p) {
		select {
		case <-poll.C:
		case <-ctx.Done():
			timedOut = true
		}
		if timedOut {
			break
		}
		if h.vacuousStall() && time.Since(start) > vacuousAfter {
			vacuous = true
			break
		}
	}
	poll.Stop()

	h.mu.Lock()
	h.stopped = true
	h.mu.Unlock()
	for _, t := range crashTimers {
		t.Stop()
	}
	cl.Stop()
	runErr := cl.Wait()
	cancel()
	restarts.Wait()
	if errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded) {
		runErr = nil // the harness's own lifecycle, not a node failure
	}

	// Snapshot the run for the auditor.
	res := cl.Result()
	data := &ClusterRunData{
		Decided:     res.Decided,
		Values:      res.Values,
		Crashed:     h.crashFired,
		Recovered:   h.recovered,
		RecoveredOK: h.recoveredOK,
		WALDecided:  make([]bool, n),
		WALValue:    make([]types.Value, n),
		Events:      o.Tracer.Recent(o.Tracer.Len()),
		TimedOut:    timedOut,
		Vacuous:     vacuous,
	}
	for i := 0; i < n; i++ {
		st := wal.Reconstruct(journals[i])
		data.WALDecided[i], data.WALValue[i] = st.Decided, st.Decision
	}
	return AuditCluster(p, data), data, runErr
}
