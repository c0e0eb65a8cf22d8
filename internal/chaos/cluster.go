package chaos

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/obs/watch"
	"repro/internal/recovery"
	"repro/internal/rng"
	"repro/internal/runtime"
	"repro/internal/transport"
	"repro/internal/txn"
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
	// Registry and Spans receive run telemetry; nil creates fresh ones.
	// Spans is the run's one ring: manager rounds and milestones, hub
	// links, crashes and restarts, plus the service stages in service
	// mode. The trace-sanity check audits it; audit logs never depend on
	// its timings.
	Registry *obs.Registry
	Spans    *span.Collector
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
	if o.Spans == nil {
		o.Spans = span.NewCollector(span.DefaultCollectorCapacity)
	}
}

// clusterHarness is the mutable state the orchestration goroutines share.
type clusterHarness struct {
	mu          sync.Mutex
	decided     []bool
	crashFired  []bool
	recovered   map[int]types.Value
	recoveredOK map[int]bool
}

func (h *clusterHarness) onDecision(p types.ProcID) {
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

// RunCluster executes one single-transaction commit run under the plan's
// adversary and audits it.
//
// Every processor runs what a commitnode process runs: a transaction
// manager, processor 0 beginning the one transaction, whose decision is
// journaled with AppendSync to a decision log on the processor's own MemFS.
// The plan's crash schedule fires as live fail-stops, and a crash kills the
// victim's log with it. A restart reopens the log: a journaled decision is
// the victim's answer, and otherwise it runs the recovery client against
// the survivors, which keep stepping (and answering its queries) until the
// harness stops them. The run ends when every processor has decided,
// crashed, or recovered — or when the tick budget expires, which the
// auditor reports as a termination violation.
func RunCluster(p *Plan, o RunOptions) (*Report, *ClusterRunData, error) {
	o.defaults(p)
	n := p.Cfg.N
	h := &clusterHarness{
		decided:     make([]bool, n),
		crashFired:  make([]bool, n),
		recovered:   map[int]types.Value{},
		recoveredOK: map[int]bool{},
	}

	fss := make([]*wal.MemFS, n)
	logs := make([]*wal.DecisionLog, n)
	managers := make([]*txn.Manager, n)
	for i := range managers {
		fss[i] = wal.NewMemFS()
		dl, err := wal.OpenDecisionLog(wal.SegmentedOptions{FS: fss[i]})
		if err != nil {
			return nil, nil, fmt.Errorf("chaos: open decision log: %w", err)
		}
		defer dl.Close() //nolint:errcheck // for an early return: the run kills every log before reading it back
		logs[i] = dl
		id, vote := types.ProcID(i), p.Votes[i]
		managers[i], err = txn.NewManager(txn.Config{
			ID: id, N: n, T: p.Cfg.T, K: o.K,
			Vote: func(txn.ID) bool { return vote },
			OnOutcome: func(out txn.Outcome) {
				dl.AppendSync(recovery.SoleTxn, out.Decision) //nolint:errcheck // fails only once a crash killed the log
				h.onDecision(id)
			},
			Spans: o.Spans,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("chaos: build managers: %w", err)
		}
	}
	if err := managers[0].Begin(recovery.SoleTxn, p.Votes[0]); err != nil {
		return nil, nil, fmt.Errorf("chaos: begin: %w", err)
	}

	inj := NewInjector(p, o.TickEvery)
	cl, err := runtime.NewCluster(types.Machines(managers), nil, runtime.ClusterOptions{
		TickEvery:  o.TickEvery,
		MaxTicks:   o.BudgetTicks,
		Seed:       p.Cfg.Seed ^ 0xa5a5a5a5deadbeef,
		Hub:        transport.HubOptions{Inject: inj.Decide},
		Persistent: true,
		Registry:   o.Registry,
		Spans:      o.Spans,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("chaos: build cluster: %w", err)
	}

	deadline := time.Duration(o.BudgetTicks)*o.TickEvery + 2*time.Second
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()

	inj.Arm()
	cl.Start(ctx)
	disarm := armCrashes(p, o.TickEvery, func(node types.ProcID) {
		h.mu.Lock()
		h.crashFired[node] = true
		h.mu.Unlock()
		// The log dies first, so it is dead by the time a restart sees the
		// node's goroutine stopped and reopens it.
		logs[node].Kill()
		cl.Crash(node)
	})

	var restarts sync.WaitGroup
	for _, ev := range p.Crashes {
		if ev.RestartTick < 0 {
			continue
		}
		ev := ev
		restarts.Add(1)
		go func() {
			defer restarts.Done()
			v, ok := restartNode(ctx, cl, types.ProcID(ev.Node), fss[ev.Node],
				time.Duration(ev.RestartTick)*o.TickEvery, p, o)
			h.setRecovered(ev.Node, v, ok)
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

	disarm()
	cl.Stop()
	runErr := cl.Wait()
	cancel()
	restarts.Wait()
	if errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded) {
		runErr = nil // the harness's own lifecycle, not a node failure
	}

	// Snapshot the run for the auditor: every original manager's decision
	// (a crashed one keeps what it decided before dying), and every
	// journal as a restart would replay it.
	data := &ClusterRunData{
		Decided:     make([]bool, n),
		Values:      make([]types.Value, n),
		Crashed:     h.crashFired,
		Recovered:   h.recovered,
		RecoveredOK: h.recoveredOK,
		WALDecided:  make([]bool, n),
		WALValue:    make([]types.Value, n),
		Spans:       o.Spans.Graph().Spans,
		TimedOut:    timedOut,
		Vacuous:     vacuous,
	}
	for i, m := range managers {
		d, ok := m.DecisionOf(recovery.SoleTxn)
		data.Decided[i], data.Values[i] = ok, d.Value()
		logs[i].Kill()
		if d, ok := journaled(fss[i]); ok {
			data.WALDecided[i], data.WALValue[i] = true, d.Value()
		}
	}
	return AuditCluster(p, data), data, runErr
}

// journaled replays the decision log on fs and reports the one
// transaction's journaled decision.
func journaled(fs *wal.MemFS) (types.Decision, bool) {
	dl, err := wal.OpenDecisionLog(wal.SegmentedOptions{FS: fs})
	if err != nil {
		return types.DecisionNone, false
	}
	defer dl.Close() //nolint:errcheck // read-only replay
	d, ok := dl.Recovered()[recovery.SoleTxn]
	return d, ok
}

// restartNode brings crashed processor pid back after the given delay,
// once its goroutine has stopped: it reconnects the processor at the hub
// and answers from its journal, or, when the journal holds no decision,
// runs the recovery client over the processor's endpoint and journals what
// the client learns. ok is false if nothing was learned before ctx ended.
func restartNode(ctx context.Context, cl *runtime.Cluster, pid types.ProcID, fs *wal.MemFS, after time.Duration, p *Plan, o RunOptions) (types.Value, bool) {
	timer := time.NewTimer(after)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-ctx.Done():
		return 0, false
	}
	select {
	case <-cl.Node(pid).Done():
	case <-ctx.Done():
		return 0, false
	}
	dl, err := wal.OpenDecisionLog(wal.SegmentedOptions{FS: fs})
	if err != nil {
		return 0, false
	}
	defer dl.Close() //nolint:errcheck // the harness reads it back after the run
	cl.Restart(pid)
	if d, ok := dl.Recovered()[recovery.SoleTxn]; ok {
		return d.Value(), true
	}
	client, err := recovery.NewClient(recovery.ClientConfig{ID: pid, N: p.Cfg.N, QueryEvery: 4})
	if err != nil {
		return 0, false
	}
	node, err := runtime.NewNode(runtime.NodeConfig{
		Machine:   client,
		Transport: cl.Hub().Endpoint(pid),
		Rand:      rng.NewStream(p.Cfg.Seed ^ 0x5bd1e995*(uint64(pid)+1)),
		TickEvery: o.TickEvery,
		MaxTicks:  o.BudgetTicks,
		Registry:  o.Registry,
	})
	if err != nil {
		return 0, false
	}
	node.Start(ctx)
	select {
	case <-node.Done():
	case <-ctx.Done():
		node.Stop()
		<-node.Done()
	}
	v, ok := client.Decision()
	if ok {
		dl.AppendSync(recovery.SoleTxn, types.DecisionOf(v)) //nolint:errcheck // the in-memory log cannot fail
	}
	return v, ok
}
