package tcommit

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/runtime"
	"repro/internal/transport"
	"repro/internal/types"
)

// Cluster is a live in-memory deployment of the protocol: one goroutine
// per processor connected through a lossy, delayable hub.
type Cluster struct {
	inner *runtime.Cluster
	n     int
}

// ClusterOption customizes a live cluster.
type ClusterOption func(*clusterSettings)

type clusterSettings struct {
	tickEvery time.Duration
	maxTicks  int
	delay     func(from, to ProcID) time.Duration
	loss      func(from, to ProcID) bool
}

// hubOptions folds the loss and delay callbacks into the hub's one
// injector: loss is asked first, and a dropped message is never delayed.
func (s *clusterSettings) hubOptions() transport.HubOptions {
	return transport.HubOptions{Inject: func(m types.Message) transport.Fault {
		var f transport.Fault
		if s.loss != nil {
			f.Drop = s.loss(m.From, m.To)
		}
		if s.delay != nil && !f.Drop {
			f.Delay = s.delay(m.From, m.To)
		}
		return f
	}}
}

// WithTick sets the clock period (default 2ms). The protocol's timing
// constant K is measured in ticks, so K*tick is the on-time bound in wall
// time. A single-transaction machine takes one step per tick; the
// transaction managers of RunTransactions also act on messages as they
// arrive, between ticks.
func WithTick(d time.Duration) ClusterOption {
	return func(s *clusterSettings) { s.tickEvery = d }
}

// WithMaxTicks bounds each node's lifetime (default 10000 ticks).
func WithMaxTicks(ticks int) ClusterOption {
	return func(s *clusterSettings) { s.maxTicks = ticks }
}

// WithNetworkDelay injects per-message latency.
func WithNetworkDelay(f func(from, to ProcID) time.Duration) ClusterOption {
	return func(s *clusterSettings) { s.delay = f }
}

// WithNetworkLoss injects per-message loss.
func WithNetworkLoss(f func(from, to ProcID) bool) ClusterOption {
	return func(s *clusterSettings) { s.loss = f }
}

// NewCluster builds a live in-memory cluster with the given votes.
func NewCluster(cfg Config, votes []bool, opts ...ClusterOption) (*Cluster, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	vals, err := votesToValues(cfg.N, votes)
	if err != nil {
		return nil, err
	}
	var settings clusterSettings
	for _, o := range opts {
		o(&settings)
	}
	set, err := core.NewSet(cfg.machineTemplate(), vals)
	if err != nil {
		return nil, err
	}
	inner, err := runtime.NewLocalCluster(types.Machines(set), runtime.ClusterOptions{
		TickEvery: settings.tickEvery,
		MaxTicks:  settings.maxTicks,
		Seed:      cfg.Seed,
		Hub:       settings.hubOptions(),
	})
	if err != nil {
		return nil, err
	}
	return &Cluster{inner: inner, n: cfg.N}, nil
}

// CrashAfter schedules processor p to crash (stop and disconnect) after d.
// Call before Run.
func (c *Cluster) CrashAfter(p ProcID, d time.Duration) {
	c.inner.CrashAfter(p, d)
}

// ClusterOutcome is the result of a live run.
type ClusterOutcome struct {
	// Decisions[p] is each processor's final outcome (None if undecided,
	// e.g. crashed or blocked).
	Decisions []Decision
}

// Unanimous returns the common decision among deciders if they all agree
// and at least one decided.
func (o *ClusterOutcome) Unanimous() (Decision, bool) {
	var d Decision
	for _, dp := range o.Decisions {
		if dp == None {
			continue
		}
		if d == None {
			d = dp
		} else if d != dp {
			return None, false
		}
	}
	return d, d != None
}

// Run executes the cluster until every node decides and quiesces (or the
// context ends / tick budgets expire).
func (c *Cluster) Run(ctx context.Context) (*ClusterOutcome, error) {
	res, err := c.inner.Run(ctx)
	if err != nil {
		return nil, err
	}
	return &ClusterOutcome{Decisions: res.Decisions()}, nil
}
