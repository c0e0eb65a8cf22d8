package tcommit

import (
	"context"
	"time"

	"repro/internal/recovery"
	"repro/internal/runtime"
	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/types"
)

// Cluster is a live in-memory deployment of the protocol: one goroutine
// per processor, each running a transaction manager (the machine the
// commit service runs), connected through a lossy, delayable hub.
type Cluster struct {
	inner    *runtime.Cluster
	managers []*txn.Manager
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

// WithTick sets the period of the timeout clock (default 2ms). The
// protocol's timing constant K is measured in ticks, so K*tick is the
// on-time bound in wall time; it bounds how late a message may be, not how
// soon one is acted on — every processor acts on a message as it arrives.
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

// NewCluster builds a live in-memory cluster that commits one transaction,
// begun by processor 0, with the given votes.
func NewCluster(cfg Config, votes []bool, opts ...ClusterOption) (*Cluster, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if _, err := votesToValues(cfg.N, votes); err != nil {
		return nil, err
	}
	c, err := newCluster(cfg, func(p ProcID, _ txn.ID) bool { return votes[p] }, opts)
	if err != nil {
		return nil, err
	}
	if err := c.managers[0].Begin(recovery.SoleTxn, votes[0]); err != nil {
		return nil, err
	}
	return c, nil
}

// newCluster is the one constructor behind NewCluster and RunTransactions:
// a transaction manager per processor, processor p voting vote(p, id) on
// each transaction it joins, over a fresh hub. Nothing is begun yet.
func newCluster(cfg Config, vote func(p ProcID, id txn.ID) bool, opts []ClusterOption) (*Cluster, error) {
	var settings clusterSettings
	for _, o := range opts {
		o(&settings)
	}
	c := &Cluster{managers: make([]*txn.Manager, cfg.N)}
	for i := range c.managers {
		p := ProcID(i)
		mgr, err := txn.NewManager(txn.Config{
			ID: p, N: cfg.N, T: cfg.T, K: cfg.K, CoinFactor: cfg.CoinFactor,
			Vote: func(id txn.ID) bool { return vote(p, id) },
		})
		if err != nil {
			return nil, err
		}
		c.managers[i] = mgr
	}
	inner, err := runtime.NewCluster(types.Machines(c.managers), nil, runtime.ClusterOptions{
		TickEvery: settings.tickEvery,
		MaxTicks:  settings.maxTicks,
		Seed:      cfg.Seed,
		Hub:       settings.hubOptions(),
	})
	if err != nil {
		return nil, err
	}
	c.inner = inner
	return c, nil
}

// decisions reads transaction id's decision at every processor (None
// where it has none).
func (c *Cluster) decisions(id txn.ID) []Decision {
	out := make([]Decision, len(c.managers))
	for p, m := range c.managers {
		out[p], _ = m.DecisionOf(id)
	}
	return out
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
	if err := c.inner.Run(ctx); err != nil {
		return nil, err
	}
	return &ClusterOutcome{Decisions: c.decisions(recovery.SoleTxn)}, nil
}
