package tcommit

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/recovery"
	"repro/internal/rng"
	"repro/internal/runtime"
	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/wal"
)

// NodeSpec describes one processor of a TCP deployment.
type NodeSpec struct {
	// ID is this processor's id (0 coordinates).
	ID ProcID
	// Listen is the TCP listen address ("127.0.0.1:0" for ephemeral).
	Listen string
	// Peers maps every processor id (including this one) to its address.
	// It may be set after StartNode via Node.SetPeers, e.g. once
	// ephemeral ports are known.
	Peers map[ProcID]string
	// Vote is this processor's vote (true = commit).
	Vote bool
	// TickEvery is the period of the timeout clock (default 5ms).
	TickEvery time.Duration
	// MaxTicks bounds the node's lifetime (default 10000).
	MaxTicks int
	// ServeOutcomeTicks keeps a decided node alive that many further
	// ticks to answer outcome queries from recovering peers (default 64).
	ServeOutcomeTicks int
	// JournalPath, if set, names the directory (created if absent) of the
	// node's decision journal; a path naming a regular file is refused.
	// The decision is durable before the node acts on it. On restart with
	// the same path, StartNode detects the prior participation: a
	// journaled decision is returned immediately, and a journal directory
	// that is present but holds no decision switches the node into
	// recovery mode (it polls peers for the outcome instead of rejoining
	// the protocol — the paper's "opportunity to recover").
	JournalPath string
}

// Node is one live TCP processor.
type Node struct {
	tn   *transport.TCPNode
	node *runtime.Node
	// mgr runs the transaction in protocol mode, client polls for its
	// outcome in recovery mode; the other is nil.
	mgr    *txn.Manager
	client *recovery.Client
	// jlMu guards jl and jErr: the node's goroutine journals its decision
	// while Kill may close the journal.
	jlMu sync.Mutex
	jl   *wal.DecisionLog
	jErr error
	// recovered short-circuits Run when the journal already held a
	// decision.
	recovered *Decision
	mode      string
}

// StartNode launches one processor of a TCP cluster: a transaction
// manager, the machine the commit service runs, with processor 0 beginning
// the one transaction. The returned Node is already listening; call
// SetPeers (if the directory was not complete), then Run.
func StartNode(cfg Config, spec NodeSpec) (*Node, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if int(spec.ID) < 0 || int(spec.ID) >= cfg.N {
		return nil, fmt.Errorf("tcommit: node id %d out of range [0,%d)", spec.ID, cfg.N)
	}
	if spec.TickEvery <= 0 {
		spec.TickEvery = 5 * time.Millisecond
	}
	if spec.MaxTicks <= 0 {
		spec.MaxTicks = 10_000
	}
	if spec.ServeOutcomeTicks <= 0 {
		spec.ServeOutcomeTicks = 64
	}

	// Journal replay decides the node's mode.
	n := &Node{mode: "protocol"}
	if spec.JournalPath != "" {
		_, statErr := os.Stat(spec.JournalPath)
		fs, err := wal.NewDirFS(spec.JournalPath)
		if err != nil {
			return nil, fmt.Errorf("tcommit: open journal: %w", err)
		}
		jl, err := wal.OpenDecisionLog(wal.SegmentedOptions{FS: fs})
		if err != nil {
			return nil, fmt.Errorf("tcommit: replay journal: %w", err)
		}
		if d, ok := jl.Recovered()[recovery.SoleTxn]; ok {
			jl.Close() //nolint:errcheck // nothing was appended
			return &Node{recovered: &d, mode: "journal"}, nil
		}
		n.jl = jl
		if statErr == nil {
			// An earlier run got as far as creating the journal: this one
			// restarts without the state it had, so it must not rejoin.
			n.mode = "recovery"
		}
	}

	var machine types.Machine
	if n.mode == "recovery" {
		n.client, err = recovery.NewClient(recovery.ClientConfig{ID: spec.ID, N: cfg.N})
		machine = n.client
	} else {
		// A protocol node keeps stepping after it decides, to answer
		// recovering peers, until ServeOutcomeTicks have passed.
		serve := time.Duration(spec.ServeOutcomeTicks) * spec.TickEvery
		n.mgr, err = txn.NewManager(txn.Config{
			ID: spec.ID, N: cfg.N, T: cfg.T, K: cfg.K, CoinFactor: cfg.CoinFactor,
			Vote: func(txn.ID) bool { return spec.Vote },
			OnOutcome: func(o txn.Outcome) {
				n.journal(o.Decision)
				time.AfterFunc(serve, n.node.Stop)
			},
		})
		if err == nil && spec.ID == 0 {
			err = n.mgr.Begin(recovery.SoleTxn, spec.Vote)
		}
		machine = n.mgr
	}
	if err != nil {
		n.closeJournal() //nolint:errcheck // the start failed first
		return nil, err
	}

	tn, err := transport.ListenTCP(spec.ID, spec.Listen)
	if err != nil {
		n.closeJournal() //nolint:errcheck
		return nil, err
	}
	if spec.Peers != nil {
		tn.SetPeers(spec.Peers)
	}
	node, err := runtime.NewNode(runtime.NodeConfig{
		Machine:    machine,
		Transport:  tn,
		Rand:       rng.NewStream(cfg.Seed ^ (uint64(spec.ID)+1)*0x9e3779b97f4a7c15),
		TickEvery:  spec.TickEvery,
		MaxTicks:   spec.MaxTicks,
		Persistent: n.mgr != nil, // stopped ServeOutcomeTicks after deciding
	})
	if err != nil {
		tn.Close()       //nolint:errcheck
		n.closeJournal() //nolint:errcheck
		return nil, err
	}
	n.tn, n.node = tn, node
	return n, nil
}

// Mode reports how the node started: "protocol" (normal participation),
// "recovery" (journal present without a decision; polling peers for the
// outcome), or "journal" (decision already journaled; Run returns
// immediately).
func (n *Node) Mode() string { return n.mode }

// Addr returns the node's bound TCP address ("" for journal-mode nodes).
func (n *Node) Addr() string {
	if n.tn == nil {
		return ""
	}
	return n.tn.Addr()
}

// SetPeers installs or extends the peer directory.
func (n *Node) SetPeers(peers map[ProcID]string) {
	if n.tn != nil {
		n.tn.SetPeers(peers)
	}
}

// Kill crashes the node: it stops stepping and disconnects. To the rest
// of the cluster it becomes silent, exactly the fail-stop fault model.
func (n *Node) Kill() {
	if n.node != nil {
		n.node.Stop()
	}
	if n.tn != nil {
		n.tn.Close() //nolint:errcheck // best-effort teardown of a dead node
	}
	n.closeJournal() //nolint:errcheck // a crashed node's journal error is moot
}

// Run drives the node until it decides and has served the outcome (or ctx
// ends), then returns its decision (None if it never decided).
func (n *Node) Run(ctx context.Context) (Decision, error) {
	if n.recovered != nil {
		return *n.recovered, nil
	}
	n.node.Start(ctx)
	err := n.node.Wait()
	if closeErr := n.tn.Close(); err == nil {
		err = closeErr
	}
	d := None
	if n.mgr != nil {
		d, _ = n.mgr.DecisionOf(recovery.SoleTxn)
	} else if v, ok := n.client.Decision(); ok {
		// The adopted decision is journaled, so the next restart
		// short-circuits offline.
		d = types.DecisionOf(v)
		n.journal(d)
	}
	if jErr := n.closeJournal(); err == nil {
		err = jErr
	}
	return d, err
}

// journal makes d durable in the node's journal, if it has one. Kill may
// close the journal first or meanwhile: a crashed node journals nothing
// more, and reports no error for it.
func (n *Node) journal(d Decision) {
	n.jlMu.Lock()
	jl := n.jl
	n.jlMu.Unlock()
	if jl == nil {
		return
	}
	if err := jl.AppendSync(recovery.SoleTxn, d); err != nil {
		n.jlMu.Lock()
		if n.jl != nil && n.jErr == nil {
			n.jErr = err
		}
		n.jlMu.Unlock()
	}
}

// closeJournal closes the journal and returns the first error it saw.
func (n *Node) closeJournal() error {
	n.jlMu.Lock()
	defer n.jlMu.Unlock()
	if n.jl != nil {
		if err := n.jl.Close(); n.jErr == nil {
			n.jErr = err
		}
		n.jl = nil
	}
	return n.jErr
}
