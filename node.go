package tcommit

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/recovery"
	"repro/internal/rng"
	"repro/internal/runtime"
	"repro/internal/transport"
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
	// TickEvery is the step period (default 5ms).
	TickEvery time.Duration
	// MaxTicks bounds the node's lifetime (default 10000).
	MaxTicks int
	// ServeOutcomeTicks keeps a decided node alive that many further
	// ticks to answer outcome queries from recovering peers (default 64).
	ServeOutcomeTicks int
	// JournalPath, if set, names the directory (created if absent) that
	// write-ahead-logs the node's protocol transitions; a path naming a
	// regular file is refused. On restart with the same path, StartNode
	// detects the prior participation: a journaled decision is returned
	// immediately, and an unfinished journal switches the node into
	// recovery mode (it polls peers for the outcome instead of re-joining
	// the protocol — the paper's "opportunity to recover").
	JournalPath string
}

// Node is one live TCP processor.
type Node struct {
	tn   *transport.TCPNode
	node *runtime.Node
	m    types.Machine
	// jlMu guards jl: Run and Kill may both try to close the journal
	// (Kill races Run's teardown when a test crashes a running node).
	jlMu sync.Mutex
	jl   *wal.NodeLog
	// recovered short-circuits Run when the journal already held a
	// decision.
	recovered *Decision
	mode      string
}

// StartNode launches one processor of a TCP cluster. The returned Node is
// already listening; call SetPeers (if the directory was not complete),
// then Run.
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
	if spec.ServeOutcomeTicks <= 0 {
		spec.ServeOutcomeTicks = 64
	}

	// Journal replay decides the node's mode.
	var state wal.State
	var nlog *wal.NodeLog
	hasJournal := false
	if spec.JournalPath != "" {
		nl, st, has, err := wal.OpenNodeLog(spec.JournalPath, wal.SegmentedOptions{})
		if err != nil {
			return nil, fmt.Errorf("tcommit: replay journal: %w", err)
		}
		nlog, state, hasJournal = nl, st, has
	}
	if state.Decided {
		nlog.Close() //nolint:errcheck // nothing was appended
		d := types.DecisionOf(state.Decision)
		return &Node{recovered: &d, mode: "journal"}, nil
	}

	var machine types.Machine
	mode := "protocol"
	switch {
	case hasJournal:
		// Unfinished participation: recover the outcome from peers.
		client, err := recovery.NewClient(recovery.ClientConfig{
			ID: spec.ID, N: cfg.N, Resume: state,
		})
		if err != nil {
			nlog.Close() //nolint:errcheck
			return nil, err
		}
		machine = client
		mode = "recovery"
	default:
		vote := types.V0
		if spec.Vote {
			vote = types.V1
		}
		mc := cfg.machineTemplate()
		mc.ID, mc.Vote = spec.ID, vote
		m, err := core.New(mc)
		if err != nil {
			nlog.Close() //nolint:errcheck
			return nil, err
		}
		machine = m
	}

	// A recovery-mode node keeps its journal open too: Run appends the
	// adopted decision to it.
	n := &Node{mode: mode, jl: nlog}
	if nlog != nil && mode == "protocol" {
		machine = wal.NewLoggedCommit(machine.(*core.Commit), nlog)
	}
	// Every running node answers outcome queries once decided, then
	// lingers briefly so restarting peers can catch it.
	machine = &recovery.Responder{Inner: machine, Linger: spec.ServeOutcomeTicks}

	tn, err := transport.ListenTCP(spec.ID, spec.Listen)
	if err != nil {
		n.closeJournal()
		return nil, err
	}
	if spec.Peers != nil {
		tn.SetPeers(spec.Peers)
	}
	node, err := runtime.NewNode(runtime.NodeConfig{
		Machine:   machine,
		Transport: tn,
		Rand:      rng.NewStream(cfg.Seed ^ (uint64(spec.ID)+1)*0x9e3779b97f4a7c15),
		TickEvery: spec.TickEvery,
		MaxTicks:  spec.MaxTicks,
	})
	if err != nil {
		tn.Close() //nolint:errcheck
		n.closeJournal()
		return nil, err
	}
	n.tn, n.node, n.m = tn, node, machine
	return n, nil
}

// Mode reports how the node started: "protocol" (normal participation),
// "recovery" (unfinished journal; polling peers for the outcome), or
// "journal" (decision already journaled; Run returns immediately).
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
	n.closeJournal()
}

// Run drives the node until it decides and quiesces (or ctx ends), then
// returns its decision (None if it never decided).
func (n *Node) Run(ctx context.Context) (Decision, error) {
	if n.recovered != nil {
		return *n.recovered, nil
	}
	n.node.Start(ctx)
	err := n.node.Wait()
	closeErr := n.tn.Close()
	if err == nil {
		err = closeErr
	}
	v, decided := n.m.Decision()
	// A recovery-mode node journals the adopted decision so the next
	// restart short-circuits offline.
	if decided && n.mode == "recovery" {
		if jErr := n.journalDecision(v); jErr != nil && err == nil {
			err = jErr
		}
	}
	if jErr := n.closeJournal(); jErr != nil && err == nil {
		err = jErr
	}
	if lc, ok := innerLogged(n.m); ok {
		if wErr := lc.Err(); wErr != nil && err == nil {
			err = wErr
		}
	}
	if decided {
		return types.DecisionOf(v), err
	}
	return None, err
}

// journalDecision appends a decision record to the open journal, if the
// node has one (Kill may already have closed it: a crashed node journals
// nothing more).
func (n *Node) journalDecision(v types.Value) error {
	n.jlMu.Lock()
	jl := n.jl
	n.jlMu.Unlock()
	if jl == nil {
		return nil
	}
	return jl.Append(wal.Record{Type: wal.RecordDecision, Value: v})
}

func (n *Node) closeJournal() error {
	n.jlMu.Lock()
	jl := n.jl
	n.jl = nil
	n.jlMu.Unlock()
	if jl == nil {
		return nil
	}
	return jl.Close()
}

// innerLogged digs the LoggedCommit out of the responder wrapper.
func innerLogged(m types.Machine) (*wal.LoggedCommit, bool) {
	r, ok := m.(*recovery.Responder)
	if !ok {
		return nil, false
	}
	lc, ok := r.Inner.(*wal.LoggedCommit)
	return lc, ok
}
