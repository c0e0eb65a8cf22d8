// Package runtime executes protocol machines live: one goroutine per
// processor, a Transport carrying messages, and a clock that exists only
// for timeouts. It is the deployment-shaped counterpart of the simulator —
// the same machines, scheduled by arrivals and wall-clock time instead of
// an adversary.
//
// An event of the formal model hands a processor some messages (§2.1); here
// a node's machine takes a delivery without advancing its clock — both live
// machines do: txn.Manager, and the recovery client of a restarted node — so
// it is handed its messages the moment they arrive, and its clock ticks once
// per TickEvery elapsed: the Step that timeouts are counted in. A machine's
// messages to itself never reach the transport: the node hands them straight
// back. The timing constant K of the protocol configs is K*TickEvery of wall
// time; it bounds how late a message may be, not how soon one is acted on.
//
// A node owes itself one tick per TickEvery elapsed since its epoch (its
// Cluster's Start, or its own) — alone or beside a crashed peer up to one
// fire's lateness, else only the tick due — and takes what it owes, one
// loop pass at a time, when its ticker fires or while it is still behind. A node of a Cluster takes a tick no sooner than its slowest
// live peer has taken the previous one: co-hosted processors starved of CPU
// fall behind together instead of timing each other out (DESIGN §13). A
// standalone node is the same rule with no peers.
package runtime

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/rng"
	"repro/internal/transport"
	"repro/internal/types"
)

// lingerTicks keeps a decided-and-halted node stepping a little longer
// so its final broadcasts drain.
const lingerTicks = 8

// NodeConfig configures one live node.
type NodeConfig struct {
	// Machine is what the node runs; it must also take deliveries
	// between ticks (a Deliver method, see deliverer).
	Machine   types.Machine
	Transport transport.Transport
	Rand      types.Rand
	// TickEvery is the period of the timeout clock (default 2ms): the
	// machine's Step runs once per period, however often messages arrive.
	TickEvery time.Duration
	// MaxTicks bounds the node's lifetime (default 10000 ticks); the
	// paper's protocol may legitimately never decide when too many peers
	// crash, and a live node must not spin forever.
	MaxTicks int
	// Persistent keeps the node stepping even when its machine reports
	// Halted — the service mode, where a transaction manager quiesces
	// between batches but must stay responsive for new work. A
	// persistent node stops only via Stop, context cancellation, or (if
	// MaxTicks > 0) the tick budget; MaxTicks <= 0 means unbounded.
	Persistent bool
	// Registry, if non-nil, receives the node's runtime metrics (steps
	// taken, messages consumed and produced, labeled by node id).
	Registry *obs.Registry
}

// nodeMetrics bundles one node's handles into the shared registry. All
// handles are nil no-ops when no registry is configured.
type nodeMetrics struct {
	steps   *obs.Counter
	msgsIn  *obs.Counter
	msgsOut *obs.Counter
}

func newNodeMetrics(reg *obs.Registry, p types.ProcID) nodeMetrics {
	node := strconv.Itoa(int(p))
	return nodeMetrics{
		steps: reg.CounterVec("runtime_node_steps_total",
			"Machine invocations (clock ticks and between-tick deliveries), by node.", "node").With(node),
		msgsIn: reg.CounterVec("runtime_node_messages_received_total",
			"Messages consumed by the machine, by node.", "node").With(node),
		msgsOut: reg.CounterVec("runtime_node_messages_sent_total",
			"Messages produced by the machine, by node.", "node").With(node),
	}
}

// deliverer is a machine that can be handed messages between clock ticks:
// Deliver is Step without the tick.
type deliverer interface {
	types.Machine
	Deliver(received []types.Message, rnd types.Rand) []types.Message
}

// Node runs one machine.
type Node struct {
	cfg     NodeConfig
	machine deliverer // cfg.Machine
	m       nodeMetrics
	done    chan struct{}
	stop    chan struct{}
	// wake asks for a delivery with no message behind it (see Wake), and
	// nudge for a try at an owed tick, which the node sends itself while
	// still behind. One slot each, because one pending request covers any
	// number.
	wake, nudge chan struct{}
	// taken counts the ticks the node has taken, and its peers read it; it
	// owes one per TickEvery since epoch, less passed, the periods it let
	// pass. peers is its cluster (itself included), nil for a standalone
	// node; skipped counts the ticker fires in a row the gate let pass (see
	// takeTick).
	taken   atomic.Int64
	epoch   time.Time
	passed  int64
	peers   []*Node
	skipped int
	buf     []types.Message // drain scratch
	// self holds the machine's messages to itself until its next run; they
	// never reach the transport.
	self []types.Message

	mu       sync.Mutex
	err      error
	stopOnce sync.Once
}

// NewNode validates the configuration and prepares a node.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Machine == nil {
		return nil, errors.New("runtime: nil machine")
	}
	if cfg.Transport == nil {
		return nil, errors.New("runtime: nil transport")
	}
	if cfg.Rand == nil {
		return nil, errors.New("runtime: nil rand")
	}
	d, ok := cfg.Machine.(deliverer)
	if !ok {
		return nil, fmt.Errorf("runtime: a %T takes no deliveries between ticks (no Deliver method)", cfg.Machine)
	}
	if cfg.TickEvery <= 0 {
		cfg.TickEvery = 2 * time.Millisecond
	}
	if cfg.MaxTicks <= 0 {
		if cfg.Persistent {
			cfg.MaxTicks = 0 // unbounded
		} else {
			cfg.MaxTicks = 10_000
		}
	}
	return &Node{cfg: cfg, machine: d, m: newNodeMetrics(cfg.Registry, cfg.Machine.ID()),
		done: make(chan struct{}), stop: make(chan struct{}), wake: make(chan struct{}, 1), nudge: make(chan struct{}, 1)}, nil
}

// Start launches the node's goroutine; a node not started by its Cluster
// counts its ticks from now. Call Wait (or receive on Done) to join it.
func (n *Node) Start(ctx context.Context) {
	if n.epoch.IsZero() {
		n.epoch = time.Now()
	}
	go n.run(ctx)
}

// Done returns a channel closed when the node has stopped.
func (n *Node) Done() <-chan struct{} { return n.done }

// Stop asks the node to stop after its current step.
func (n *Node) Stop() { n.stopOnce.Do(func() { close(n.stop) }) }

// Wake makes the node run its machine now rather than at the next tick —
// for work handed to the machine from outside the transport (a batch begun
// on a txn.Manager). It never blocks.
func (n *Node) Wake() { signal(n.wake) }

// live reports whether the node still takes clock ticks: neither stopped
// (a crash stops it) nor finished.
func (n *Node) live() bool {
	select {
	case <-n.stop:
		return false
	case <-n.done:
		return false
	default:
		return true
	}
}

// Wait blocks until the node stops and returns its terminal error, if any.
func (n *Node) Wait() error {
	<-n.done
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.err
}

func (n *Node) run(ctx context.Context) {
	defer close(n.done)
	ticker := time.NewTicker(n.cfg.TickEvery)
	defer ticker.Stop()
	recv := n.cfg.Transport.Recv()
	id := n.machine.ID()
	linger := -1
	for n.cfg.MaxTicks <= 0 || n.taken.Load() < int64(n.cfg.MaxTicks) {
		var out []types.Message
		tick, fired := false, false
		n.buf = n.buf[:0]
		// The machine gets its own messages back at once — but through the
		// select, so one that answers itself on every delivery still yields
		// to a stop, a cancellation or a tick.
		var own <-chan struct{}
		if len(n.self) > 0 {
			own = ready
		}
		select {
		case <-ctx.Done():
			n.setErr(ctx.Err())
			return
		case <-n.stop:
			return
		case <-ticker.C:
			tick, fired = true, true
		case <-n.nudge:
			tick = true
		case m, ok := <-recv:
			if !ok {
				recv = nil // transport closed; the stop follows
				continue
			}
			n.buf = append(n.buf, m)
			out = n.machine.Deliver(n.inbox(), n.cfg.Rand)
		case <-n.wake:
			out = n.machine.Deliver(n.inbox(), n.cfg.Rand)
		case <-own:
			out = n.machine.Deliver(n.inbox(), n.cfg.Rand)
		}
		if tick {
			if !n.takeTick(fired) {
				continue
			}
			out = n.machine.Step(n.inbox(), n.cfg.Rand)
		}
		n.m.steps.Inc()
		n.m.msgsIn.Add(uint64(len(n.buf)))
		n.m.msgsOut.Add(uint64(len(out)))
		for i := range out {
			if out[i].To == id {
				msg := out[i]
				msg.From = id
				n.self = append(n.self, msg)
				continue
			}
			if err := n.cfg.Transport.Send(out[i]); err != nil {
				n.setErr(fmt.Errorf("runtime: node %d send: %w", id, err))
				return
			}
		}
		if tick && !n.cfg.Persistent && n.machine.Halted() {
			if linger < 0 {
				linger = lingerTicks
			}
			linger--
			if linger <= 0 {
				return
			}
		}
	}
}

// maxClockSkips bounds how many ticker fires in a row a node lets pass
// waiting for a peer: a peer that is wedged but not crashed stretches the
// node's timeouts by at most this factor plus one instead of freezing them.
const maxClockSkips = 4

// maxOwed bounds the debt of a node alone or beside a crashed peer: the
// tick owed now and the one a ticker fire that came a period late dropped.
const maxOwed = 2

// takeTick takes one owed tick if the gate lets it and reports whether it
// did. A node owes one tick per TickEvery elapsed since its epoch, less the
// periods it let pass, and never takes one before it is owed; while more
// are owed it nudges itself, so it takes them one loop pass at a time.
//
// Alone or beside a crashed peer it owes up to maxOwed, so a crash is timed
// out after 2K*TickEvery of wall time: an idle timer fires up to a period
// late, and the tick of the fire that lateness dropped is not lost. While
// every peer is live it owes only the tick due now, and lets a period it
// was late for pass. Then a timeout that runs can only be a spurious abort
// in the making, and the periods a starved node misses are slack for a
// frame held in a goroutine starved beside it; with a peer down, every
// transaction waiting on that peer aborts anyway. A stall is never
// replayed.
//
// The gate lets a tick wait while some live peer has taken fewer ticks than
// the node has, at most maxClockSkips ticker fires in a row. Node
// goroutines sharing a machine are scheduled unevenly: ticking freely, a
// node that was runnable but not running for a few periods is seen by its
// peers, whose clocks ran on, as a late voter, and all-YES transactions
// abort on the 2K timeout. Gated, the nodes fall behind together, which is
// a legal schedule of the paper's model (K relates message delay to steps
// of the processors, not to wall time). A crashed, stopped or finished
// peer is not live and never holds the node.
func (n *Node) takeTick(fired bool) bool {
	most := int64(1)
	if n.peers == nil || n.peerDown() {
		most = maxOwed
	}
	taken, owed := n.taken.Load(), int64(time.Since(n.epoch)/n.cfg.TickEvery)-n.passed
	if owed > taken+most {
		n.passed += owed - taken - most
		owed = taken + most
	}
	if taken >= owed {
		return false
	}
	if n.skipped < maxClockSkips {
		for _, p := range n.peers {
			if p.taken.Load() < taken && p.live() {
				if fired {
					n.skipped++
				}
				return false
			}
		}
	}
	n.skipped = 0
	n.taken.Add(1)
	if taken+1 < owed {
		signal(n.nudge)
	}
	return true
}

// peerDown reports whether some member of the node's cluster is not live.
func (n *Node) peerDown() bool {
	for _, p := range n.peers {
		if !p.live() {
			return true
		}
	}
	return false
}

// signal leaves a request in a one-slot channel without blocking.
func signal(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

// ready is always ready to receive from: the select case that hands a
// machine its own messages is armed with it.
var ready = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// inbox appends the machine's own pending messages and then everything
// queued on the transport to n.buf, and returns it.
func (n *Node) inbox() []types.Message {
	n.buf = append(n.buf, n.self...)
	n.self = n.self[:0]
	return n.drain()
}

// drain appends every message currently queued to n.buf without blocking
// and returns it. The buffer is reused: machines consume their input
// within the call (the types.Machine contract the simulator relies on too).
func (n *Node) drain() []types.Message {
	for {
		select {
		case m, ok := <-n.cfg.Transport.Recv():
			if !ok {
				return n.buf
			}
			n.buf = append(n.buf, m)
		default:
			return n.buf
		}
	}
}

func (n *Node) setErr(err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.err == nil {
		n.err = err
	}
}

// Cluster runs a set of machines, one node each, over a transport set:
// the endpoints of an in-memory hub it owns, or transports the caller
// supplied (TCP nodes already listening and peered, say).
type Cluster struct {
	hub     *transport.Hub // nil over supplied transports
	trs     []transport.Transport
	nodes   []*Node
	crashed []atomic.Bool
	crashes *obs.CounterVec
	spans   *span.Collector

	// timerMu guards timers; closed gates timer callbacks so a CrashAfter
	// firing late cannot touch a hub that Wait has already closed.
	timerMu sync.Mutex
	timers  []*time.Timer
	closed  atomic.Bool
}

// ClusterOptions configures NewCluster.
type ClusterOptions struct {
	// TickEvery is the period of every node's timeout clock — see
	// NodeConfig.TickEvery.
	TickEvery time.Duration
	MaxTicks  int
	Seed      uint64
	// Hub configures the hub a cluster builds for itself; it is not
	// consulted over supplied transports.
	Hub transport.HubOptions
	// Persistent makes every node ignore machine quiescence and step
	// until stopped — see NodeConfig.Persistent.
	Persistent bool
	// Registry, if non-nil, receives every node's runtime metrics and the
	// hub's transport metrics (unless Hub.Registry is already set).
	Registry *obs.Registry
	// Spans, if non-nil, receives a crash milestone per Crash and a
	// recover milestone per Restart, and the hub's link spans (unless
	// Hub.Spans is already set).
	Spans *span.Collector
}

// NewCluster wires one node per machine over trs, machine p on trs[p].
// Nil trs builds a fresh hub from opts.Hub and uses its endpoints. Either
// way the cluster owns the transports from here on: Crash closes one,
// Wait the rest.
func NewCluster(machines []types.Machine, trs []transport.Transport, opts ClusterOptions) (*Cluster, error) {
	if len(machines) == 0 {
		return nil, errors.New("runtime: no machines")
	}
	c := &Cluster{
		trs:     trs,
		crashed: make([]atomic.Bool, len(machines)),
		crashes: opts.Registry.CounterVec("runtime_node_crashes_total",
			"Fail-stop crashes injected, by node.", "node"),
		spans: opts.Spans,
	}
	if trs == nil {
		if opts.Hub.Registry == nil {
			opts.Hub.Registry = opts.Registry
		}
		if opts.Hub.Spans == nil {
			opts.Hub.Spans = opts.Spans
		}
		c.hub = transport.NewHub(len(machines), opts.Hub)
		c.trs = make([]transport.Transport, len(machines))
		for i := range c.trs {
			c.trs[i] = c.hub.Endpoint(types.ProcID(i))
		}
	} else if len(trs) != len(machines) {
		return nil, fmt.Errorf("runtime: %d transports for %d machines", len(trs), len(machines))
	}
	seeds := rng.NewCollection(opts.Seed, len(machines))
	for i, m := range machines {
		node, err := NewNode(NodeConfig{
			Machine:    m,
			Transport:  c.trs[i],
			Rand:       seeds.Stream(types.ProcID(i)),
			TickEvery:  opts.TickEvery,
			MaxTicks:   opts.MaxTicks,
			Persistent: opts.Persistent,
			Registry:   opts.Registry,
		})
		if err != nil {
			return nil, err
		}
		c.nodes = append(c.nodes, node)
	}
	for _, node := range c.nodes {
		node.peers = c.nodes
	}
	return c, nil
}

// Hub exposes the cluster's own hub for fault injection; nil over
// supplied transports.
func (c *Cluster) Hub() *transport.Hub { return c.hub }

// Node returns node p.
func (c *Cluster) Node(p types.ProcID) *Node { return c.nodes[p] }

// Start launches every node without waiting. Pair with Wait (and,
// optionally, Stop) — the long-running service lifecycle. Run bundles the
// three for batch workloads.
func (c *Cluster) Start(ctx context.Context) {
	epoch := time.Now() // the nodes owe their ticks from one instant
	for _, n := range c.nodes {
		n.epoch = epoch
		n.Start(ctx)
	}
}

// Stop asks every node to stop after its current step. Wait still must be
// called to join the goroutines and release the hub.
func (c *Cluster) Stop() {
	for _, n := range c.nodes {
		n.Stop()
	}
}

// Wait joins every node goroutine, closes the transports, and returns the
// first error. A deliberately crashed node dies mid-send and its
// transport is closed twice; those errors are the fault model at work,
// not a shutdown failure, and are ignored. The cluster's own hub closes
// as a whole, after in-flight delayed messages settle, so a Stop/Wait
// pair is a clean drain. Pending CrashAfter timers are disarmed first: a
// crash scheduled for after the cluster's lifetime must not fire into a
// closed hub.
func (c *Cluster) Wait() error {
	var firstErr error
	keep := func(p int, err error) {
		if err != nil && firstErr == nil && !c.crashed[p].Load() {
			firstErr = err
		}
	}
	for p, n := range c.nodes {
		keep(p, n.Wait())
	}
	c.closed.Store(true)
	c.timerMu.Lock()
	for _, t := range c.timers {
		t.Stop()
	}
	c.timers = nil
	c.timerMu.Unlock()
	if c.hub != nil {
		if err := c.hub.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		return firstErr
	}
	for p, tr := range c.trs {
		keep(p, tr.Close())
	}
	return firstErr
}

// Run starts every node and waits for all to stop (or ctx to end); the
// machines hold what they decided.
func (c *Cluster) Run(ctx context.Context) error {
	c.Start(ctx)
	return c.Wait()
}

// Crash immediately crashes node p: the goroutine stops stepping and its
// transport closes, which on the cluster's own hub drops the node's
// traffic in both directions — the fail-stop fault model, injectable
// live. Crashing after Wait has closed the cluster is a no-op.
func (c *Cluster) Crash(p types.ProcID) {
	if c.closed.Load() {
		return
	}
	c.crashed[p].Store(true)
	c.trs[p].Close() //nolint:errcheck // best-effort fail-stop
	c.nodes[p].Stop()
	c.crashes.With(strconv.Itoa(int(p))).Inc()
	c.spans.Mark("", span.ProcTrack(int(p)), span.EventCrash, "")
}

// Restart reconnects a previously crashed node p's traffic at the hub and
// records the recover milestone. The stopped node goroutine is NOT revived —
// the caller runs a replacement machine (typically a recovery client) on
// Endpoint(p); see internal/chaos. No-op after the cluster closed, and
// over supplied transports, which Crash closed for good.
func (c *Cluster) Restart(p types.ProcID) {
	if c.closed.Load() || c.hub == nil {
		return
	}
	c.hub.Restart(p)
	c.spans.Mark("", span.ProcTrack(int(p)), span.EventRecover, "")
}

// CrashAfter schedules node p to stop and disconnect after d. It models a
// crash: the node's goroutine halts and the hub drops its traffic. The
// timer is tracked: if the cluster is waited out first, the pending crash
// is disarmed and a late firing is a guarded no-op — it can never touch a
// closed hub.
func (c *Cluster) CrashAfter(p types.ProcID, d time.Duration) {
	c.timerMu.Lock()
	defer c.timerMu.Unlock()
	if c.closed.Load() {
		return
	}
	c.timers = append(c.timers, time.AfterFunc(d, func() { c.Crash(p) }))
}
