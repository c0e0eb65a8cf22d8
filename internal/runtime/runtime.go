// Package runtime executes protocol machines live: a Transport carrying
// messages, a clock that exists only for timeouts, and goroutines stepping
// the machines. It is the deployment-shaped counterpart of the simulator —
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
// A loop is one goroutine stepping machines with one time source. A Cluster
// over the in-memory hub it owns is driven when StartGroups starts it
// together with enough such clusters: at least GOMAXPROCS of them, and at
// least two. Then one loop, its group's driver, steps all n machines, their
// frames go through the hub's crash and fault rules into the driver's one
// queue, and the driver ticks every live machine together. Any such
// interleaving is a schedule of §2.1, in which the adversary may step any
// processor at any time (DESIGN §13). A standalone node, each node of a
// Cluster over supplied transports (TCP), and each node of a group started
// with cores to spare runs its own loop instead, reading its transport's
// channel. The shape is fixed when the cluster starts and holds for its
// lifetime; the package keeps no state shared across clusters.
//
// A loop owes one tick per TickEvery elapsed since its epoch (its Cluster's
// Start, or its node's) — alone or beside a crashed peer up to one fire's
// lateness, else only the tick due — and takes what it owes, one pass at a
// time, when its ticker fires or while it is still behind. The loop of one
// node of a Cluster takes a tick no sooner than its slowest live peer has
// taken the previous one: co-hosted processors starved of CPU fall behind
// together instead of timing each other out. Inside a driver that gate holds
// by construction.
package runtime

import (
	"context"
	"errors"
	"fmt"
	goruntime "runtime"
	"slices"
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
	steps    *obs.Counter
	msgsIn   *obs.Counter
	msgsOut  *obs.Counter
	handoffs *obs.Counter
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
		handoffs: reg.CounterVec("runtime_node_channel_handoffs_total",
			"Messages the node took from its transport's channel, each handed over by another goroutine "+
				"(0 inside a group driver), by node.", "node").With(node),
	}
}

// deliverer is a machine that can be handed messages between clock ticks:
// Deliver is Step without the tick.
type deliverer interface {
	types.Machine
	Deliver(received []types.Message, rnd types.Rand) []types.Message
}

// Node runs one machine; its loop steps it.
type Node struct {
	cfg     NodeConfig
	machine deliverer // cfg.Machine
	m       nodeMetrics
	// host is the loop stepping the node: its own, or its group's driver
	// when the group is driven.
	host atomic.Pointer[loop]
	// recv is the transport's channel, which the node's own loop reads;
	// nil for a node its group's driver feeds from the driver's queue.
	recv <-chan types.Message
	done chan struct{}
	// down is set once the node is stopped (a crash stops it) or has
	// ended: it takes no more steps. woken is a Wake not yet served.
	down, woken atomic.Bool
	// taken counts the ticks the node has taken; the loops of its peers
	// over supplied transports read it (the gate).
	taken atomic.Int64
	// The rest belongs to the host loop's goroutine.
	ended  bool
	linger int
	buf    []types.Message // this step's inbox
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
	n := &Node{cfg: cfg, machine: d, m: newNodeMetrics(cfg.Registry, cfg.Machine.ID()),
		recv: cfg.Transport.Recv(), done: make(chan struct{}), linger: -1}
	n.host.Store(newLoop([]*Node{n}, cfg.TickEvery))
	return n, nil
}

// Start launches a standalone node's goroutine, which counts its ticks from
// now. Call Wait (or receive on Done) to join it. A Cluster starts its own
// nodes.
func (n *Node) Start(ctx context.Context) {
	n.host.Load().start(ctx, time.Now())
}

// Done returns a channel closed when the node has stopped: its machine
// takes no more steps.
func (n *Node) Done() <-chan struct{} { return n.done }

// Stop asks the node to stop after its current step.
func (n *Node) Stop() {
	n.stopOnce.Do(func() {
		n.down.Store(true)
		n.host.Load().poke()
	})
}

// Wake makes the node run its machine now rather than at the next tick —
// for work handed to the machine from outside the transport (a batch begun
// on a txn.Manager). It never blocks.
func (n *Node) Wake() {
	n.woken.Store(true)
	signal(n.host.Load().wake)
}

// live reports whether the node still takes clock ticks: neither stopped
// (a crash stops it) nor ended.
func (n *Node) live() bool { return !n.down.Load() }

// Wait blocks until the node stops and returns its terminal error, if any.
func (n *Node) Wait() error {
	<-n.done
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.err
}

func (n *Node) setErr(err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.err == nil {
		n.err = err
	}
}

// inbox moves the machine's own pending messages and then everything
// queued on the node's transport channel to n.buf, and returns it. The
// buffer is reused: machines consume their input within the call (the
// types.Machine contract the simulator relies on too).
func (n *Node) inbox() []types.Message {
	n.buf = append(n.buf, n.self...)
	n.self = n.self[:0]
	for n.recv != nil {
		select {
		case m, ok := <-n.recv:
			if !ok {
				n.recv = nil // transport closed; the stop follows
				return n.buf
			}
			n.m.handoffs.Inc()
			n.buf = append(n.buf, m)
		default:
			return n.buf
		}
	}
	return n.buf
}

// A loop is one goroutine and one time source stepping machines: a node's
// own loop hosts that node, a group's driver every node of its Cluster.
// Both take ticks and route what a step emits the same way; they differ in
// how many machines they host and where frames wait for them.
type loop struct {
	// nodes are the hosted nodes, a driver's indexed by processor.
	nodes []*Node
	// peers are the nodes whose clocks hold this loop's ticks: the whole
	// cluster, this loop's node included, for a node of a Cluster that is
	// not driven; nil for a driver or a standalone node.
	peers []*Node
	// queue holds the frames a driver's hub delivered; nil for a node's own
	// loop, whose frames wait on its transport's channel.
	queue *queue
	every time.Duration
	epoch time.Time
	// keep runs a persistent cluster's driver on with no node left (a
	// restart may bring one back) until the cluster is stopped.
	keep bool
	// taken counts the ticks the loop has taken; it owes one per every
	// since epoch, less passed, the periods it let pass. skipped counts the
	// ticker fires in a row the gate let pass (see takeTick).
	taken, passed int64
	skipped       int
	live          int // hosted nodes not ended
	// wake asks for a delivery pass: a Wake, a stop, a restart or a frame
	// queued from another goroutine. nudge asks for a try at an owed tick,
	// which the loop sends itself while still behind. One slot each,
	// because one pending request covers any number.
	wake, nudge chan struct{}
	// dirty is set when a hosted node stopped or a restart joined: the next
	// pass sweeps. halted is the cluster's Stop.
	dirty, halted atomic.Bool
	done          chan struct{}

	mu     sync.Mutex
	joins  []*Node // restarted nodes for the driver to host
	exited bool
}

func newLoop(nodes []*Node, every time.Duration) *loop {
	return &loop{nodes: nodes, every: every, live: len(nodes),
		wake: make(chan struct{}, 1), nudge: make(chan struct{}, 1), done: make(chan struct{})}
}

func (l *loop) start(ctx context.Context, epoch time.Time) {
	l.epoch = epoch
	go l.run(ctx)
}

// poke makes the loop sweep its nodes at its next pass.
func (l *loop) poke() {
	l.dirty.Store(true)
	signal(l.wake)
}

func (l *loop) run(ctx context.Context) {
	defer close(l.done)
	ticker := time.NewTicker(l.every)
	defer ticker.Stop()
	var recv <-chan types.Message
	if l.queue == nil {
		recv = l.nodes[0].recv
	}
	for {
		if l.dirty.Swap(false) && !l.sweep() {
			return
		}
		// Pending work — a machine's own messages, queued frames — runs at
		// once, but through the select, so a machine that answers itself on
		// every delivery still yields to a stop, a cancellation or a tick.
		var own <-chan struct{}
		if l.pending() {
			own = ready
		}
		select {
		case <-ctx.Done():
			l.fail(ctx.Err())
			return
		case <-ticker.C:
			l.tick(true)
		case <-l.nudge:
			l.tick(false)
		case m, ok := <-recv:
			if !ok {
				recv = nil // transport closed; the stop follows
				continue
			}
			n := l.nodes[0]
			n.m.handoffs.Inc()
			n.buf = append(n.buf, m)
			l.deliver()
		case <-l.wake:
			l.deliver()
		case <-own:
			l.deliver()
		}
	}
}

// pending reports whether a hosted machine has work before the next tick.
func (l *loop) pending() bool {
	for _, n := range l.nodes {
		if n.live() && len(n.self) > 0 {
			return true
		}
	}
	return l.queue != nil && !l.queue.park()
}

// deliver runs every live hosted machine that has messages or a Wake.
func (l *loop) deliver() {
	l.collect()
	for _, n := range l.nodes {
		if n.live() {
			l.step(n, false)
		}
	}
}

// tick takes one owed tick, if the gate lets it, on every live hosted
// machine. Each Step takes everything queued for its machine, so a driver
// never times a frame out while it waits in the driver's own queue.
func (l *loop) tick(fired bool) {
	if !l.takeTick(fired) {
		return
	}
	l.collect()
	for _, n := range l.nodes {
		if n.live() {
			l.step(n, true)
		}
	}
}

// collect hands a driver's queued frames to their machines' inboxes, in
// arrival order. A frame for a stopped machine is dropped, as the hub drops
// one for a crashed node.
func (l *loop) collect() {
	if l.queue == nil {
		return
	}
	q := l.queue
	q.mu.Lock()
	for _, m := range q.msgs {
		if to := l.nodes[m.To]; to.live() {
			to.buf = append(to.buf, m)
		}
	}
	clear(q.msgs)
	q.msgs = q.msgs[:0]
	q.idle = false
	q.mu.Unlock()
}

// step runs n's machine once — a tick, or a delivery if it has messages or
// a Wake — and routes what it emits: messages to itself wait in n.self,
// the rest go to the transport.
func (l *loop) step(n *Node, tick bool) {
	in := n.inbox()
	if !tick {
		woken := n.woken.Load() && n.woken.Swap(false)
		if len(in) == 0 && !woken {
			return
		}
	}
	var out []types.Message
	if tick {
		n.taken.Add(1)
		out = n.machine.Step(in, n.cfg.Rand)
	} else {
		out = n.machine.Deliver(in, n.cfg.Rand)
	}
	n.buf = n.buf[:0]
	n.m.steps.Inc()
	n.m.msgsIn.Add(uint64(len(in)))
	n.m.msgsOut.Add(uint64(len(out)))
	id := n.machine.ID()
	for i := range out {
		if out[i].To == id {
			msg := out[i]
			msg.From = id
			n.self = append(n.self, msg)
			continue
		}
		if err := n.cfg.Transport.Send(out[i]); err != nil {
			n.setErr(fmt.Errorf("runtime: node %d send: %w", id, err))
			l.end(n)
			return
		}
	}
	if !tick {
		return
	}
	if n.cfg.MaxTicks > 0 && n.taken.Load() >= int64(n.cfg.MaxTicks) {
		l.end(n)
		return
	}
	if !n.cfg.Persistent && n.machine.Halted() {
		if n.linger < 0 {
			n.linger = lingerTicks
		}
		if n.linger--; n.linger <= 0 {
			l.end(n)
		}
	}
}

// end retires n for good: its machine takes no more steps.
func (l *loop) end(n *Node) {
	if n.ended {
		return
	}
	n.ended = true
	n.down.Store(true)
	l.live--
	l.dirty.Store(true)
	close(n.done)
}

// sweep ends the hosted nodes that were stopped, hosts restarted ones,
// and reports whether the loop has anything left to run.
func (l *loop) sweep() bool {
	halted := l.halted.Load()
	for _, n := range l.nodes {
		if halted || n.down.Load() {
			l.end(n)
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, n := range l.joins {
		l.nodes[n.machine.ID()] = n
		l.live++
	}
	l.joins = l.joins[:0]
	if halted || l.live == 0 && !l.keep {
		for _, n := range l.nodes {
			l.end(n)
		}
		l.exited = true
		return false
	}
	return true
}

// fail ends every hosted node with err.
func (l *loop) fail(err error) {
	for _, n := range l.nodes {
		if !n.ended {
			n.setErr(err)
			l.end(n)
		}
	}
	l.mu.Lock()
	l.exited = true
	l.mu.Unlock()
}

// join hands the driver a restarted node to host in place of its crashed
// one; false if the driver has exited.
func (l *loop) join(n *Node) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.exited {
		return false
	}
	l.joins = append(l.joins, n)
	l.poke()
	return true
}

// maxClockSkips bounds how many ticker fires in a row a node lets pass
// waiting for a peer: a peer that is wedged but not crashed stretches the
// node's timeouts by at most this factor plus one instead of freezing them.
const maxClockSkips = 4

// maxOwed bounds the debt of a loop alone or beside a crashed peer: the
// tick owed now and the one a ticker fire that came a period late dropped.
const maxOwed = 2

// takeTick takes one owed tick if the gate lets it and reports whether it
// did. A loop owes one tick per TickEvery elapsed since its epoch, less the
// periods it let pass, and never takes one before it is owed; while more
// are owed it nudges itself, so it takes them one pass at a time.
//
// Alone or beside a crashed peer it owes up to maxOwed, so a crash is timed
// out after 2K*TickEvery of wall time: an idle timer fires up to a period
// late, and the tick of the fire that lateness dropped is not lost. While
// every peer is live it owes only the tick due now, and lets a period it
// was late for pass. Then a timeout that runs can only be a spurious abort
// in the making, and the periods a starved loop misses are slack for a
// frame held in a goroutine starved beside it; with a peer down, every
// transaction waiting on that peer aborts anyway. A stall is never
// replayed.
//
// The gate, for the loop of one node of a Cluster, lets a tick wait while
// some live peer has taken fewer ticks than the node has, at most
// maxClockSkips ticker fires in a row. Node goroutines sharing a machine
// are scheduled unevenly: ticking freely, a node that was runnable but not
// running for a few periods is seen by its peers, whose clocks ran on, as
// a late voter, and all-YES transactions abort on the 2K timeout. Gated,
// the nodes fall behind together, which is a legal schedule of the paper's
// model (K relates message delay to steps of the processors, not to wall
// time). A crashed, stopped or finished peer is not live and never holds
// the node. A driver ticks all its machines at once, so it has no gate.
func (l *loop) takeTick(fired bool) bool {
	group := l.peers
	if group == nil {
		group = l.nodes
	}
	most := int64(1)
	if len(group) == 1 || anyDown(group) {
		most = maxOwed
	}
	taken, owed := l.taken, int64(time.Since(l.epoch)/l.every)-l.passed
	if owed > taken+most {
		l.passed += owed - taken - most
		owed = taken + most
	}
	if taken >= owed {
		return false
	}
	if l.skipped < maxClockSkips {
		for _, p := range l.peers {
			if p.taken.Load() < taken && p.live() {
				if fired {
					l.skipped++
				}
				return false
			}
		}
	}
	l.skipped = 0
	l.taken++
	if taken+1 < owed {
		signal(l.nudge)
	}
	return true
}

// anyDown reports whether some node of group is not live.
func anyDown(group []*Node) bool {
	for _, p := range group {
		if !p.live() {
			return true
		}
	}
	return false
}

// queue is a driver's inbox: every frame its hub delivered, in arrival
// order, for the driver to hand to its machines. Frames the driver's own
// machines send land here on the driver's goroutine, without a channel.
type queue struct {
	mu   sync.Mutex
	msgs []types.Message
	max  int
	// idle is set while the driver may be waiting in its select with the
	// queue empty: the next push wakes it.
	idle bool
	wake chan struct{}
}

// push queues m, and wakes the driver if it may be waiting. A full queue
// drops m, as a per-node channel that overflows does.
func (q *queue) push(m types.Message) bool {
	q.mu.Lock()
	if len(q.msgs) >= q.max {
		q.mu.Unlock()
		return false
	}
	q.msgs = append(q.msgs, m)
	wake := q.idle
	q.idle = false
	q.mu.Unlock()
	if wake {
		signal(q.wake)
	}
	return true
}

// park reports whether the queue is empty, and if so marks the driver as
// about to wait, so the next push wakes it.
func (q *queue) park() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.idle = len(q.msgs) == 0
	return q.idle
}

// signal leaves a request in a one-slot channel without blocking.
func signal(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

// ready is always ready to receive from: the select case that runs pending
// work is armed with it.
var ready = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// Cluster runs a set of machines as one group. Over the in-memory hub it
// owns, the group is driven — one driver goroutine steps every machine —
// when it starts together with enough such groups (StartGroups); else each
// machine's node runs its own loop over the hub's channels, gated by its
// peers' clocks. Over transports the caller supplied (TCP nodes already
// listening and peered, say), each node always runs its own loop. The shape
// is decided once, at start.
type Cluster struct {
	hub     *transport.Hub // nil over supplied transports
	trs     []transport.Transport
	nodes   []*Node
	opts    ClusterOptions
	crashed []atomic.Bool
	crashes *obs.CounterVec
	spans   *span.Collector

	// mu guards the cluster's lifecycle: driver (nil unless the group is
	// driven), restarted (the node a Restart runs for each processor), the
	// start context and timers. closed gates timer callbacks so a CrashAfter
	// firing late cannot touch a hub that Wait has already closed.
	mu        sync.Mutex
	driver    *loop
	restarted []*Node
	ctx       context.Context
	started   bool
	stopped   bool
	timers    []*time.Timer
	closed    atomic.Bool
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
		trs:       trs,
		opts:      opts,
		crashed:   make([]atomic.Bool, len(machines)),
		restarted: make([]*Node, len(machines)),
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
		node, err := c.newNode(m, seeds.Stream(types.ProcID(i)), opts.Persistent)
		if err != nil {
			return nil, err
		}
		c.nodes = append(c.nodes, node)
	}
	for _, node := range c.nodes {
		node.host.Load().peers = c.nodes
	}
	return c, nil
}

// newNode builds the node that runs m on its processor's transport.
func (c *Cluster) newNode(m types.Machine, rnd types.Rand, persistent bool) (*Node, error) {
	var tr transport.Transport
	if p := int(m.ID()); p >= 0 && p < len(c.trs) {
		tr = c.trs[p]
	}
	return NewNode(NodeConfig{
		Machine:    m,
		Transport:  tr,
		Rand:       rnd,
		TickEvery:  c.opts.TickEvery,
		MaxTicks:   c.opts.MaxTicks,
		Persistent: persistent,
		Registry:   c.opts.Registry,
	})
}

// Hub exposes the cluster's own hub for fault injection; nil over
// supplied transports.
func (c *Cluster) Hub() *transport.Hub { return c.hub }

// Node returns node p.
func (c *Cluster) Node(p types.ProcID) *Node { return c.nodes[p] }

// loopsLocked returns the goroutines that run the cluster: its driver, or
// one loop per node, a restarted one's included. Caller holds mu.
func (c *Cluster) loopsLocked() []*loop {
	if c.driver != nil {
		return []*loop{c.driver}
	}
	var out []*loop
	for _, n := range slices.Concat(c.nodes, c.restarted) {
		if n != nil {
			out = append(out, n.host.Load())
		}
	}
	return out
}

// Start launches the cluster's goroutines without waiting: StartGroups
// with this one cluster, which over its own hub is then never driven. Pair
// with Wait (and, optionally, Stop) — the long-running service lifecycle.
// Run bundles the three for batch workloads.
func (c *Cluster) Start(ctx context.Context) { StartGroups(ctx, c) }

// StartGroups launches the clusters' goroutines without waiting, and fixes
// each one's shape for its lifetime. The clusters over their own hubs are
// driven when they number at least GOMAXPROCS, and at least two. With fewer
// a driven group would leave cores idle; alone on one P it would decide
// each batch in one burst before its callers could queue the next, so
// batches would stay one wide. A cluster started by another call never
// counts: the shape is a function of this call's arguments.
func StartGroups(ctx context.Context, clusters ...*Cluster) {
	own := 0
	for _, c := range clusters {
		if c.hub != nil {
			own++
		}
	}
	drive := own >= max(2, goruntime.GOMAXPROCS(0))
	for _, c := range clusters {
		c.mu.Lock()
		if drive {
			c.driveLocked()
		}
		c.ctx, c.started = ctx, true
		epoch := time.Now() // the loops owe their ticks from one instant
		for _, l := range c.loopsLocked() {
			l.start(ctx, epoch)
		}
		c.mu.Unlock()
	}
}

// driveLocked makes the group driven before it starts: the hub hands every
// frame to the driver's queue, and the driver hosts every node. The first
// pass sweeps what was stopped and serves what was woken before the start.
// Caller holds mu.
func (c *Cluster) driveLocked() {
	if c.hub == nil || c.driver != nil {
		return
	}
	q := &queue{max: len(c.nodes) * transport.HubQueueSize}
	d := newLoop(slices.Clone(c.nodes), c.nodes[0].cfg.TickEvery) // a restart replaces its entry
	d.queue, d.keep, q.wake = q, c.opts.Persistent, d.wake
	c.hub.Divert(q.push)
	for _, n := range c.nodes {
		n.recv = nil
		n.host.Store(d)
	}
	c.driver = d
	d.halted.Store(c.stopped)
	d.poke()
}

// Stop asks every node to stop after its current step, a restarted one
// too. Wait still must be called to join the goroutines and release the
// hub.
func (c *Cluster) Stop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stopped = true
	for _, n := range slices.Concat(c.nodes, c.restarted) {
		if n != nil {
			n.Stop()
		}
	}
	if c.driver != nil {
		c.driver.halted.Store(true)
		c.driver.poke()
	}
}

// Wait joins the cluster's goroutines, closes the transports, and returns
// the first error. A persistent cluster's driver outlives its crashed
// nodes, so with every node crashed it still waits for Stop or the
// context. A deliberately crashed node dies mid-send and its transport is
// closed twice; those errors are the fault model at work, not a shutdown
// failure, and are ignored. The cluster's own hub closes as a whole, after
// in-flight delayed messages settle, so a Stop/Wait pair is a clean drain.
// Pending CrashAfter timers are disarmed first: a crash scheduled for after
// the cluster's lifetime must not fire into a closed hub.
func (c *Cluster) Wait() error {
	c.mu.Lock()
	loops := c.loopsLocked()
	c.mu.Unlock()
	for _, l := range loops {
		<-l.done
	}
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
	c.mu.Lock()
	for _, t := range c.timers {
		t.Stop()
	}
	c.timers = nil
	c.mu.Unlock()
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

// Crash immediately crashes node p, or the node a Restart runs for it: its
// machine takes no more steps and its transport closes, which on the
// cluster's own hub drops the node's traffic in both directions — the
// fail-stop fault model, injectable live. Crashing after Wait has closed
// the cluster is a no-op.
func (c *Cluster) Crash(p types.ProcID) {
	if c.closed.Load() {
		return
	}
	c.crashed[p].Store(true)
	c.trs[p].Close() //nolint:errcheck // best-effort fail-stop
	c.nodes[p].Stop()
	c.mu.Lock()
	if r := c.restarted[p]; r != nil {
		r.Stop()
	}
	c.mu.Unlock()
	c.crashes.With(strconv.Itoa(int(p))).Inc()
	c.spans.Mark("", span.ProcTrack(int(p)), span.EventCrash, "")
}

// Restart brings crashed processor p back: the hub carries its traffic
// again, and the recover milestone is recorded. A non-nil m (typically a
// recovery client) then runs as processor p — hosted by the group's
// driver, ticking with the group, or on a loop of its own while the group
// is not driven — and Restart returns its node, which is not persistent:
// it ends once m has halted and lingered, or after MaxTicks. With m nil
// the processor is only reconnected and the node is nil. Restart fails for
// a processor that is not down (never crashed, or restarted since it last
// crashed), before the cluster started, after it closed, and over supplied
// transports, which Crash closed for good.
func (c *Cluster) Restart(p types.ProcID, m types.Machine) (*Node, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case !c.started:
		return nil, errors.New("runtime: restart before the cluster started")
	case c.closed.Load():
		return nil, errors.New("runtime: restart after the cluster closed")
	case c.hub == nil:
		return nil, errors.New("runtime: a crashed node over supplied transports stays down")
	case !c.crashed[p].Load():
		return nil, fmt.Errorf("runtime: node %d is not down", p)
	case m != nil && m.ID() != p:
		return nil, fmt.Errorf("runtime: machine %d cannot restart node %d", m.ID(), p)
	}
	var node *Node
	if m != nil {
		var err error
		if node, err = c.newNode(m, rng.NewStream(c.opts.Seed^0x5bd1e995*(uint64(p)+1)), false); err != nil {
			return nil, err
		}
		if c.driver == nil {
			node.host.Load().start(c.ctx, time.Now())
		} else {
			node.recv = nil
			node.host.Store(c.driver)
			if !c.driver.join(node) {
				return nil, errors.New("runtime: the cluster's driver has ended")
			}
		}
	}
	c.crashed[p].Store(false)
	c.restarted[p] = node
	c.hub.Restart(p)
	c.spans.Mark("", span.ProcTrack(int(p)), span.EventRecover, "")
	return node, nil
}

// CrashAfter schedules node p to stop and disconnect after d. It models a
// crash: the node's machine halts and the hub drops its traffic. The timer
// is tracked: if the cluster is waited out first, the pending crash is
// disarmed and a late firing is a guarded no-op — it can never touch a
// closed hub.
func (c *Cluster) CrashAfter(p types.ProcID, d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return
	}
	c.timers = append(c.timers, time.AfterFunc(d, func() { c.Crash(p) }))
}
