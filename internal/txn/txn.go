// Package txn multiplexes many concurrent transaction commit instances
// over one set of processors — the distributed database setting the paper
// opens with ("a transaction may be processed concurrently at several
// different processors").
//
// Each node runs one Manager, itself a types.Machine, so the same
// simulator and live runtimes drive it. The Manager demultiplexes
// envelope-wrapped protocol messages to batched Protocol 2 machines
// (core.BatchCommit), creating participant instances on demand (the
// first frame of an unknown batch reaches the node's VoteFunc once per
// member to obtain its vote vector). Step is a tick of the manager's
// clock and advances every instance still running; Deliver hands over
// frames between ticks and advances only the instances they reach, without
// touching any clock, so timeouts run in ticks however often frames
// arrive. Any node may coordinate (the paper fixes processor 0 without
// loss of generality; core.BatchConfig.Coordinator generalizes it).
//
// There is one instance kind. BeginBatch starts one instance deciding
// the outcome vector for many transactions at once — one coin flood, one
// vote exchange, one agreement run per batch — and Begin is its width-1
// case: the paper's Protocol 2 for a single transaction. Per-transaction
// observability (OnOutcome push, DecisionOf pull) is element-wise; elements
// report individually as they decide. A peer that restarted without its
// state pulls too: the manager answers its recovery.QueryMsg from
// DecisionOf.
//
// One mutex guards the manager's state. The stepping goroutine holds it
// for the body of Step and Deliver; the only other callers a serving
// manager has are BeginBatch (once per batch) and Active (once per scrape),
// which take it briefly; DecisionOf takes it too, and its first call
// builds the index under it. OnOutcome callbacks run with it released.
//
// What the manager holds is split in two. The running list, in creation
// order, is all a tick walks; the first tick that finds an instance halted
// moves it to a FIFO where it costs nothing until the front's RetireAfter
// ticks are up (long-lived deployments, internal/service, configure it),
// when it is popped and leaves only its batch id in a straggler guard. A
// tick therefore costs what is running plus what retires, not what is
// held, and the guard keeps two generations of TombstoneCap retired members,
// dropping the older whole when the newer fills. Outcomes are pushed
// through OnOutcome (a callback invoked from the stepping goroutine) and
// pulled from held instances only: the per-member index DecisionOf reads is
// built by the first call that needs it, so a manager nothing asks keeps
// none.
package txn

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/recovery"
	"repro/internal/types"
	"repro/internal/wal"
)

// ID names a transaction.
type ID string

// Envelope wraps a payload with a transaction id. The manager neither
// emits nor consumes it (every protocol frame is a BatchEnvelope); it
// survives, with its wire tag, as the hop payload bench/ names.
type Envelope struct {
	Txn   ID
	Inner types.Payload
}

// Kind implements types.Payload.
func (e Envelope) Kind() string {
	if e.Inner == nil {
		return "txn.envelope"
	}
	return "txn:" + e.Inner.Kind()
}

// TxnID exposes the transaction id to layers that must not import this
// package (the transport's link-span instrumentation asserts for it).
func (e Envelope) TxnID() string { return string(e.Txn) }

// SizeBits implements types.Sized: inner payload + a 64-bit id hash.
func (e Envelope) SizeBits() int { return types.SizeOf(e.Inner) + 64 }

// VoteFunc supplies this node's vote when it first hears about a
// transaction it did not originate (true = commit).
type VoteFunc func(txn ID) bool

// Outcome is a finished transaction at this node.
type Outcome struct {
	Txn      ID
	Decision types.Decision
}

// Config parameterizes a Manager.
type Config struct {
	ID types.ProcID
	N  int
	T  int // default (N-1)/2
	K  int // default 4
	// Vote is consulted for transactions this node participates in but
	// did not begin. Nil votes commit.
	Vote VoteFunc
	// CoinFactor is forwarded to each commit instance.
	CoinFactor int
	// OnOutcome, if non-nil, is invoked once per transaction as it
	// decides at this node, from the goroutine driving Step and Deliver and
	// after the manager's lock is released (so the callback may call back
	// into the manager).
	OnOutcome func(Outcome)
	// RetireAfter, when positive, removes an instance that many ticks
	// after it halts, keeping only its batch id: later frames for the batch
	// are dropped instead of respawning a fresh instance (which could
	// disagree with the decisions already reported) while the guard holds
	// the id, and DecisionOf no longer answers for its members. Zero keeps
	// every instance forever (right for bounded runs).
	RetireAfter int
	// MaxAge, when positive, abandons an instance that has run that many
	// ticks without halting — the availability valve for instances that
	// can never finish (e.g. a batch joined from a coordinator that then
	// crashed along with too many peers). An abandoned instance retires
	// like a halted one; its undecided members were never reported. Zero
	// never abandons.
	MaxAge int
	// InboxShards is ignored: the manager has one lock. The field remains
	// only because bench/ sets it; delete it when bench/ next changes.
	InboxShards int
	// Registry, if non-nil, receives the manager's metrics: instances
	// started/decided/retired/abandoned, batches decided, and a
	// rounds-to-decision histogram, labeled by node id.
	Registry *obs.Registry
	// Shard, when set, qualifies the node metric label ("<shard>/<id>")
	// so several groups sharing one registry keep distinct series.
	Shard string
	// Spans, if non-nil, receives this node's records, all on its
	// processor track. Under the batch's key ("batch:<id>"): one span per
	// asynchronous round of each instance (closed by the live
	// approximation of the paper's §2.2 rule — a round ends K ticks after
	// the later of its start and the last message receipt) and the GO
	// sent/received, vote cast and Protocol 1 stage milestones. Under each
	// member's id: a zero-length "decided" marker whose Detail names the
	// batch, and a retired or abandoned milestone. A milestone's Detail
	// starts with the manager tick ("tick=<n>"). An instance records
	// only if the collector traces one of its members
	// (span.Collector.Traced, decided at spawn, alike on every node), and
	// a member's own markers only if it traces that member; an untraced
	// instance reads no clock and builds no key.
	Spans *span.Collector
}

// mmetrics bundles one manager's handles into the shared registry. All
// handles are nil no-ops when no registry is configured.
type mmetrics struct {
	started   *obs.Counter
	committed *obs.Counter // txn_instances_decided_total{decision="COMMIT"}
	aborted   *obs.Counter // txn_instances_decided_total{decision="ABORT"}
	retired   *obs.Counter
	abandoned *obs.Counter
	batches   *obs.Counter
	rounds    *obs.Histogram
}

func newMMetrics(reg *obs.Registry, node string) mmetrics {
	decided := reg.CounterVec("txn_instances_decided_total",
		"Commit instances decided, by node and decision.", "node", "decision")
	return mmetrics{
		started: reg.CounterVec("txn_instances_started_total",
			"Commit instances spawned (begun or joined), by node; a batch counts one per member.", "node").With(node),
		committed: decided.With(node, types.DecisionCommit.String()),
		aborted:   decided.With(node, types.DecisionAbort.String()),
		retired: reg.CounterVec("txn_instances_retired_total",
			"Decided instances retired to tombstones, by node.", "node").With(node),
		abandoned: reg.CounterVec("txn_instances_abandoned_total",
			"Undecided instances abandoned at MaxAge, by node.", "node").With(node),
		batches: reg.CounterVec("txn_batches_decided_total",
			"Batched agreement instances fully decided (every member), by node.", "node").With(node),
		rounds: reg.HistogramVec("txn_rounds_to_decision_ticks",
			"Manager clock ticks from instance spawn to decision, by node.",
			obs.TickBuckets, "node").With(node),
	}
}

// member locates a held transaction: its instance and its position in the
// instance's outcome vector.
type member struct {
	bi  *binstance
	idx int
}

// TombstoneCap is W, the serving stack's one retention window
// (wal.DecisionWindow), and the size of each of the straggler guard's two
// generations: a retired batch's id stays in the guard for at least W
// later retired members. DESIGN §10 argues why no answer changes as long as
// nothing above the manager remembers a transaction longer, and the
// service's status table keeps the same window.
const TombstoneCap = wal.DecisionWindow

// guard is what retired batches leave: their ids, in two generations. A
// retiring batch joins cur; once cur holds TombstoneCap members it becomes
// prev and the old prev is dropped whole, so nothing is evicted one entry
// at a time. Once the first generation has filled, the guard holds the
// batches of between W and 2W plus the widest batch's members.
type guard struct {
	cur, prev         map[BatchID]struct{}
	curSize, prevSize int // members per generation
}

func (g *guard) has(b BatchID) bool {
	_, cur := g.cur[b]
	_, prev := g.prev[b]
	return cur || prev
}

func (g *guard) add(b BatchID, width int) {
	g.cur[b] = struct{}{}
	if g.curSize += width; g.curSize >= TombstoneCap {
		clear(g.prev)
		g.cur, g.prev = g.prev, g.cur
		g.curSize, g.prevSize = 0, g.curSize
	}
}

// Manager runs all of one node's commit instances.
type Manager struct {
	cfg   Config
	met   mmetrics
	track string // span.ProcTrack of this node

	clock atomic.Int64

	// mu guards the fields below: the stepping goroutine holds it for the
	// body of Step and Deliver, client calls (BeginBatch, DecisionOf,
	// Active) briefly.
	// cfg.Vote runs under it, OnOutcome never does.
	mu      sync.Mutex
	spawned int
	// batches indexes every held instance, running or halted, for demux
	// and DecisionOf.
	batches map[BatchID]*binstance
	// running is the instances no tick has yet found halted, in creation
	// order: deterministic iteration for simulation replay, and all a tick
	// walks.
	running []*binstance
	// halted is the FIFO of instances a tick found halted, in (haltedAt,
	// creation) order — the order they retire in, so only its front is
	// ever compared with RetireAfter.
	halted []*binstance
	// retired guards against stragglers for batches no longer held.
	retired guard
	// index maps a held member's id to the newest instance naming it. It is
	// nil until the first DecisionOf or outcome query builds it over what is
	// held; spawns enter their members after that, and a retirement removes
	// the entries its instance holds.
	index map[ID]member

	// fresh lists the instances with something to act on before the next
	// tick — frames in their inbox, or just begun — in arrival order; it is
	// all Deliver walks.
	fresh []*binstance

	// Step scratch, reused across steps under mu and never sent: every
	// instance appends its frames to out and its frames in to inbox
	// (routed collects them while demux sorts them), votes is a joining or
	// beginning instance's vote vector before the instance copies it, and
	// retire lists what a tick removes. Only the payloads that out carries
	// leave the manager, and no buffer here is one of them.
	out        []types.Message
	inbox      []types.Message
	routed     []routedFrame
	votes      []types.Value
	retire     []*binstance
	decidedNow []Outcome

	ticked int // machines advanced by Step so far (tests read it)
}

var _ types.Machine = (*Manager)(nil)

// ResolveK reads a configured timing constant: zero means the default, 4,
// and a negative K is refused. The service checks its K with it before it
// builds anything.
func ResolveK(k int) (int, error) {
	switch {
	case k == 0:
		return 4, nil
	case k < 0:
		return 0, fmt.Errorf("K must be >= 1, got %d", k)
	}
	return k, nil
}

// NewManager validates the configuration and builds a Manager.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("txn: N must be positive, got %d", cfg.N)
	}
	if int(cfg.ID) < 0 || int(cfg.ID) >= cfg.N {
		return nil, fmt.Errorf("txn: id %d out of range [0,%d)", cfg.ID, cfg.N)
	}
	if cfg.T == 0 {
		cfg.T = (cfg.N - 1) / 2
	}
	if cfg.T < 0 || cfg.N <= 2*cfg.T {
		return nil, fmt.Errorf("txn: need N > 2T, got N=%d T=%d", cfg.N, cfg.T)
	}
	k, err := ResolveK(cfg.K)
	if err != nil {
		return nil, fmt.Errorf("txn: %w", err)
	}
	cfg.K = k
	if cfg.RetireAfter < 0 || cfg.MaxAge < 0 {
		return nil, fmt.Errorf("txn: RetireAfter/MaxAge must be >= 0")
	}
	node := strconv.Itoa(int(cfg.ID))
	if cfg.Shard != "" {
		node = cfg.Shard + "/" + node
	}
	return &Manager{
		cfg:     cfg,
		met:     newMMetrics(cfg.Registry, node),
		track:   span.ProcTrack(int(cfg.ID)),
		batches: make(map[BatchID]*binstance),
		retired: guard{cur: make(map[BatchID]struct{}), prev: make(map[BatchID]struct{})},
	}, nil
}

// Begin starts a transaction with this node as coordinator: a batch of
// width 1 named after the transaction. Call before (or while) the
// manager is being stepped. vote is this node's own vote.
func (m *Manager) Begin(txn ID, vote bool) error {
	return m.BeginBatch(BatchID(txn), []ID{txn}, []bool{vote})
}

// ID implements types.Machine.
func (m *Manager) ID() types.ProcID { return m.cfg.ID }

// Clock implements types.Machine: the ticks (Steps) taken so far —
// deliveries do not count. It needs no lock.
func (m *Manager) Clock() int { return int(m.clock.Load()) }

// Decision implements types.Machine. A manager reports no aggregate
// decision; per-transaction outcomes come from DecisionOf. (It reports
// decided only so engines with decision-based stop conditions are not
// used with managers by accident — use custom StopWhen predicates.)
func (m *Manager) Decision() (types.Value, bool) { return 0, false }

// Halted implements types.Machine: a manager halts only when it has seen
// at least one batch and every still-held instance has halted (retired
// instances count as finished). Persistent service nodes ignore this and
// keep stepping for new work.
func (m *Manager) Halted() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.spawned == 0 {
		return false
	}
	// An instance that halted since the last tick is still listed running.
	for _, bi := range m.running {
		if !bi.c.Halted() {
			return false
		}
	}
	return true
}

// DecisionOf reports a transaction's decision at this node, from the
// newest held instance naming it; a retired batch answers for no member.
func (m *Manager) DecisionOf(txn ID) (types.Decision, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.decisionOfLocked(txn)
}

// decisionOfLocked is DecisionOf for a caller holding mu. The first call
// builds the index.
func (m *Manager) decisionOfLocked(txn ID) (types.Decision, bool) {
	if m.index == nil {
		m.index = make(map[ID]member)
		for _, bi := range m.batches {
			m.indexLocked(bi)
		}
	}
	mb, ok := m.index[txn]
	if !ok {
		return types.DecisionNone, false
	}
	// The advance that decides a member records it before releasing mu.
	d := mb.bi.decisions[mb.idx]
	return d, d != types.DecisionNone
}

// indexLocked enters a held instance's members in the index, the newer
// instance winning an id two of them name. Caller holds mu and has built
// the index.
func (m *Manager) indexLocked(bi *binstance) {
	for i, id := range bi.txns {
		if old, ok := m.index[id]; !ok || old.bi.seq < bi.seq {
			m.index[id] = member{bi, i}
		}
	}
}

// Active reports how many instances the manager is still holding
// (decided instances awaiting retirement included); a batch is one
// instance whatever its width.
func (m *Manager) Active() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.running) + len(m.halted)
}

// Step implements types.Machine — one tick of the manager's clock:
// demultiplex, spawn participants for new batches, advance every running
// instance one tick in creation order, wrap outputs, retire the instances
// whose time is up, and report newly decided members. OnOutcome callbacks
// run after the lock is released.
func (m *Manager) Step(received []types.Message, rnd types.Rand) []types.Message {
	tick := int(m.clock.Add(1))

	m.mu.Lock()
	out := m.demuxLocked(received, tick, m.out[:0])
	out, decidedNow := m.stepRunningLocked(tick, rnd, out, m.decidedNow[:0])
	m.clearFreshLocked() // every running instance was just advanced
	m.out, m.decidedNow = out, decidedNow
	m.mu.Unlock()

	m.report(decidedNow)
	return out
}

// Deliver hands the manager frames between ticks. The clock stands still
// (Clock counts Steps only), and only the instances these frames reached,
// plus any begun since the last call, are advanced — the cost is that of
// the instances touched, not of every decided instance awaiting retirement.
// Retirement, MaxAge and the K-tick round close are clock business and wait
// for the next Step.
func (m *Manager) Deliver(received []types.Message, rnd types.Rand) []types.Message {
	tick := m.Clock()

	m.mu.Lock()
	out, decidedNow := m.demuxLocked(received, tick, m.out[:0]), m.decidedNow[:0]
	for _, bi := range m.fresh {
		out, decidedNow = m.advanceLocked(bi, tick, false, rnd, out, decidedNow)
	}
	m.clearFreshLocked()
	m.out, m.decidedNow = out, decidedNow
	m.mu.Unlock()

	m.report(decidedNow)
	return out
}

// report fans newly decided members out to OnOutcome. No lock is held: the
// callback may call back into the manager.
func (m *Manager) report(decidedNow []Outcome) {
	if cb := m.cfg.OnOutcome; cb != nil {
		for _, o := range decidedNow {
			cb(o)
		}
	}
}

// markFreshLocked queues an instance for the next Deliver, once. Caller
// holds mu.
func (m *Manager) markFreshLocked(bi *binstance) {
	if !bi.fresh {
		bi.fresh = true
		m.fresh = append(m.fresh, bi)
	}
}

// clearFreshLocked empties the queue once its instances were advanced.
// Caller holds mu.
func (m *Manager) clearFreshLocked() {
	for _, bi := range m.fresh {
		bi.fresh = false
	}
	clear(m.fresh)
	m.fresh = m.fresh[:0]
}

// demuxLocked sorts the received batch frames into per-instance inboxes,
// joining batches first heard of from the wire unless the guard names
// them, and appends to out a reply to every outcome query for a
// transaction a held instance has decided; a query it cannot answer gets
// none. Caller holds mu.
func (m *Manager) demuxLocked(received []types.Message, tick int, out []types.Message) []types.Message {
	for i := range received {
		env, ok := received[i].Payload.(BatchEnvelope)
		if !ok {
			if q, isQuery := received[i].Payload.(recovery.QueryMsg); isQuery {
				if d, decided := m.decisionOfLocked(ID(q.Txn)); decided {
					out = append(out, types.Message{From: m.cfg.ID, To: received[i].From, Payload: recovery.ReplyMsg{Val: d.Value()}})
				}
			}
			continue
		}
		bi := m.batches[env.Batch]
		if bi == nil {
			if m.retired.has(env.Batch) {
				// Straggler for a retired batch: respawning could contradict
				// a reported decision.
				continue
			}
			// First contact with this batch: join as a participant. Only
			// the coordinator's GO starts it, but every frame carries the
			// member list and the piggybacked GO, so the vote vector is
			// computable now. The coordinator is unknown at join time and
			// irrelevant for a participant: the instance never enters the
			// coordinator branch unless Coordinator == own id, so point
			// it at the sender's id when it differs from ours, else the
			// next processor.
			coord := received[i].From
			if coord == m.cfg.ID {
				coord = types.ProcID((int(m.cfg.ID) + 1) % m.cfg.N)
			}
			var err error
			if bi, err = m.joinBatchLocked(env, coord, tick); err != nil {
				continue
			}
		}
		if bi.traced && !bi.goRecv {
			if inner, _ := core.Unwrap(env.Inner); inner != nil {
				if _, isGo := inner.(core.GoMsg); isGo {
					bi.goRecv = true
					m.cfg.Spans.MarkTick(bi.key, m.track, span.EventGoRecv, tick, span.FigFrom, int(received[i].From), 0)
				}
			}
		}
		if bi.c.Halted() {
			// Straggler for a halted instance: its machine reads nothing
			// more, and no tick will visit it to empty an inbox.
			continue
		}
		m.markFreshLocked(bi)
		bi.lastRecvClock = tick
		inner := received[i]
		inner.Payload = env.Inner
		m.routed = append(m.routed, routedFrame{bi, inner})
		bi.routed++
	}
	m.fillInboxesLocked()
	return out
}

// routedFrame is one received frame, unwrapped, and the instance it is for.
type routedFrame struct {
	bi  *binstance
	msg types.Message
}

// fillInboxesLocked lays the routed frames out in the manager's inbox
// buffer, each instance's in arrival order in a window of its own. Every
// instance with frames is fresh, and advances before the call returns.
// Caller holds mu.
func (m *Manager) fillInboxesLocked() {
	if len(m.routed) == 0 {
		return
	}
	if cap(m.inbox) < len(m.routed) {
		m.inbox = make([]types.Message, len(m.routed))
	}
	off := 0
	for _, bi := range m.fresh {
		bi.inbox = m.inbox[off : off : off+bi.routed]
		off += bi.routed
		bi.routed = 0
	}
	for _, r := range m.routed {
		r.bi.inbox = append(r.bi.inbox, r.msg)
	}
	clear(m.routed)
	m.routed = m.routed[:0]
}
