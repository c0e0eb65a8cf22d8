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
// member to obtain its vote vector) and advancing every active instance
// one step per Manager step. Any node may coordinate (the paper fixes
// processor 0 without loss of generality; core.BatchConfig.Coordinator
// generalizes it).
//
// There is one instance kind. BeginBatch starts one instance deciding
// the outcome vector for many transactions at once — one coin flood, one
// vote exchange, one agreement run per batch — and Begin is its width-1
// case: the paper's Protocol 2 for a single transaction. Per-transaction
// observability (OnOutcome push, DecisionOf pull) is element-wise; elements
// report individually as they decide.
//
// The manager's state is split into Config.InboxShards shards, each with
// its own mutex and its own scratch buffers, with batches placed by the
// repository hash of their id (internal/hash64). The stepping goroutine
// visits shards in index order (determinism), but client-side calls —
// BeginBatch, DecisionOf, metrics gauges — contend only on the
// shard their id hashes to instead of one global lock. No code path ever
// holds two shard locks at once.
//
// Long-lived deployments (internal/service) configure RetireAfter so a
// decided instance is eventually removed from the step loop, leaving only
// a tombstone with its decisions; per-step cost then tracks the number of
// *active* batches, not every transaction the node has ever seen.
// Completion is observable without polling via OnOutcome (a callback
// invoked from the stepping goroutine).
package txn

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/hash64"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/types"
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
	// decides at this node, from the goroutine driving Step and after the
	// manager's locks are released (so the callback may call back into
	// the manager).
	OnOutcome func(Outcome)
	// RetireAfter, when positive, removes an instance that many ticks
	// after it halts, keeping only decision tombstones: later frames for
	// the batch are dropped instead of respawning a fresh instance (which
	// could disagree with the recorded decisions), and DecisionOf keeps
	// answering from the tombstones. Zero keeps every instance forever
	// (right for bounded runs).
	RetireAfter int
	// MaxAge, when positive, abandons an instance that has run that many
	// ticks without halting — the availability valve for instances that
	// can never finish (e.g. a batch joined from a coordinator that then
	// crashed along with too many peers). An abandoned instance leaves a
	// DecisionNone tombstone for each undecided member. Zero never
	// abandons.
	MaxAge int
	// InboxShards splits the manager's state across that many
	// independently locked shards (batch ids placed by the
	// internal/hash64 hash). Default 1, the single-lock behavior. The
	// service sets a fixed count to kill cross-core contention between
	// the stepping goroutine and client queries under load.
	InboxShards int
	// Registry, if non-nil, receives the manager's metrics: instances
	// started/decided/retired/abandoned, batches decided, and a
	// rounds-to-decision histogram, labeled by node id.
	Registry *obs.Registry
	// Shard, when set, qualifies the node metric label ("<shard>/<id>")
	// so several groups sharing one registry keep distinct series.
	Shard string
	// Tracer, if non-nil, records protocol events: GO sent/received, vote
	// cast and Protocol 1 stage transitions under the batch's key
	// ("batch:<id>"), and one decided/retired/abandoned event per member
	// under the member's id, its Detail naming the batch.
	Tracer *obs.Tracer
	// Spans, if non-nil, receives causal spans: one span per
	// asynchronous round of each instance under the batch's key (closed
	// by the live approximation of the paper's §2.2 rule — a round ends
	// K ticks after the later of its start and the last message receipt)
	// and, per member, a zero-length "decided" marker at its decision
	// tick whose Detail names the batch.
	Spans *span.Collector
}

// mmetrics bundles one manager's handles into the shared registry. All
// handles are nil no-ops when no registry is configured.
type mmetrics struct {
	started   *obs.Counter
	decided   *obs.CounterVec // label: decision (COMMIT/ABORT)
	retired   *obs.Counter
	abandoned *obs.Counter
	batches   *obs.Counter
	rounds    *obs.Histogram
}

func newMMetrics(reg *obs.Registry, node string) mmetrics {
	return mmetrics{
		started: reg.CounterVec("txn_instances_started_total",
			"Commit instances spawned (begun or joined), by node; a batch counts one per member.", "node").With(node),
		decided: reg.CounterVec("txn_instances_decided_total",
			"Commit instances decided, by node and decision.", "node", "decision"),
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

// mshard is one independently locked slice of a Manager's state. The
// stepping goroutine is the only writer of the scratch fields (byBatch,
// recv); mu guards everything else against concurrent client calls
// (BeginBatch, DecisionOf, gauges).
type mshard struct {
	mu      sync.Mutex
	batches map[BatchID]*binstance
	// border keeps deterministic iteration for simulation replay.
	border []BatchID
	// retired maps members of finished-and-removed batches to their
	// decision (DecisionNone for members abandoned undecided), on the
	// batch's shard.
	retired map[ID]types.Decision
	// retiredBatches drops stragglers for finished batches.
	retiredBatches map[BatchID]bool

	// Scratch owned by the stepping goroutine; never touched by client
	// calls, so it carries no lock.
	recv    []types.Message
	byBatch map[BatchID][]types.Message
}

func newMshard() *mshard {
	return &mshard{
		batches:        make(map[BatchID]*binstance),
		retired:        make(map[ID]types.Decision),
		retiredBatches: make(map[BatchID]bool),
		byBatch:        make(map[BatchID][]types.Message),
	}
}

// Manager runs all of one node's commit instances.
type Manager struct {
	cfg  Config
	met  mmetrics
	node string // cached label value

	clock   atomic.Int64
	spawned atomic.Int64
	shards  []*mshard
	// members maps a transaction's id to its batch so per-transaction
	// queries (DecisionOf) can find the shard holding the batch.
	// Entries live as long as the batch's tombstone (forever, like
	// retired) — id-keyed lookups must keep answering after retirement.
	members sync.Map // ID -> BatchID

	// Step scratch, owned by the stepping goroutine.
	out        []types.Message
	decidedNow []Outcome
}

var _ types.Machine = (*Manager)(nil)

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
	if cfg.K == 0 {
		cfg.K = 4
	}
	if cfg.K < 1 {
		return nil, fmt.Errorf("txn: K must be >= 1, got %d", cfg.K)
	}
	if cfg.RetireAfter < 0 || cfg.MaxAge < 0 {
		return nil, fmt.Errorf("txn: RetireAfter/MaxAge must be >= 0")
	}
	if cfg.InboxShards < 0 {
		return nil, fmt.Errorf("txn: InboxShards must be >= 0")
	}
	if cfg.InboxShards == 0 {
		cfg.InboxShards = 1
	}
	node := strconv.Itoa(int(cfg.ID))
	if cfg.Shard != "" {
		node = cfg.Shard + "/" + node
	}
	m := &Manager{
		cfg:    cfg,
		met:    newMMetrics(cfg.Registry, node),
		node:   node,
		shards: make([]*mshard, cfg.InboxShards),
	}
	for i := range m.shards {
		m.shards[i] = newMshard()
	}
	return m, nil
}

// shardFor returns the shard an id string hashes to.
func (m *Manager) shardFor(id string) *mshard {
	if len(m.shards) == 1 {
		return m.shards[0]
	}
	return m.shards[hash64.String(id)%uint64(len(m.shards))]
}

// clockNow reads the manager clock without any shard lock.
func (m *Manager) clockNow() int { return int(m.clock.Load()) }

// Begin starts a transaction with this node as coordinator: a batch of
// width 1 named after the transaction. Call before (or while) the
// manager is being stepped. vote is this node's own vote.
func (m *Manager) Begin(txn ID, vote bool) error {
	return m.BeginBatch(BatchID(txn), []ID{txn}, []bool{vote})
}

// trace records one event for a trace key at the given tick; nil
// tracers are no-ops.
func (m *Manager) trace(key string, t obs.EventType, tick int, detail string) {
	m.cfg.Tracer.Record(obs.Event{
		Node: int(m.cfg.ID), Txn: key, Type: t, Tick: tick, Detail: detail,
	})
}

// ID implements types.Machine.
func (m *Manager) ID() types.ProcID { return m.cfg.ID }

// Clock implements types.Machine.
func (m *Manager) Clock() int { return m.clockNow() }

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
	if m.spawned.Load() == 0 {
		return false
	}
	for _, sh := range m.shards {
		sh.mu.Lock()
		for _, b := range sh.border {
			if !sh.batches[b].c.Halted() {
				sh.mu.Unlock()
				return false
			}
		}
		sh.mu.Unlock()
	}
	return true
}

// DecisionOf reports a transaction's decision at this node: from its
// batch's live instance, else from the tombstone the retired batch left
// on its shard.
func (m *Manager) DecisionOf(txn ID) (types.Decision, bool) {
	b, ok := m.members.Load(txn)
	if !ok {
		return types.DecisionNone, false
	}
	bid := b.(BatchID)
	sh := m.shardFor(string(bid))
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if bi, ok := sh.batches[bid]; ok {
		return bi.c.OutcomeAt(bi.idx[txn])
	}
	d := sh.retired[txn]
	return d, d != types.DecisionNone
}

// Active reports how many instances the manager is still holding
// (decided instances awaiting retirement included); a batch is one
// instance whatever its width.
func (m *Manager) Active() int {
	total := 0
	for _, sh := range m.shards {
		sh.mu.Lock()
		total += len(sh.border)
		sh.mu.Unlock()
	}
	return total
}

// Transactions lists the transactions this node currently holds, sorted.
// Retired transactions no longer appear.
func (m *Manager) Transactions() []ID {
	var out []ID
	for _, sh := range m.shards {
		sh.mu.Lock()
		for _, b := range sh.border {
			out = append(out, sh.batches[b].txns...)
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Step implements types.Machine: demultiplex by shard, spawn
// participants for new batches, advance every instance one tick, wrap
// outputs, retire finished instances, and report newly decided members.
// Shards are visited in index order under their own locks; OnOutcome
// callbacks run after every lock is released.
func (m *Manager) Step(received []types.Message, rnd types.Rand) []types.Message {
	tick := int(m.clock.Add(1))

	// Route received frames to their batch's shard's scratch inbox. Only
	// the stepping goroutine touches recv, so no locks yet.
	for i := range received {
		if env, ok := received[i].Payload.(BatchEnvelope); ok {
			sh := m.shardFor(string(env.Batch))
			sh.recv = append(sh.recv, received[i])
		}
	}

	out := m.out[:0]
	decidedNow := m.decidedNow[:0]
	for _, sh := range m.shards {
		sh.mu.Lock()
		out, decidedNow = m.stepShardLocked(sh, tick, rnd, out, decidedNow)
		sh.mu.Unlock()
	}
	m.out = out
	m.decidedNow = decidedNow

	// No lock is held here: the callback may call back into the manager.
	if cb := m.cfg.OnOutcome; cb != nil {
		for _, o := range decidedNow {
			cb(o)
		}
	}
	return out
}

// stepShardLocked advances one shard one tick: demux its inbox, spawn
// joins, step every batch, retire, and collect outputs and newly decided
// outcomes. Caller holds sh.mu.
func (m *Manager) stepShardLocked(sh *mshard, tick int, rnd types.Rand, out []types.Message, decidedNow []Outcome) ([]types.Message, []Outcome) {
	// Demultiplex this shard's inbox into per-instance slices.
	for i := range sh.recv {
		env := sh.recv[i].Payload.(BatchEnvelope)
		if sh.retiredBatches[env.Batch] {
			// Straggler for a finished batch: the tombstones answer
			// queries; respawning could contradict a recorded decision.
			continue
		}
		bi := sh.batches[env.Batch]
		if bi == nil {
			// First contact with this batch: join as a participant. Only
			// the coordinator's GO starts it, but every frame carries the
			// member list and the piggybacked GO, so the vote vector is
			// computable now. The coordinator is unknown at join time and
			// irrelevant for a participant: the instance never enters the
			// coordinator branch unless Coordinator == own id, so point
			// it at the sender's id when it differs from ours, else the
			// next processor.
			coord := sh.recv[i].From
			if coord == m.cfg.ID {
				coord = types.ProcID((int(m.cfg.ID) + 1) % m.cfg.N)
			}
			if err := m.joinBatchLocked(sh, env, coord, tick); err != nil {
				continue
			}
			bi = sh.batches[env.Batch]
		}
		bi.lastRecvClock = tick
		if m.cfg.Tracer != nil && !bi.goRecv {
			if inner, _ := core.Unwrap(env.Inner); inner != nil {
				if _, isGo := inner.(core.GoMsg); isGo {
					bi.goRecv = true
					m.trace(bi.key, obs.EventGoRecv, tick, "from="+strconv.Itoa(int(sh.recv[i].From)))
				}
			}
		}
		inner := sh.recv[i]
		inner.Payload = env.Inner
		sh.byBatch[env.Batch] = append(sh.byBatch[env.Batch], inner)
	}
	sh.recv = sh.recv[:0]

	out, decidedNow, retire := m.stepBatchesLocked(sh, tick, rnd, out, decidedNow)
	m.retireBatchesLocked(sh, tick, retire)

	// Consume per-instance inboxes (slices are reused next step).
	for b := range sh.byBatch {
		sh.byBatch[b] = sh.byBatch[b][:0]
	}
	return out, decidedNow
}
