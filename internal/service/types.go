package service

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/olog"
	"repro/internal/obs/span"
	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/wal"
)

// LatencyWindow is the sample capacity of every latency recorder (end to
// end, per stage, cross-shard): the most recent decided transactions.
const LatencyWindow = 1 << 16

// Config parameterizes a commit service.
type Config struct {
	// N is the number of processors in the fronted cluster (required).
	N int
	// Shard labels this service's metrics when several independent
	// groups share one registry (internal/shard hosts one service per
	// shard). Empty means the service is unsharded and is labeled shard
	// "0"; transaction-manager node labels stay bare in that case.
	Shard string
	// T is the crash-fault tolerance (default (N-1)/2).
	T int
	// K is the protocol timing constant in ticks (default 4).
	K int
	// Seed makes the cluster's randomness reproducible (0 is a valid
	// fixed seed; vary it across deployments).
	Seed uint64
	// TickEvery is the period of every node's timeout clock (default
	// 1ms): the 2K vote timeouts and MaxAgeTicks/RetireAfterTicks count it.
	// It does not pace the protocol — nodes act on messages as they arrive.
	TickEvery time.Duration
	// QueueDepth bounds the admission queue (default 1024). A full
	// queue rejects new submissions with an OverloadError carrying a
	// retry hint — the queue never grows without bound.
	QueueDepth int
	// MaxInFlight bounds concurrently running commit instances (default
	// 128). Admitted submissions beyond it wait in the queue.
	MaxInFlight int
	// BatchMax bounds how many queued submissions one dispatcher wake
	// coalesces (default 64): the widest outcome vector one batched
	// Protocol 2 instance decides — one coin flood, one vote exchange,
	// one agreement run per batch. A lone submission is a batch of one.
	// Clamped to MaxInFlight: every member holds a slot before its batch
	// begins, so a wider batch could never collect them all.
	BatchMax int
	// BatchAgreement is ignored (deprecated): every dispatch is a batch,
	// so there is no per-transaction mode left to switch away from. The
	// field remains only because bench/ sets it; delete it when bench/
	// next changes.
	BatchAgreement bool
	// DefaultTimeout is the per-request deadline when the request does
	// not set one (default 10s). A request that misses its deadline
	// resolves as TIMEOUT; it never hangs.
	DefaultTimeout time.Duration
	// RetryHint is the Retry-After suggestion attached to overload
	// rejections (default 25ms).
	RetryHint time.Duration
	// RetireAfterTicks removes a decided instance from its manager that
	// many ticks after it halts, leaving a decision tombstone (default
	// 64). Keeps per-tick cost proportional to active transactions.
	RetireAfterTicks int
	// MaxAgeTicks abandons an instance still undecided after that many
	// ticks (default 2 * DefaultTimeout/TickEvery) so nodes do not
	// accrete blocked instances past the request deadline.
	MaxAgeTicks int
	// StatusRetention caps how many finished transactions keep status
	// entries for GET /status queries (FIFO eviction). Default and upper
	// limit are txn.TombstoneCap, 65536: the managers forget a transaction
	// after that many later ones, and a status must not outlive them.
	StatusRetention int
	// Transports, when non-nil, supplies one transport per processor
	// (e.g. TCP nodes already listening and peered) for the cluster to run
	// over and own, instead of the endpoints of a hub it builds itself.
	// len(Transports) must equal N.
	Transports []transport.Transport
	// Hub configures fault injection (delay, loss) on the hub the cluster
	// builds when Transports is nil.
	Hub transport.HubOptions
	// Journal, when non-nil, is the segmented decision journal. Every
	// COMMIT/ABORT result is appended and the client ack is withheld
	// until the covering group-commit fsync succeeds — concurrent
	// decisions share one flush, so the disk sees ~1 fsync per batch of
	// decisions, not per decision. On restart the journal's recovered
	// decisions seed the status table, so a restarted service still
	// answers (and never contradicts) transactions it acked before
	// dying. Statuses evicted by retention are retired from the journal,
	// which is what lets its snapshots, and hence the compacted log,
	// stay bounded. The caller owns the journal's lifecycle; close it
	// after Service.Close returns. If a journal flush fails the log
	// poisons itself and affected submissions resolve as FAILED (the
	// decision is never acked as durable when it is not).
	Journal *wal.DecisionLog
	// Registry is the shared metrics registry every layer of the service
	// (runtime, transport, txn, service) emits into. Nil creates a fresh
	// one, exposed via Service.Registry.
	Registry *obs.Registry
	// Spans is the one ring every layer records into: service stages,
	// manager rounds and protocol milestones, hub links, crashes. Nil
	// creates one of span.DefaultCollectorCapacity, exposed via
	// Service.Spans and GET /debug/spans.
	Spans *span.Collector
	// Logger receives structured operational log records (decisions,
	// crashes, rescues) with txn/shard/node correlation fields. Nil
	// logs nothing.
	Logger *olog.Logger
}

// shardLabel is the value for the "shard" metric label: the configured
// shard name, or "0" for an unsharded service.
func (c Config) shardLabel() string {
	if c.Shard == "" {
		return "0"
	}
	return c.Shard
}

// withDefaults validates and fills defaults.
func (c Config) withDefaults() (Config, error) {
	if c.N < 1 {
		return c, fmt.Errorf("service: N must be >= 1, got %d", c.N)
	}
	if c.T == 0 {
		c.T = (c.N - 1) / 2
	}
	if c.T < 0 || c.N <= 2*c.T {
		return c, fmt.Errorf("service: need N > 2T, got N=%d T=%d", c.N, c.T)
	}
	if c.K == 0 {
		c.K = 4
	}
	if c.TickEvery <= 0 {
		c.TickEvery = time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 128
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 64
	}
	if c.BatchMax > c.MaxInFlight {
		c.BatchMax = c.MaxInFlight
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.RetryHint <= 0 {
		c.RetryHint = 25 * time.Millisecond
	}
	if c.RetireAfterTicks <= 0 {
		c.RetireAfterTicks = 64
	}
	if c.MaxAgeTicks <= 0 {
		c.MaxAgeTicks = 2 * int(c.DefaultTimeout/c.TickEvery)
		if c.MaxAgeTicks < 1000 {
			c.MaxAgeTicks = 1000
		}
	}
	if c.StatusRetention <= 0 {
		c.StatusRetention = txn.TombstoneCap
	}
	// A status that outlived its members' tombstones could meet the report
	// of a respawned batch (DESIGN §10 "Bounded tombstones").
	if c.StatusRetention > txn.TombstoneCap {
		return c, fmt.Errorf("service: StatusRetention %d exceeds the managers' tombstone horizon %d", c.StatusRetention, txn.TombstoneCap)
	}
	if c.Transports != nil && len(c.Transports) != c.N {
		return c, fmt.Errorf("service: %d transports for %d processors", len(c.Transports), c.N)
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.Spans == nil {
		c.Spans = span.NewCollector(span.DefaultCollectorCapacity)
	}
	return c, nil
}

// State is the lifecycle state of a submitted transaction.
type State string

// Transaction states. Every submission terminates in COMMIT, ABORT,
// TIMEOUT, or FAILED (internal dispatch error) — or was rejected with a
// typed error before entering the queue.
const (
	StateQueued  State = "QUEUED"
	StateRunning State = "RUNNING"
	StateCommit  State = "COMMIT"
	StateAbort   State = "ABORT"
	StateTimeout State = "TIMEOUT"
	StateFailed  State = "FAILED"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	switch s {
	case StateCommit, StateAbort, StateTimeout, StateFailed:
		return true
	}
	return false
}

// stateOf maps a protocol decision to a terminal state.
func stateOf(d types.Decision) State {
	if d == types.DecisionCommit {
		return StateCommit
	}
	return StateAbort
}

// Request is one client submission.
type Request struct {
	// ID names the transaction; empty auto-generates a unique id.
	ID string
	// Votes[p] is processor p's vote (true = commit). Nil means every
	// processor votes commit.
	Votes []bool
	// Timeout overrides the service's DefaultTimeout when positive.
	Timeout time.Duration
}

// Result is the terminal answer for one submission.
type Result struct {
	ID string
	// State is COMMIT, ABORT, TIMEOUT, or FAILED.
	State State
	// Decision carries the protocol decision for COMMIT/ABORT results.
	Decision types.Decision
	// Coordinator is the processor that coordinated the instance (only
	// meaningful once dispatched).
	Coordinator types.ProcID
	// Latency is submission-to-resolution wall time.
	Latency time.Duration
}

// TxnStatus is the queryable status of a known transaction.
type TxnStatus struct {
	ID          string        `json:"id"`
	State       State         `json:"state"`
	Decision    string        `json:"decision,omitempty"`
	Coordinator types.ProcID  `json:"coordinator"`
	Submitted   time.Time     `json:"submitted"`
	Latency     time.Duration `json:"latency_ns,omitempty"`
}

// Metrics is one instrumentation snapshot.
type Metrics struct {
	N                int    `json:"n"`
	Draining         bool   `json:"draining"`
	Submitted        uint64 `json:"submitted"`
	Committed        uint64 `json:"committed"`
	Aborted          uint64 `json:"aborted"`
	TimedOut         uint64 `json:"timed_out"`
	Failed           uint64 `json:"failed"`
	RejectedFull     uint64 `json:"rejected_full"`
	RejectedDraining uint64 `json:"rejected_draining"`
	Batches          uint64 `json:"batches"`
	// BatchesDecided counts dispatched batches whose every member has
	// reached a terminal state (only nonzero in batched agreement mode).
	BatchesDecided   uint64  `json:"batches_decided"`
	MaxBatch         int     `json:"max_batch"`
	SafetyViolations uint64  `json:"safety_violations"`
	Queued           int     `json:"queued"`
	InFlight         int     `json:"in_flight"`
	ActiveInstances  int     `json:"active_instances"`
	Crashed          []int   `json:"crashed,omitempty"`
	LatencyMeanMs    float64 `json:"latency_mean_ms"`
	LatencyP50Ms     float64 `json:"latency_p50_ms"`
	LatencyP95Ms     float64 `json:"latency_p95_ms"`
	LatencyP99Ms     float64 `json:"latency_p99_ms"`
	// Stages breaks decided-transaction latency down by pipeline stage
	// (admit, batch, dispatch, decided, notify); stages with no samples
	// are omitted.
	Stages map[string]StageLatency `json:"stages,omitempty"`
	// BatchOccupancy is the distribution of members per dispatched
	// agreement batch; omitted until a batch has dispatched.
	BatchOccupancy *BatchOccupancy `json:"batch_occupancy,omitempty"`
	// Journal summarizes the decision journal (omitted when the service
	// runs without one). Fsyncs/decided-outcomes is the group-commit
	// amortization; ReplayRecords is the bounded recovery suffix.
	Journal *JournalStats `json:"journal,omitempty"`
}

// JournalStats summarizes the segmented decision journal's activity.
type JournalStats struct {
	Appends           uint64  `json:"appends"`
	Fsyncs            uint64  `json:"fsyncs"`
	Groups            uint64  `json:"groups"`
	Snapshots         uint64  `json:"snapshots"`
	SegmentsCreated   uint64  `json:"segments_created"`
	SegmentsCompacted uint64  `json:"segments_compacted"`
	ReplayRecords     int     `json:"replay_records"`
	ReplayMs          float64 `json:"replay_ms"`
}

// BatchOccupancy summarizes how full dispatched agreement batches run —
// the knob-tuning signal for BatchMax (a mean far below BatchMax means
// the queue, not the batch width, is the throughput limiter).
type BatchOccupancy struct {
	Count   uint64            `json:"count"`
	Sum     float64           `json:"sum"`
	Mean    float64           `json:"mean"`
	Buckets []OccupancyBucket `json:"buckets"`
}

// OccupancyBucket is one cumulative histogram bucket; LE is the upper
// bound rendered as text ("+Inf" for the overflow bucket).
type OccupancyBucket struct {
	LE    string `json:"le"`
	Count uint64 `json:"count"`
}

// StageLatency summarizes one pipeline stage's latency distribution.
type StageLatency struct {
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
}

// ErrDraining rejects submissions while the service shuts down.
var ErrDraining = errors.New("service: draining, not accepting transactions")

// OverloadError is the typed rejection for a full admission queue. The
// client should retry after RetryAfter.
type OverloadError struct {
	RetryAfter time.Duration
}

// Error implements error.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("service: admission queue full, retry after %v", e.RetryAfter)
}

// DuplicateError rejects a submission reusing a known transaction id.
type DuplicateError struct {
	ID string
}

// Error implements error.
func (e *DuplicateError) Error() string {
	return fmt.Sprintf("service: transaction %q already known", e.ID)
}
