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

// RetryHint is the Retry-After suggestion attached to every overload
// rejection.
const RetryHint = 25 * time.Millisecond

// retireAfterTicks removes a decided instance from its manager that many
// ticks after it halts, leaving only its batch id in the manager's
// straggler guard, so per-tick cost stays proportional to active
// transactions.
const retireAfterTicks = 64

// Config parameterizes a commit service. What no deployment chooses is
// fixed: RetryHint, retireAfterTicks, the abandonment age (maxAgeTicks)
// and the hub's inbound bound (transport.HubQueueSize).
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
	// 1ms): the 2K vote timeouts, the abandonment age and retirement count
	// it.
	// It does not pace the protocol — nodes act on messages as they arrive.
	TickEvery time.Duration
	// QueueDepth bounds the admission queue (default 1024). A full
	// queue rejects new submissions with an OverloadError carrying a
	// retry hint — the queue never grows without bound.
	QueueDepth int
	// BatchMax bounds how many queued submissions one batch takes
	// (default 64): the widest outcome vector one batched Protocol 2
	// instance decides — one coin flood, one vote exchange, one agreement
	// run per batch. A lone submission is a batch of one. At most N
	// batches are unresolved at once, one place per round-robin
	// coordinator, so at most N × BatchMax members are in flight; while
	// all N places are taken the queue gathers, and the next batch takes
	// up to BatchMax of what waits, so batches widen with load.
	BatchMax int
	// BatchAgreement is ignored (deprecated): every dispatch is a batch,
	// so there is no per-transaction mode left to switch away from. The
	// field remains only because bench/ sets it; delete it when bench/
	// next changes.
	BatchAgreement bool
	// DefaultTimeout is the per-request deadline when the request does
	// not set one (default 10s). A request that misses its deadline
	// resolves as TIMEOUT; it never hangs. It also sets how long an
	// undecided instance lives (maxAgeTicks).
	DefaultTimeout time.Duration
	// Transports, when non-nil, supplies one transport per processor
	// (e.g. TCP nodes already listening and peered) for the cluster to run
	// over and own, instead of the endpoints of a hub it builds itself.
	// len(Transports) must equal N.
	Transports []transport.Transport
	// Hub configures fault injection (delay, loss) on the hub the cluster
	// builds when Transports is nil.
	Hub transport.HubOptions
	// Journal, when non-nil, is the segmented decision journal. Each
	// decided batch is appended as one record, and its members' acks and
	// statuses are withheld until the covering group-commit fsync
	// succeeds — concurrent records share one flush. The status table
	// evicts in the journal's order and keeps as many finished
	// transactions (wal.DecisionWindow) as the journal's window, so on
	// restart the recovered window seeds the table and a restarted
	// service still answers (and never contradicts) every transaction it
	// answered before dying. The caller owns the journal's lifecycle;
	// close it after Service.Close returns. If a journal flush fails the
	// log poisons itself and the affected members resolve, and publish,
	// FAILED (a decision is never acked or shown when it is not durable).
	Journal *wal.DecisionLog
	// Registry is the shared metrics registry every layer of the service
	// (runtime, transport, txn, service) emits into. Nil creates a fresh
	// one, exposed via Service.Registry.
	Registry *obs.Registry
	// Spans is the one ring every layer records into: service stages,
	// manager rounds and protocol milestones, hub links, crashes. A
	// supplied collector records every transaction. Nil creates a sampled
	// one (span.NewSampledCollector) of span.DefaultCollectorCapacity,
	// which records the transactions whose ids it traces, one in
	// span.SampleEvery, and every crash and recovery; stage histograms
	// and latencies observe every transaction either way. It is exposed
	// via Service.Spans and GET /debug/spans.
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

// withDefaults validates c and fills its defaults, the shared registry
// and span ring aside: New creates those.
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
	k, err := txn.ResolveK(c.K)
	if err != nil {
		return c, fmt.Errorf("service: %w", err)
	}
	c.K = k
	// Zero means the default; a negative value is a mistake, not a default.
	if c.TickEvery < 0 || c.QueueDepth < 0 || c.BatchMax < 0 || c.DefaultTimeout < 0 {
		return c, fmt.Errorf("service: TickEvery, QueueDepth, BatchMax and DefaultTimeout must not be negative, got %v, %d, %d and %v",
			c.TickEvery, c.QueueDepth, c.BatchMax, c.DefaultTimeout)
	}
	if c.TickEvery == 0 {
		c.TickEvery = time.Millisecond
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 1024
	}
	if c.BatchMax == 0 {
		c.BatchMax = 64
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.Transports != nil && len(c.Transports) != c.N {
		return c, fmt.Errorf("service: %d transports for %d processors", len(c.Transports), c.N)
	}
	return c, nil
}

// maxAgeTicks is how many ticks an instance may run undecided before its
// managers abandon it, so nodes do not accrete blocked instances past the
// request deadline: twice DefaultTimeout, and at least 1000 ticks.
func (c Config) maxAgeTicks() int {
	return max(2*int(c.DefaultTimeout/c.TickEvery), 1000)
}

// Validate runs the checks New runs on c, and builds nothing: a caller
// that creates state for a service, such as its journal directory, checks
// c first, so a start-up refused for its config leaves nothing behind.
func (c Config) Validate() error {
	_, err := c.withDefaults()
	return err
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
	// Timeout overrides the service's DefaultTimeout when positive. It is
	// capped at the instance's abandonment age, twice DefaultTimeout and
	// at least 1000 ticks: past it no node holds the instance, so no
	// decision can arrive. A member decided after its deadline still
	// reaches Status.
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
	// Batches counts dispatched batches: one whose members all expired in
	// the queue dispatches nothing and is not counted. MaxBatch is the
	// most members one dispatched batch carried.
	Batches uint64 `json:"batches"`
	// BatchesDecided counts dispatched batches whose every member has
	// reached a terminal state.
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

// JournalError is the typed rejection of a group whose decision journal
// failed a flush. The group is fail-stopped: a resource manager without
// stable storage cannot take part in commit, so it admits nothing more and
// resolves what it had queued FAILED. Other groups keep serving.
type JournalError struct {
	Shard string // the group's shard label
	Err   error  // the journal's poison
}

// Error implements error.
func (e *JournalError) Error() string {
	return fmt.Sprintf("service: shard %s stopped, its journal failed: %v", e.Shard, e.Err)
}

// Unwrap exposes the journal's poison.
func (e *JournalError) Unwrap() error { return e.Err }

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
