package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/obs/watch"
	"repro/internal/service"
	"repro/internal/stats"
	"repro/internal/types"
	"repro/internal/wal"
)

// CrossTrack is the span track cross-shard coordination stages ride on.
const CrossTrack = "cross"

// childSep joins a cross-shard transaction id with a shard number to
// name that shard's child transaction ("pay-42" spanning shards 0 and 2
// runs as children "pay-42#s0" and "pay-42#s2"). Top-level ids may not
// contain it. The span ring traces a child exactly when it traces the
// parent (span.Collector.Traced).
const childSep = span.ChildSep

// ChildID names shard s's child of cross-shard transaction id.
func ChildID(id string, s int) string { return id + childSep + strconv.Itoa(s) }

// Config parameterizes a cross-shard coordinator.
type Config struct {
	// Shards is the number of independent commit groups (default 1).
	Shards int
	// Group is the template configuration for each shard's Protocol-2
	// group. Its Shard label is overridden per shard; its Registry and
	// Spans are created once here (if nil; the collector a sampled one,
	// as service.Config.Spans says) and shared by every group so one
	// daemon exposes one observability surface. Its Seed is offset per
	// shard so groups do not run in lockstep.
	Group service.Config
	// ConfigureGroup, when non-nil, runs on each group's final config
	// (Shard and Seed already set) just before that group starts — the
	// hook for per-shard options such as hub fault injection or the
	// group's own decision journal.
	ConfigureGroup func(shard int, cfg *service.Config)
	// Log, when non-nil, persists the cross-shard transitions so a
	// crashed coordinator can recover in-doubt transactions (Recover).
	Log CrossAppender
}

// MaxKeys caps the key set of one submission, matching the HTTP decode
// bound; a transaction touching more keys than this is malformed.
const MaxKeys = service.MaxCommitKeys

// Request is one client submission against the sharded deployment.
type Request struct {
	// ID names the transaction; empty auto-generates a unique id. Ids
	// containing "#s" are rejected (reserved for child transactions).
	ID string
	// Keys is the set of data keys the transaction touches; their shards
	// (deduplicated) are the participants. Empty keys route the
	// transaction to its id's shard alone.
	Keys []string
	// Votes[p] is processor p's vote within each participating group
	// (true = commit). Nil means every processor votes commit.
	Votes []bool
	// Timeout overrides the group's DefaultTimeout when positive.
	Timeout time.Duration
}

// Result is the terminal answer for one submission.
type Result struct {
	ID string
	// State is COMMIT, ABORT, TIMEOUT, or FAILED. For a cross-shard
	// transaction TIMEOUT means in doubt: no participant aborted but not
	// every verdict is known; Recover can settle it later.
	State service.State
	// Decision carries the combined decision for COMMIT/ABORT results.
	Decision types.Decision
	// Coordinator is the processor that coordinated a single-shard
	// transaction in its group; -1 for a cross-shard one, which no one
	// processor coordinates.
	Coordinator types.ProcID
	// Shards is the participating shard set (one element = single-shard
	// fast path).
	Shards []int
	// Latency is submission-to-resolution wall time.
	Latency time.Duration
}

// TxnStatus is the queryable status of a known transaction, cross-shard
// aware: single-shard transactions report their group's record, cross-
// shard ones the top-level state.
type TxnStatus struct {
	service.TxnStatus
	// Shard is the owning shard (single-shard) or -1 (cross-shard).
	Shard int `json:"shard"`
	// Cross marks a cross-shard (multi-participant) transaction.
	Cross bool `json:"cross,omitempty"`
	// Shards is the participating shard set of a cross transaction.
	Shards []int `json:"shards,omitempty"`
}

// CrossMetrics summarizes the coordinator's cross-shard traffic.
type CrossMetrics struct {
	Submitted uint64 `json:"submitted"`
	Committed uint64 `json:"committed"`
	Aborted   uint64 `json:"aborted"`
	TimedOut  uint64 `json:"timed_out"`
	Failed    uint64 `json:"failed"`
	// Recovered counts in-doubt transactions settled by Recover.
	Recovered uint64 `json:"recovered"`
	// InDoubt is the current number of opened-but-unresolved cross
	// transactions (in-flight ones included).
	InDoubt       int     `json:"in_doubt"`
	LatencyMeanMs float64 `json:"latency_mean_ms"`
	LatencyP50Ms  float64 `json:"latency_p50_ms"`
	LatencyP95Ms  float64 `json:"latency_p95_ms"`
	LatencyP99Ms  float64 `json:"latency_p99_ms"`
}

// Metrics is one sharded-deployment instrumentation snapshot.
type Metrics struct {
	Shards int `json:"shards"`
	// Aggregate sums the per-shard counters (latency summaries live per
	// shard and in Cross; an aggregate percentile would be meaningless).
	Aggregate service.Metrics   `json:"aggregate"`
	PerShard  []service.Metrics `json:"per_shard"`
	Cross     CrossMetrics      `json:"cross"`
}

// crossEntry is the in-memory record of one cross-shard transaction.
type crossEntry struct {
	state     *CrossState
	submitted time.Time
	topState  service.State
	// adopted: the group its id routes to holds the outcome in its
	// status table, and journal if it has one (journalOutcome).
	adopted bool
}

// coordMetrics bundles the coordinator's registry handles, each resolved
// once in New.
type coordMetrics struct {
	submitted *obs.Counter
	// cross_outcomes_total by outcome.
	committed, aborted, timedOut, failed *obs.Counter
	recovered                            *obs.Counter
	latency                              *obs.Histogram
}

// Coordinator fronts N independent Protocol-2 commit groups behind one
// submission API, routing by consistent hash and running multi-shard
// transactions as a commit-of-commits: each participating shard decides
// a child transaction through its own fault-tolerant group (the
// "prepare" verdict), and the top-level outcome combines the verdicts —
// commit iff every shard committed, abort if any shard aborted.
//
// Because each verdict is itself a t<n/2 non-blocking consensus decision
// (absorbing, queryable forever), the top-level combine is deterministic
// for every observer, including a coordinator that crashed and replayed
// its cross log: that is Gray & Lamport's Paxos Commit argument with the
// paper's Protocol 2 in the resource-manager seat.
type Coordinator struct {
	cfg    Config
	router *Router
	groups []*service.Service
	log    CrossAppender

	lat *stats.Recorder
	met coordMetrics

	mu      sync.Mutex
	stopped bool
	nextID  uint64
	cross   map[string]*crossEntry
	// finished is the FIFO of terminal cross txn ids; it keeps the newest
	// wal.DecisionWindow.
	finished     []string
	finishedHead int
	inFlight     sync.WaitGroup
}

// New builds and starts a sharded deployment: Shards independent commit
// groups sharing one registry and one span collector, started together
// (service.NewGroups).
func New(cfg Config) (*Coordinator, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Group.Registry == nil {
		cfg.Group.Registry = obs.NewRegistry()
	}
	if cfg.Group.Spans == nil {
		cfg.Group.Spans = span.NewSampledCollector(span.DefaultCollectorCapacity)
	}
	if cfg.Group.Transports != nil && cfg.Shards != 1 {
		return nil, errors.New("shard: external transports require wiring per group; use Shards=1 or the channel backend")
	}
	router, err := NewRouter(cfg.Shards)
	if err != nil {
		return nil, err
	}
	log := cfg.Log
	if log == nil {
		log = discardLog{}
	}
	c := &Coordinator{
		cfg:    cfg,
		router: router,
		log:    log,
		lat:    stats.NewRecorder(service.LatencyWindow),
		cross:  make(map[string]*crossEntry),
	}
	reg := cfg.Group.Registry
	outcomes := reg.CounterVec("cross_outcomes_total",
		"Terminal cross-shard outcomes.", "outcome")
	c.met = coordMetrics{
		submitted: reg.Counter("cross_submitted_total",
			"Cross-shard (multi-participant) transactions submitted."),
		committed: outcomes.With("committed"),
		aborted:   outcomes.With("aborted"),
		timedOut:  outcomes.With("timed_out"),
		failed:    outcomes.With("failed"),
		recovered: reg.Counter("cross_recovered_total",
			"In-doubt cross-shard transactions settled by recovery."),
		latency: reg.Histogram("cross_latency_seconds",
			"Submission-to-decision latency of decided cross-shard transactions.", obs.DefBuckets),
	}
	reg.GaugeFunc("cross_in_doubt",
		"Cross-shard transactions opened but not yet resolved.", func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			n := 0
			for _, e := range c.cross {
				if !e.state.Decided {
					n++
				}
			}
			return float64(n)
		})

	gcfgs := make([]service.Config, cfg.Shards)
	for k := range gcfgs {
		gcfg := cfg.Group
		gcfg.Shard = strconv.Itoa(k)
		gcfg.Seed = cfg.Group.Seed + uint64(k)*0x9e3779b97f4a7c15
		if cfg.ConfigureGroup != nil {
			cfg.ConfigureGroup(k, &gcfg)
		}
		gcfgs[k] = gcfg
	}
	if c.groups, err = service.NewGroups(gcfgs); err != nil {
		return nil, fmt.Errorf("shard: starting groups: %w", err)
	}
	return c, nil
}

// Shards reports the shard count.
func (c *Coordinator) Shards() int { return c.cfg.Shards }

// N reports each group's cluster size.
func (c *Coordinator) N() int { return c.groups[0].N() }

// Router exposes the deployment's routing function.
func (c *Coordinator) Router() *Router { return c.router }

// Group returns shard k's service (panics out of range).
func (c *Coordinator) Group(k int) *service.Service { return c.groups[k] }

// Registry returns the shared metrics registry (never nil).
func (c *Coordinator) Registry() *obs.Registry { return c.cfg.Group.Registry }

// Spans returns the shared causal span collector (never nil).
func (c *Coordinator) Spans() *span.Collector { return c.cfg.Group.Spans }

// Ready reports whether every group accepts new submissions.
func (c *Coordinator) Ready() bool {
	c.mu.Lock()
	stopped := c.stopped
	c.mu.Unlock()
	if stopped {
		return false
	}
	for _, g := range c.groups {
		if !g.Ready() {
			return false
		}
	}
	return true
}

// JournalErr is the first group's *service.JournalError, nil while every
// group's journal is sound. A failed group is fail-stopped; the others
// keep serving, and a cross transaction touching the failed one is never
// acked COMMIT: its child there is refused or answers FAILED, so its
// verdict stays unknown.
func (c *Coordinator) JournalErr() error {
	for _, g := range c.groups {
		if err := g.JournalErr(); err != nil {
			return err
		}
	}
	return nil
}

// Draining reports whether Close has begun.
func (c *Coordinator) Draining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stopped
}

// Submit runs one transaction to a terminal result. Single-shard
// transactions go straight to their group; multi-shard ones run the
// two-layer protocol. Typed admission errors (service.OverloadError,
// service.ErrDraining, service.JournalError, service.DuplicateError) pass
// through unchanged.
func (c *Coordinator) Submit(ctx context.Context, req Request) (Result, error) {
	if strings.Contains(req.ID, childSep) {
		return Result{}, fmt.Errorf("shard: id %q contains reserved %q", req.ID, childSep)
	}
	if len(req.Keys) > MaxKeys {
		return Result{}, fmt.Errorf("shard: %d keys exceeds the %d-key limit", len(req.Keys), MaxKeys)
	}
	id := req.ID
	if id == "" {
		c.mu.Lock()
		c.nextID++
		id = fmt.Sprintf("xtxn-%d", c.nextID)
		c.mu.Unlock()
	}
	shards := c.router.RouteKeys(id, req.Keys)

	if len(shards) == 1 {
		k := shards[0]
		res, err := c.groups[k].Submit(ctx, service.Request{
			ID: id, Votes: req.Votes, Timeout: req.Timeout,
		})
		if err != nil {
			return Result{}, err
		}
		return Result{
			ID: res.ID, State: res.State, Decision: res.Decision,
			Coordinator: res.Coordinator, Shards: shards, Latency: res.Latency,
		}, nil
	}
	return c.submitCross(ctx, id, shards, req)
}

// submitCross runs the two-layer protocol for a multi-shard transaction.
func (c *Coordinator) submitCross(ctx context.Context, id string, shards []int, req Request) (Result, error) {
	start := time.Now()
	entry := &crossEntry{
		state: &CrossState{
			Txn: id, Shards: shards,
			Verdicts: make(map[int]types.Decision, len(shards)),
		},
		submitted: start,
		topState:  service.StateRunning,
	}

	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return Result{}, service.ErrDraining
	}
	if _, dup := c.cross[id]; dup {
		c.mu.Unlock()
		return Result{}, &service.DuplicateError{ID: id}
	}
	c.cross[id] = entry
	c.inFlight.Add(1)
	c.mu.Unlock()
	defer c.inFlight.Done()
	c.met.submitted.Inc()

	// The begin record is the recovery anchor: a coordinator that crashes
	// past this point replays it and knows which shards to interrogate.
	if err := c.log.Append(CrossRecord{Type: RecBegin, Txn: id, Shards: shards}); err != nil {
		c.finishCross(entry, service.StateFailed, types.DecisionNone, start)
		return Result{}, fmt.Errorf("shard: logging begin: %w", err)
	}

	// The cross spans go to the ring only for a traced id.
	spans := c.cfg.Group.Spans
	if !spans.Traced(id) {
		spans = nil
	}
	prepU := spans.Now()

	// Prepare layer: every participating shard decides its child through
	// its own group, concurrently.
	type verdict struct {
		shard int
		d     types.Decision
	}
	results := make(chan verdict, len(shards))
	for _, k := range shards {
		go func(k int) {
			res, err := c.groups[k].Submit(ctx, service.Request{
				ID: ChildID(id, k), Votes: req.Votes, Timeout: req.Timeout,
			})
			d := types.DecisionNone
			switch {
			case err != nil:
				d = c.verdictFromStatus(k, ChildID(id, k))
			case res.State == service.StateCommit:
				d = types.DecisionCommit
			case res.State == service.StateAbort:
				d = types.DecisionAbort
			}
			results <- verdict{shard: k, d: d}
		}(k)
	}
	for range shards {
		v := <-results
		c.mu.Lock()
		entry.state.Verdicts[v.shard] = v.d
		c.mu.Unlock()
		if v.d != types.DecisionNone {
			// Best effort: a lost verdict record only means recovery
			// re-queries that shard.
			c.log.Append(CrossRecord{ //nolint:errcheck
				Type: RecVerdict, Txn: id, Shard: v.shard, Decision: v.d,
			})
		}
	}
	spans.Add(span.Span{
		Txn: id, Track: CrossTrack, Name: "prepare", Kind: span.KindStage,
		Start: prepU, End: spans.Now(), From: -1, To: -1,
		Detail: "shards=" + fmtShards(shards),
	})

	c.mu.Lock()
	outcome, decided := combine(entry.state)
	c.mu.Unlock()

	state := service.StateTimeout
	if decided {
		durable := c.journalOutcome(id, outcome)
		err := c.log.Append(CrossRecord{Type: RecOutcome, Txn: id, Decision: outcome})
		if jerr := durable(); err == nil {
			err = jerr
		}
		if err != nil {
			c.finishCross(entry, service.StateFailed, types.DecisionNone, start)
			return Result{}, fmt.Errorf("shard: logging outcome: %w", err)
		}
		if outcome == types.DecisionCommit {
			state = service.StateCommit
		} else {
			state = service.StateAbort
		}
	}
	c.finishCross(entry, state, outcome, start)
	spans.Add(span.Span{
		Txn: id, Track: CrossTrack, Name: "decided", Kind: span.KindStage,
		Start: spans.Now(), End: spans.Now(), From: -1, To: -1,
		Detail: "state=" + string(state),
	})
	return Result{
		ID: id, State: state, Decision: outcome,
		Coordinator: -1, Shards: shards, Latency: time.Since(start),
	}, nil
}

// journalOutcome hands a decided cross outcome to the group id routes
// to (service.Record), which journals it, if it keeps a journal, and
// holds it in its status table — where Status looks for an id the
// coordinator does not hold, so a restarted deployment still answers it
// — and returns a wait that blocks until the record is durable.
func (c *Coordinator) journalOutcome(id string, d types.Decision) (wait func() error) {
	done := make(chan error, 1)
	c.groups[c.router.Route(id)].Record([]string{id}, []types.Decision{d}, func(err error) { done <- err })
	return func() error { return <-done }
}

// verdictFromStatus recovers a child's verdict from its group's status
// table when the blocking Submit path errored (duplicate resubmission,
// admission race during drain). Decisions are absorbing, so a terminal
// status is authoritative; anything else stays unknown.
func (c *Coordinator) verdictFromStatus(k int, childID string) types.Decision {
	st, ok := c.groups[k].Status(childID)
	if !ok {
		return types.DecisionNone
	}
	switch st.State {
	case service.StateCommit:
		return types.DecisionCommit
	case service.StateAbort:
		return types.DecisionAbort
	}
	return types.DecisionNone
}

// combine folds the shard verdicts into the top-level outcome:
//
//   - any ABORT   → ABORT (absorbing: full knowledge can only add more
//     verdicts, never remove the abort)
//   - all COMMIT  → COMMIT
//   - otherwise   → in doubt (no abort seen, but not every verdict known)
//
// The rule is monotone under resolving unknowns, so an observer with
// partial knowledge that reaches a decision agrees with every observer
// that has full knowledge — the property the atomicity auditor checks.
func combine(st *CrossState) (types.Decision, bool) {
	commits := 0
	for _, k := range st.Shards {
		switch st.Verdicts[k] {
		case types.DecisionAbort:
			return types.DecisionAbort, true
		case types.DecisionCommit:
			commits++
		}
	}
	if commits == len(st.Shards) {
		return types.DecisionCommit, true
	}
	return types.DecisionNone, false
}

// finishCross records a cross transaction's terminal (or in-doubt)
// resolution: state bookkeeping, metrics, retention.
func (c *Coordinator) finishCross(entry *crossEntry, state service.State, d types.Decision, start time.Time) {
	latency := time.Since(start)
	c.mu.Lock()
	entry.topState = state
	if d != types.DecisionNone {
		entry.state.Decided, entry.state.Outcome = true, d
		entry.adopted = true
	}
	c.retainLocked(entry.state.Txn)
	c.mu.Unlock()
	switch state {
	case service.StateCommit:
		c.met.committed.Inc()
	case service.StateAbort:
		c.met.aborted.Inc()
	case service.StateTimeout:
		c.met.timedOut.Inc()
	case service.StateFailed:
		c.met.failed.Inc()
	}
	if state == service.StateCommit || state == service.StateAbort {
		c.lat.Add(float64(latency) / float64(time.Millisecond))
		c.met.latency.Observe(latency.Seconds())
	}
}

// retainLocked enforces bounded retention of finished cross statuses.
// Caller holds mu.
func (c *Coordinator) retainLocked(id string) {
	c.finished = append(c.finished, id)
	for len(c.finished)-c.finishedHead > wal.DecisionWindow {
		delete(c.cross, c.finished[c.finishedHead])
		c.finished[c.finishedHead] = ""
		c.finishedHead++
	}
	if c.finishedHead > 0 && c.finishedHead*2 > len(c.finished) {
		c.finished = append(c.finished[:0:0], c.finished[c.finishedHead:]...)
		c.finishedHead = 0
	}
}

// fmtShards renders a shard set compactly ("0+2+5").
func fmtShards(shards []int) string {
	var b strings.Builder
	for i, s := range shards {
		if i > 0 {
			b.WriteByte('+')
		}
		b.WriteString(strconv.Itoa(s))
	}
	return b.String()
}

// Status reports a known transaction's state, cross-shard aware: a
// cross transaction answers from the coordinator's table, anything else
// routes to its shard's group (child ids route to their shard too,
// since "#s<k>" names the shard explicitly). A cross outcome decided
// before a restart answers from the group its id routes to, whose
// journal holds it (journalOutcome); so an adopted outcome answers here
// only while that group's status table still holds it, which keeps it
// inside the journal's window (wal.DecisionWindow).
func (c *Coordinator) Status(id string) (TxnStatus, bool) {
	c.mu.Lock()
	e, cross := c.cross[id]
	var st TxnStatus
	adopted := cross && e.adopted
	if cross {
		st = TxnStatus{
			TxnStatus: service.TxnStatus{
				ID: id, State: e.topState, Submitted: e.submitted,
			},
			Shard: -1, Cross: true,
			Shards: append([]int(nil), e.state.Shards...),
		}
		if e.state.Decided {
			st.Decision = e.state.Outcome.String()
		}
	}
	c.mu.Unlock()
	if cross && !adopted {
		return st, true
	}

	k := c.shardOf(id)
	gst, ok := c.groups[k].Status(id)
	if !ok {
		return TxnStatus{}, false
	}
	if !adopted {
		st = TxnStatus{TxnStatus: gst, Shard: k}
	}
	return st, true
}

// shardOf routes an id, honoring an explicit child suffix.
func (c *Coordinator) shardOf(id string) int {
	if i := strings.LastIndex(id, childSep); i >= 0 {
		if k, err := strconv.Atoi(id[i+len(childSep):]); err == nil && k >= 0 && k < c.cfg.Shards {
			return k
		}
	}
	return c.router.Route(id)
}

// Crash fail-stops processor node in shard k's group.
func (c *Coordinator) Crash(k int, node types.ProcID) error {
	if k < 0 || k >= c.cfg.Shards {
		return fmt.Errorf("shard: shard %d out of range [0,%d)", k, c.cfg.Shards)
	}
	return c.groups[k].Crash(node)
}

// CrashEverywhere fail-stops processor node in every group — the
// correlated-failure case (a host carrying one replica of each group
// dies).
func (c *Coordinator) CrashEverywhere(node types.ProcID) error {
	for k := range c.groups {
		if err := c.groups[k].Crash(node); err != nil {
			return err
		}
	}
	return nil
}

// Metrics snapshots the deployment: per-shard service metrics, their
// aggregate, and the cross-shard layer.
func (c *Coordinator) Metrics() Metrics {
	m := Metrics{Shards: c.cfg.Shards, PerShard: make([]service.Metrics, c.cfg.Shards)}
	for k, g := range c.groups {
		sm := g.Metrics()
		m.PerShard[k] = sm
		m.Aggregate.Submitted += sm.Submitted
		m.Aggregate.Committed += sm.Committed
		m.Aggregate.Aborted += sm.Aborted
		m.Aggregate.TimedOut += sm.TimedOut
		m.Aggregate.Failed += sm.Failed
		m.Aggregate.RejectedFull += sm.RejectedFull
		m.Aggregate.RejectedDraining += sm.RejectedDraining
		m.Aggregate.Batches += sm.Batches
		m.Aggregate.BatchesDecided += sm.BatchesDecided
		m.Aggregate.SafetyViolations += sm.SafetyViolations
		m.Aggregate.Queued += sm.Queued
		m.Aggregate.InFlight += sm.InFlight
		m.Aggregate.ActiveInstances += sm.ActiveInstances
		if sm.MaxBatch > m.Aggregate.MaxBatch {
			m.Aggregate.MaxBatch = sm.MaxBatch
		}
	}
	m.Aggregate.N = c.N()
	m.Aggregate.Draining = c.Draining()

	m.Cross = CrossMetrics{
		Submitted: c.met.submitted.Value(),
		Committed: c.met.committed.Value(),
		Aborted:   c.met.aborted.Value(),
		TimedOut:  c.met.timedOut.Value(),
		Failed:    c.met.failed.Value(),
		Recovered: c.met.recovered.Value(),
	}
	c.mu.Lock()
	for _, e := range c.cross {
		if !e.state.Decided {
			m.Cross.InDoubt++
		}
	}
	c.mu.Unlock()
	snap := c.lat.Snapshot(50, 95, 99)
	m.Cross.LatencyMeanMs = snap.Summary.Mean
	m.Cross.LatencyP50Ms = snap.Percentiles[0]
	m.Cross.LatencyP95Ms = snap.Percentiles[1]
	m.Cross.LatencyP99Ms = snap.Percentiles[2]
	return m
}

// WatchStats implements watch.Source for the whole deployment: every
// group's sample plus cross-shard transactions whose top-level verdict
// has been in doubt longer than stall (sorted by id).
func (c *Coordinator) WatchStats(stall time.Duration) watch.Stats {
	st := watch.Stats{Shards: make([]watch.ShardSample, 0, c.cfg.Shards)}
	for _, g := range c.groups {
		st.Shards = append(st.Shards, g.WatchSample(stall))
	}
	now := time.Now()
	c.mu.Lock()
	for id, e := range c.cross {
		if e.state.Decided {
			continue
		}
		if age := now.Sub(e.submitted); age >= stall {
			st.Cross = append(st.Cross, watch.TxnAge{
				Txn: id, AgeMs: age.Milliseconds(), State: string(e.topState),
			})
		}
	}
	c.mu.Unlock()
	sort.Slice(st.Cross, func(i, j int) bool { return st.Cross[i].Txn < st.Cross[j].Txn })
	return st
}

// Resolve settles one in-doubt cross-shard transaction by interrogating
// each participating shard: a logged verdict stands; otherwise the
// shard's group is asked (status query, then an abort-proposing
// resubmission — Gray & Lamport's rule that an unprepared participant is
// aborted on recovery). Returns the outcome once every verdict is known,
// or DecisionNone with an error if ctx expires first.
func (c *Coordinator) Resolve(ctx context.Context, st *CrossState) (types.Decision, error) {
	for _, k := range st.Shards {
		if st.Verdicts[k] != types.DecisionNone {
			continue
		}
		d, err := c.resolveChild(ctx, k, ChildID(st.Txn, k))
		if err != nil {
			return types.DecisionNone, err
		}
		st.Verdicts[k] = d
		c.log.Append(CrossRecord{ //nolint:errcheck // best-effort cache
			Type: RecVerdict, Txn: st.Txn, Shard: k, Decision: d,
		})
		if d == types.DecisionAbort {
			break // abort is absorbing; no need to resolve the rest now
		}
	}
	outcome, decided := combine(st)
	if !decided {
		return types.DecisionNone, fmt.Errorf("shard: txn %q still in doubt", st.Txn)
	}
	if err := c.log.Append(CrossRecord{Type: RecOutcome, Txn: st.Txn, Decision: outcome}); err != nil {
		return types.DecisionNone, err
	}
	st.Decided, st.Outcome = true, outcome
	return outcome, nil
}

// resolveChild learns one shard's verdict for a child transaction. The
// child either ran before the crash (its decision is absorbing — poll
// the status table) or never reached the shard (propose abort by
// submitting it with all-abort votes; a duplicate rejection means it is
// actually running, so fall back to polling).
func (c *Coordinator) resolveChild(ctx context.Context, k int, childID string) (types.Decision, error) {
	g := c.groups[k]
	if d := c.verdictFromStatus(k, childID); d != types.DecisionNone {
		return d, nil
	}
	if _, known := g.Status(childID); !known {
		votes := make([]bool, g.N()) // all false: propose abort
		res, err := g.Submit(ctx, service.Request{ID: childID, Votes: votes})
		var dup *service.DuplicateError
		switch {
		case err == nil:
			switch res.State {
			case service.StateCommit:
				return types.DecisionCommit, nil
			case service.StateAbort:
				return types.DecisionAbort, nil
			}
		case errors.As(err, &dup):
			// Lost the race with an in-flight child; poll below.
		default:
			return types.DecisionNone, err
		}
	}
	// Poll: the child is known but not yet terminal; its group's decision
	// is absorbing and the status table keeps answering after timeouts.
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if d := c.verdictFromStatus(k, childID); d != types.DecisionNone {
			return d, nil
		}
		select {
		case <-ctx.Done():
			return types.DecisionNone, ctx.Err()
		case <-tick.C:
		}
	}
}

// Recover replays a cross log's records and settles every in-doubt
// transaction against the (restarted) shard groups. It returns how many
// transactions were settled. Call after New, before serving traffic.
func (c *Coordinator) Recover(ctx context.Context, records []CrossRecord) (int, error) {
	states := ReconstructCross(records)
	// Deterministic order: sort ids so recovery is replayable.
	ids := make([]string, 0, len(states))
	for id := range states {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	settled := 0
	for _, id := range ids {
		st := states[id]
		c.mu.Lock()
		c.cross[id] = &crossEntry{state: st, submitted: time.Now(), topState: service.StateTimeout}
		c.mu.Unlock()
		if !st.InDoubt() {
			c.adoptOutcome(id, st)
			continue
		}
		if len(st.Shards) == 0 {
			continue // torn log lost the begin record; nothing to ask
		}
		if _, err := c.Resolve(ctx, st); err != nil {
			return settled, err
		}
		c.adoptOutcome(id, st)
		c.met.recovered.Inc()
		settled++
	}
	return settled, nil
}

// adoptOutcome mirrors a reconstructed outcome into the status table.
func (c *Coordinator) adoptOutcome(id string, st *CrossState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.cross[id]
	if e == nil || !st.Decided {
		return
	}
	if st.Outcome == types.DecisionCommit {
		e.topState = service.StateCommit
	} else {
		e.topState = service.StateAbort
	}
}

// Close drains and stops the deployment: new submissions are rejected,
// in-flight cross-shard transactions resolve first (their children need
// live groups), then every group drains and stops. The first error wins.
func (c *Coordinator) Close(ctx context.Context) error {
	c.mu.Lock()
	already := c.stopped
	c.stopped = true
	c.mu.Unlock()

	if !already {
		done := make(chan struct{})
		go func() {
			c.inFlight.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			// Give up waiting; group Close below hard-aborts stragglers.
		}
	}

	var firstErr error
	var wg sync.WaitGroup
	var mu sync.Mutex
	for _, g := range c.groups {
		wg.Add(1)
		go func(g *service.Service) {
			defer wg.Done()
			if err := g.Close(ctx); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	return firstErr
}
