// Package service turns the transaction-commit library into a running
// system: a client-facing commit service fronting a live cluster of
// transaction managers (internal/txn over internal/runtime +
// internal/transport).
//
// The serving discipline is the part the protocol papers leave out:
//
//   - Admission control: a bounded queue; a full queue rejects with a
//     typed OverloadError carrying a retry hint, never unbounded growth.
//   - Deadlines: every request carries one; a missed deadline surfaces as
//     an explicit TIMEOUT result, never a hang. (TIMEOUT means unknown —
//     the cluster may still commit the transaction; Status keeps
//     answering afterward.)
//   - Batching: each dispatcher wake coalesces the queued submissions
//     into ONE batched Protocol 2 instance deciding their outcome vector
//     (a lone submission is a batch of width 1), on a coordinator picked
//     round-robin, so many protocol instances interleave on the same
//     processors — the paper's distributed-database setting under real
//     goroutine concurrency.
//   - Lifecycle: Close drains gracefully — queued work still dispatches,
//     in-flight transactions finish or time out, then the cluster stops.
//   - Instrumentation: counters plus a bounded latency recorder
//     (internal/stats) exported as one Metrics snapshot; every node's
//     decisions are cross-checked, so a safety violation (conflicting
//     decisions for one transaction) would be counted and visible.
package service

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/olog"
	"repro/internal/obs/span"
	"repro/internal/obs/watch"
	"repro/internal/runtime"
	"repro/internal/stats"
	"repro/internal/txn"
	"repro/internal/types"
)

// pending is one admitted, unresolved submission.
type pending struct {
	id        txn.ID
	votes     []bool
	submitted time.Time
	timer     *time.Timer
	done      chan Result
	// admitU is the span-collector clock at admission; set before the
	// pending is published, so the mu handoff makes it visible.
	admitU int64
	// dequeueU is set by the dispatcher goroutine when the submission
	// leaves the queue and read only on that goroutine (dispatchBatch).
	dequeueU int64
	// dispatched, coordinator, dispatchU, and batch are written under
	// Service.mu.
	dispatched  bool
	coordinator types.ProcID
	dispatchU   int64
	// batch names the agreement batch the submission dispatched in
	// (empty until then).
	batch string
}

// svcMetrics bundles the service's handles into the shared registry.
// These replaced the original mu-guarded counter struct: the counts are
// now atomic registry counters so GET /metrics.prom and the JSON
// GET /metrics read the same underlying numbers.
//
// Every family carries a leading "shard" label so N independent groups
// hosted in one daemon (internal/shard) share the registry without their
// counts merging; an unsharded service is shard "0".
//
// Every handle is resolved here, once: a Vec's With builds a label key per
// call, which is no cost to pay per transaction.
type svcMetrics struct {
	submitted      *obs.Counter
	batches        *obs.Counter
	violations     *obs.Counter
	latency        *obs.Histogram            // seconds, decided (COMMIT/ABORT) submissions
	stage          map[string]*obs.Histogram // seconds per pipeline stage, by stage name
	occupancy      *obs.Histogram            // members per dispatched agreement batch
	batchesDecided *obs.Counter              // batches whose every member resolved
	rescues        *obs.Counter              // orphaned batches re-dispatched after a coordinator crash

	// service_outcomes_total by outcome, service_rejected_total by reason.
	committed, aborted, timedOut, failed *obs.Counter
	rejectedFull, rejectedDraining       *obs.Counter
}

// OccupancyBuckets are the upper bounds for the batch-occupancy
// histogram: powers of two up to 256, covering BatchMax values in
// practical use.
var OccupancyBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

func newSvcMetrics(reg *obs.Registry, shard string) svcMetrics {
	outcomes := reg.CounterVec("service_outcomes_total",
		"Terminal submission outcomes.", "shard", "outcome")
	rejected := reg.CounterVec("service_rejected_total",
		"Submissions rejected at admission.", "shard", "reason")
	stages := reg.HistogramVec("service_stage_seconds",
		"Per-stage latency of the submission pipeline (admit, batch, dispatch, decided, notify).",
		obs.DefBuckets, "shard", "stage")
	stage := make(map[string]*obs.Histogram, len(stageNames))
	for _, st := range stageNames {
		stage[st] = stages.With(shard, st)
	}
	return svcMetrics{
		submitted: reg.CounterVec("service_submitted_total",
			"Transactions admitted into the queue.", "shard").With(shard),
		committed:        outcomes.With(shard, "committed"),
		aborted:          outcomes.With(shard, "aborted"),
		timedOut:         outcomes.With(shard, "timed_out"),
		failed:           outcomes.With(shard, "failed"),
		rejectedFull:     rejected.With(shard, "full"),
		rejectedDraining: rejected.With(shard, "draining"),
		batches: reg.CounterVec("service_batches_total",
			"Dispatcher wakeups that dispatched at least one submission.", "shard").With(shard),
		violations: reg.CounterVec("service_safety_violations_total",
			"Conflicting decisions observed for one transaction (Agreement violations).", "shard").With(shard),
		latency: reg.HistogramVec("service_latency_seconds",
			"Submission-to-decision latency of committed/aborted transactions.",
			obs.DefBuckets, "shard").With(shard),
		stage: stage,
		occupancy: reg.HistogramVec("service_batch_occupancy",
			"Members per dispatched agreement batch.",
			OccupancyBuckets, "shard").With(shard),
		batchesDecided: reg.CounterVec("service_batches_decided_total",
			"Agreement batches whose every member reached a terminal state.", "shard").With(shard),
		rescues: reg.CounterVec("service_rescues_total",
			"Orphaned batches re-dispatched to a live coordinator after a coordinator fail-stop.", "shard").With(shard),
	}
}

// newGaugeMetrics registers the gauges a scrape computes from s.
func newGaugeMetrics(reg *obs.Registry, shard string, s *Service) {
	reg.GaugeFuncVec("service_queue_depth",
		"Submissions waiting in the admission queue.", "shard").
		With(func() float64 { return float64(len(s.queue)) }, shard)
	reg.GaugeFuncVec("service_in_flight",
		"Commit instances currently holding an in-flight slot.", "shard").
		With(func() float64 { return float64(len(s.slots)) }, shard)
	reg.GaugeFuncVec("service_active_instances",
		"Instances still held by the transaction managers (all nodes).", "shard").
		With(func() float64 {
			total := 0
			for _, mgr := range s.managers {
				total += mgr.Active()
			}
			return float64(total)
		}, shard)
}

// stageNames lists the pipeline stages in causal order.
var stageNames = []string{
	span.StageAdmit, span.StageBatch, span.StageDispatch, span.StageDecided, span.StageNotify,
}

// Service is a running commit service. Create with New, submit with
// Submit, stop with Close.
type Service struct {
	cfg      Config
	managers []*txn.Manager
	cluster  *runtime.Cluster

	queue          chan *pending
	slots          chan struct{}
	abort          chan struct{} // closed on hard stop: unresolved → TIMEOUT
	dispatcherDone chan struct{}
	outstanding    sync.WaitGroup

	lat      *stats.Recorder
	stageLat map[string]*stats.Recorder
	met      svcMetrics
	ready    atomic.Bool

	mu        sync.Mutex
	stopped   bool
	nextID    uint64
	nextBatch uint64
	// batches holds each dispatched agreement batch until every member is
	// both terminal and decided.
	batches  map[string]*batchState
	rr       int
	crashed  []bool
	maxBatch int
	pendings map[txn.ID]*pending
	statuses map[string]*status
	// finished is the FIFO of terminal status ids for bounded retention.
	finished     []string
	finishedHead int
}

// batchState is the service's book on one dispatched agreement batch.
type batchState struct {
	// members is the batch's vector order: rescueOrphans re-dispatches a
	// batch whose coordinator fail-stopped pre-GO verbatim, same batch id
	// and same order, so a partially propagated original merges instead
	// of forking.
	members []txn.ID
	// unresolved counts members not yet terminal, undecided those without
	// a protocol decision; a deadline makes a member terminal without
	// deciding it.
	unresolved, undecided int
}

// status is the internal mutable record behind TxnStatus.
type status struct {
	TxnStatus
	// first is the first decision any node reported; later conflicting
	// reports count as safety violations.
	first types.Decision
	// batch is the agreement batch this transaction dispatched in ("" until
	// then); Coordinator is meaningful only once it is set.
	batch string
	// votes is the submission's vote vector, one per processor (nil for a
	// status recovered from the journal: it never dispatches again).
	votes []bool
}

// New builds and starts a commit service: the cluster nodes begin
// ticking and the dispatcher begins draining the admission queue.
func New(cfg Config) (*Service, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Service{
		cfg:            cfg,
		queue:          make(chan *pending, cfg.QueueDepth),
		slots:          make(chan struct{}, cfg.MaxInFlight),
		abort:          make(chan struct{}),
		dispatcherDone: make(chan struct{}),
		lat:            stats.NewRecorder(LatencyWindow),
		stageLat:       make(map[string]*stats.Recorder, len(stageNames)),
		met:            newSvcMetrics(cfg.Registry, cfg.shardLabel()),
		crashed:        make([]bool, cfg.N),
		batches:        make(map[string]*batchState),
		pendings:       make(map[txn.ID]*pending),
		statuses:       make(map[string]*status),
	}
	for _, st := range stageNames {
		s.stageLat[st] = stats.NewRecorder(LatencyWindow)
	}
	if cfg.Journal != nil {
		// Seed the status table with the journal's recovered decisions:
		// a restarted service keeps answering — and can never contradict —
		// transactions it acked before dying. Nothing else runs yet, so
		// the maps are safe to fill without mu.
		rec := cfg.Journal.Recovered()
		ids := make([]string, 0, len(rec))
		for id := range rec {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			d := rec[id]
			s.statuses[id] = &status{
				TxnStatus: TxnStatus{ID: id, State: stateOf(d), Decision: d.String()},
				first:     d,
			}
			s.retain(id)
		}
	}
	newGaugeMetrics(cfg.Registry, cfg.shardLabel(), s)

	s.managers = make([]*txn.Manager, cfg.N)
	machines := make([]types.Machine, cfg.N)
	for p := 0; p < cfg.N; p++ {
		proc := types.ProcID(p)
		mgr, err := txn.NewManager(txn.Config{
			ID: proc, N: cfg.N, T: cfg.T, K: cfg.K,
			Shard:       cfg.Shard,
			Vote:        func(id txn.ID) bool { return s.voteFor(proc, id) },
			OnOutcome:   func(o txn.Outcome) { s.onOutcome(proc, o) },
			RetireAfter: cfg.RetireAfterTicks,
			MaxAge:      cfg.MaxAgeTicks,
			Registry:    cfg.Registry,
			Spans:       cfg.Spans,
		})
		if err != nil {
			return nil, err
		}
		s.managers[p] = mgr
		machines[p] = mgr
	}

	// The hub's link spans and the crash milestones land in the same ring
	// as the service's stages and the managers' rounds — one causal graph.
	s.cluster, err = runtime.NewCluster(machines, cfg.Transports, runtime.ClusterOptions{
		TickEvery:  cfg.TickEvery,
		Seed:       cfg.Seed,
		Hub:        cfg.Hub,
		Persistent: true,
		Registry:   cfg.Registry,
		Spans:      cfg.Spans,
	})
	if err != nil {
		return nil, err
	}
	s.cluster.Start(context.Background())

	go s.dispatch()
	s.ready.Store(true)
	return s, nil
}

// Registry returns the shared metrics registry every layer of this
// service emits into (never nil).
func (s *Service) Registry() *obs.Registry { return s.cfg.Registry }

// Spans returns the causal span collector (never nil).
func (s *Service) Spans() *span.Collector { return s.cfg.Spans }

// Ready reports whether the service accepts new submissions: the
// cluster has started and the service is not draining.
func (s *Service) Ready() bool { return s.ready.Load() && !s.Draining() }

// N reports the cluster size.
func (s *Service) N() int { return s.cfg.N }

// Draining reports whether the service has begun shutting down.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stopped
}

// voteFor answers a manager's vote query from the submission's vote
// vector; transactions the service does not know default to commit.
func (s *Service) voteFor(p types.ProcID, id txn.ID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st := s.statuses[string(id)]; st != nil && st.votes != nil {
		return st.votes[p]
	}
	return true
}

// Submit runs one transaction to a terminal result. It blocks until the
// transaction commits, aborts, or times out — or returns a typed error
// when the submission is rejected at admission (OverloadError,
// ErrDraining, DuplicateError, validation). If ctx ends first, Submit
// returns ctx's error while the transaction continues server-side
// (query it later via Status).
func (s *Service) Submit(ctx context.Context, req Request) (Result, error) {
	if req.Votes != nil && len(req.Votes) != s.cfg.N {
		return Result{}, fmt.Errorf("service: %d votes for %d processors", len(req.Votes), s.cfg.N)
	}
	votes := req.Votes
	if votes == nil {
		votes = make([]bool, s.cfg.N)
		for i := range votes {
			votes[i] = true
		}
	}
	timeout := req.Timeout
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}

	p := &pending{
		votes:     votes,
		submitted: time.Now(),
		done:      make(chan Result, 1),
		admitU:    s.cfg.Spans.Now(),
	}

	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		s.met.rejectedDraining.Inc()
		return Result{}, ErrDraining
	}
	id := req.ID
	if id == "" {
		s.nextID++
		id = fmt.Sprintf("txn-%d", s.nextID)
	}
	if _, dup := s.statuses[id]; dup {
		s.mu.Unlock()
		return Result{}, &DuplicateError{ID: id}
	}
	p.id = txn.ID(id)
	// Admission: enqueue or reject — never block, never grow unbounded.
	select {
	case s.queue <- p:
	default:
		hint := s.cfg.RetryHint
		s.mu.Unlock()
		s.met.rejectedFull.Inc()
		return Result{}, &OverloadError{RetryAfter: hint}
	}
	s.met.submitted.Inc()
	s.pendings[p.id] = p
	s.statuses[id] = &status{
		TxnStatus: TxnStatus{ID: id, State: StateQueued, Submitted: p.submitted},
		votes:     votes,
	}
	s.outstanding.Add(1)
	p.timer = time.AfterFunc(timeout, func() {
		s.resolve(p, StateTimeout, types.DecisionNone)
	})
	s.mu.Unlock()

	select {
	case res := <-p.done:
		return res, nil
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
}

// dispatch is the admission-queue consumer: it coalesces queued
// submissions into batches and begins each as one agreement instance on
// the next live coordinator.
func (s *Service) dispatch() {
	defer close(s.dispatcherDone)
	for first := range s.queue {
		first.dequeueU = s.cfg.Spans.Now()
		batch := []*pending{first}
	collect:
		for len(batch) < s.cfg.BatchMax {
			select {
			case p, ok := <-s.queue:
				if !ok {
					break collect
				}
				p.dequeueU = s.cfg.Spans.Now()
				batch = append(batch, p)
			default:
				break collect
			}
		}
		s.met.batches.Inc()
		s.mu.Lock()
		if len(batch) > s.maxBatch {
			s.maxBatch = len(batch)
		}
		s.mu.Unlock()
		s.dispatchBatch(batch)
	}
}

// dispatchBatch begins ONE batched agreement instance for a coalesced
// batch: the members' votes are packed into one vote vector and the
// whole vector is decided by a single Protocol 2 run. Each member holds
// its own in-flight slot, so MaxInFlight bounds transactions, not
// instances.
func (s *Service) dispatchBatch(batch []*pending) {
	entryU := s.cfg.Spans.Now()
	for _, p := range batch {
		s.recordStage(p.id, span.StageAdmit, p.admitU, p.dequeueU, "")
		s.recordStage(p.id, span.StageBatch, p.dequeueU, entryU, "")
	}
	for i := range batch {
		select {
		case s.slots <- struct{}{}:
		case <-s.abort:
			for _, p := range batch {
				s.resolve(p, StateTimeout, types.DecisionNone)
			}
			for ; i > 0; i-- {
				<-s.slots
			}
			return
		}
	}

	s.mu.Lock()
	live := make([]*pending, 0, len(batch))
	for _, p := range batch {
		if _, ok := s.pendings[p.id]; ok {
			live = append(live, p)
		}
	}
	if len(live) == 0 {
		s.mu.Unlock()
		for range batch {
			<-s.slots
		}
		return
	}
	s.nextBatch++
	// Batch ids key the shared span collector, so groups
	// hosted in one daemon qualify theirs with their shard label.
	name := "batch-" + strconv.FormatUint(s.nextBatch, 10)
	if s.cfg.Shard != "" {
		name = "s" + s.cfg.Shard + "-" + name
	}
	bid := txn.BatchID(name)
	coord := s.nextCoordinatorLocked()
	dispatchU := s.cfg.Spans.Now()
	ids := make([]txn.ID, len(live))
	votes := make([]bool, len(live))
	for i, p := range live {
		ids[i] = p.id
		votes[i] = p.votes[coord]
		p.dispatched = true
		p.coordinator = coord
		p.dispatchU = dispatchU
		p.batch = string(bid)
		if st := s.statuses[string(p.id)]; st != nil {
			st.State = StateRunning
			st.Coordinator = coord
			st.batch = string(bid)
		}
	}
	s.batches[string(bid)] = &batchState{members: ids, unresolved: len(live), undecided: len(live)}
	s.mu.Unlock()
	// Members that resolved while queued (deadline hit) never dispatch;
	// their slots go straight back.
	for i := len(live); i < len(batch); i++ {
		<-s.slots
	}
	s.met.occupancy.Observe(float64(len(live)))
	detail := "coordinator=" + strconv.Itoa(int(coord)) + " " + obs.BatchDetail(string(bid))
	for _, p := range live {
		s.recordStage(p.id, span.StageDispatch, entryU, dispatchU, detail)
	}
	if err := s.managers[coord].BeginBatch(bid, ids, votes); err != nil {
		for _, p := range live {
			s.resolve(p, StateFailed, types.DecisionNone)
		}
		return
	}
	s.cluster.Node(coord).Wake() // flood the GO now, not at the next tick
}

// recordStage emits one service pipeline stage as a span, a histogram
// observation, and a latency-recorder sample. Zero or backwards
// intervals (a stage the submission never reached) are skipped.
func (s *Service) recordStage(id txn.ID, stage string, start, end int64, detail string) {
	if end < start || (start == 0 && end == 0) {
		return
	}
	s.cfg.Spans.Add(span.Span{
		Txn: string(id), Track: span.ServiceTrack, Name: stage, Kind: span.KindStage,
		Start: start, End: end, From: -1, To: -1, Detail: detail,
	})
	d := float64(end-start) / 1e6 // collector clock is microseconds
	s.met.stage[stage].Observe(d)
	if rec := s.stageLat[stage]; rec != nil {
		rec.Add(d * 1e3) // recorders hold milliseconds
	}
}

// nextCoordinatorLocked picks the next round-robin coordinator, skipping
// crashed processors (falling back to the raw rotation if all crashed).
func (s *Service) nextCoordinatorLocked() types.ProcID {
	for i := 0; i < s.cfg.N; i++ {
		p := s.rr % s.cfg.N
		s.rr++
		if !s.crashed[p] {
			return types.ProcID(p)
		}
	}
	return types.ProcID(s.rr % s.cfg.N)
}

// onOutcome receives every node's per-transaction decision: the first
// report resolves the pending submission; every later report is
// cross-checked against it (Agreement says they can never differ — the
// violations counter proves we looked).
func (s *Service) onOutcome(p types.ProcID, o txn.Outcome) {
	s.mu.Lock()
	st := s.statuses[string(o.Txn)]
	if st == nil {
		s.mu.Unlock()
		return
	}
	if st.first != types.DecisionNone {
		if o.Decision != st.first {
			s.met.violations.Inc()
		}
		s.mu.Unlock()
		return
	}
	st.first = o.Decision
	if b := s.batches[st.batch]; b != nil {
		b.undecided--
		s.dropBatchLocked(st.batch, b)
	}
	pd := s.pendings[o.Txn]
	late := pd == nil && st.State == StateTimeout
	s.mu.Unlock()
	switch {
	case pd != nil:
		s.resolve(pd, stateOf(o.Decision), o.Decision)
	case late:
		// The submission already resolved as TIMEOUT (unknown) but the
		// cluster has now decided; decisions are absorbing, so the status
		// table adopts it — recovery clients poll exactly for this — once
		// the journal holds it, like any acked decision.
		s.durably(string(o.Txn), o.Decision, func(error) {
			s.mu.Lock()
			s.publishLocked(string(o.Txn), stateOf(o.Decision), o.Decision)
			s.mu.Unlock()
		})
	}
}

// dropBatchLocked forgets a batch with nothing left to resolve, decide
// or rescue. Caller holds mu.
func (s *Service) dropBatchLocked(bid string, b *batchState) {
	if b.unresolved == 0 && b.undecided == 0 {
		delete(s.batches, bid)
	}
}

// durably runs then once the journal, if one is configured, has resolved
// the fsync covering id's decision: with nil when the decision is
// durable, with the error when the flush failed or the journal refused
// the append. then runs on the journal writer's goroutine and must not
// call back into the journal.
func (s *Service) durably(id string, d types.Decision, then func(error)) {
	if s.cfg.Journal == nil {
		then(nil)
		return
	}
	if err := s.cfg.Journal.Append(id, d, then); err != nil {
		then(err)
	}
}

// publishLocked makes a transaction's terminal state and decision
// visible to Status. For a COMMIT/ABORT under a journal the caller is
// durably's callback, so Status never reports a decision the disk may
// not hold; a failed flush still publishes, keeping the protocol's
// decision. Caller holds mu.
func (s *Service) publishLocked(id string, state State, d types.Decision) {
	if st := s.statuses[id]; st != nil {
		st.State = state
		if d != types.DecisionNone {
			st.Decision = d.String()
		}
	}
}

// resolve finishes a pending submission exactly once; later callers are
// no-ops. It updates the status record, records metrics, frees the
// in-flight slot, and delivers the result.
func (s *Service) resolve(p *pending, state State, d types.Decision) {
	s.mu.Lock()
	if _, live := s.pendings[p.id]; !live {
		s.mu.Unlock()
		return
	}
	delete(s.pendings, p.id)
	latency := time.Since(p.submitted)
	decision := state == StateCommit || state == StateAbort
	if st := s.statuses[string(p.id)]; st != nil {
		st.Latency = latency
		if !decision {
			s.publishLocked(string(p.id), state, d)
		}
	}
	dispatched := p.dispatched
	coord := p.coordinator
	dispatchU := p.dispatchU
	batchDone := false
	if b := s.batches[p.batch]; b != nil {
		b.unresolved--
		batchDone = b.unresolved == 0
		s.dropBatchLocked(p.batch, b)
	}
	s.mu.Unlock()
	if batchDone {
		s.met.batchesDecided.Inc()
	}

	// The decided stage runs from dispatch (or admission, for
	// submissions that never dispatched) to now; Detail names the
	// terminal state so timeouts are distinguishable in the span graph.
	decidedU := s.cfg.Spans.Now()
	startU := dispatchU
	if startU == 0 {
		startU = p.admitU
	}
	s.recordStage(p.id, span.StageDecided, startU, decidedU, "state="+string(state))

	switch state {
	case StateCommit:
		s.met.committed.Inc()
	case StateAbort:
		s.met.aborted.Inc()
	case StateTimeout:
		s.met.timedOut.Inc()
	case StateFailed:
		s.met.failed.Inc()
	}
	if p.timer != nil {
		p.timer.Stop()
	}
	if decision {
		s.lat.Add(float64(latency) / float64(time.Millisecond))
		s.met.latency.Observe(latency.Seconds())
	}
	if dispatched {
		<-s.slots
	}
	res := Result{
		ID:          string(p.id),
		State:       state,
		Decision:    d,
		Coordinator: coord,
		Latency:     latency,
	}
	deliver := func(jerr error) {
		if decision {
			// Status stays RUNNING until here: it reports COMMIT/ABORT
			// only once the journal's covering fsync has resolved.
			s.mu.Lock()
			s.publishLocked(string(p.id), state, d)
			s.mu.Unlock()
		}
		if jerr != nil {
			// The decision was reached but its durability could not be
			// confirmed (a failed group flush poisons the journal); the
			// client must not be told COMMIT/ABORT that a restarted
			// service might not remember. The status table keeps the
			// protocol decision.
			res.State = StateFailed
		}
		// The notify span is recorded before the caller is released, so
		// whoever Submit returns to finds the transaction's graph whole.
		s.recordStage(p.id, span.StageNotify, decidedU, s.cfg.Spans.Now(), "")
		p.done <- res
		s.cfg.Logger.Debug("transaction resolved",
			olog.Txn(string(p.id)), olog.Shard(s.cfg.shardLabel()),
			"state", string(res.State), "latency_ms", res.Latency.Milliseconds())
		s.outstanding.Done()
	}
	// deliver releases Close; hold it back until retain below has queued
	// its retirements, or they would race the caller closing the journal.
	s.outstanding.Add(1)
	defer s.outstanding.Done()
	if decision {
		// Durable ack: the journal's group-commit writer fires deliver
		// (on its goroutine) once an fsync covers this decision, so
		// concurrent decisions amortize one flush and no client is ever
		// acked a decision the disk does not hold.
		s.durably(string(p.id), d, deliver)
	} else {
		deliver(nil)
	}
	s.retain(string(p.id))
}

// retain enters a finished transaction into the bounded status table
// and tells the journal that the statuses this evicts no longer need to
// be recoverable: their tombstones go, which is what shrinks future
// snapshots and lets compaction reclaim segments. resolve calls it only
// after queueing the transaction's own decision, so no concurrent
// eviction can journal a Retire ahead of the decision it retires (which
// would leave that tombstone in the journal for good). Retire runs
// without mu — a full journal queue blocks, and the journal's writer
// takes mu to publish decisions.
func (s *Service) retain(id string) {
	s.mu.Lock()
	if s.statuses[id] == nil {
		s.mu.Unlock()
		return
	}
	var evicted []string
	s.finished = append(s.finished, id)
	for len(s.finished)-s.finishedHead > s.cfg.StatusRetention {
		old := s.finished[s.finishedHead]
		s.finished[s.finishedHead] = ""
		s.finishedHead++
		delete(s.statuses, old)
		evicted = append(evicted, old)
	}
	if s.finishedHead > 0 && s.finishedHead*2 > len(s.finished) {
		s.finished = append(s.finished[:0:0], s.finished[s.finishedHead:]...)
		s.finishedHead = 0
	}
	s.mu.Unlock()
	if s.cfg.Journal != nil {
		for _, old := range evicted {
			s.cfg.Journal.Retire(old) //nolint:errcheck // best-effort; a poisoned journal already fails acks
		}
	}
}

// Status reports a known transaction's state.
func (s *Service) Status(id string) (TxnStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.statuses[id]
	if !ok {
		return TxnStatus{}, false
	}
	return st.TxnStatus, true
}

// Crash fail-stops processor p: its node stops stepping and its
// transport closes. The dispatcher stops assigning it as coordinator. Within the tolerance T the cluster keeps
// deciding; beyond it, requests time out rather than hang.
func (s *Service) Crash(p types.ProcID) error {
	if int(p) < 0 || int(p) >= s.cfg.N {
		return fmt.Errorf("service: processor %d out of range [0,%d)", p, s.cfg.N)
	}
	s.mu.Lock()
	already := s.crashed[p]
	s.crashed[p] = true
	s.mu.Unlock()
	if already {
		return nil
	}
	s.cluster.Crash(p) // counts and traces the crash itself
	s.cfg.Logger.Warn("processor fail-stopped",
		olog.Shard(s.cfg.shardLabel()), olog.Node(int(p)))
	s.rescueOrphans(p)
	return nil
}

// rescueOrphans re-dispatches undecided batches stranded by a
// coordinator fail-stop. A batch whose coordinator crashes in the window
// between BeginBatch and the first GO flood is known only to the dead
// node: no other processor ever hears of it, no decision can ever
// arrive, and a recovery client polling Status for the absorbing outcome
// waits forever. Re-beginning it on a live coordinator closes the
// window.
//
// This is safe under fail-stop faults because instances are keyed by
// batch id: if the GO did leave the dead node before the crash, the
// re-begin merges with the instances it seeded — live joiners deliver
// into their existing instance, and a coordinator that already knows the
// id rejects the duplicate BeginBatch, which is exactly the non-orphan
// case and is ignored. Batches are re-dispatched verbatim (same batch
// id, same vector order) so a partially propagated original merges
// instead of forking a second agreement for the same members.
func (s *Service) rescueOrphans(p types.ProcID) {
	type rescue struct {
		bid   txn.BatchID
		coord types.ProcID
		ids   []txn.ID
		votes []bool
	}
	var rescues []rescue

	s.mu.Lock()
	bids := make([]string, 0, len(s.batches))
	for bid, b := range s.batches {
		if b.undecided > 0 {
			bids = append(bids, bid)
		}
	}
	sort.Strings(bids) // deterministic rescue order
	for _, bid := range bids {
		members := s.batches[bid].members
		stranded := false
		sts := make([]*status, 0, len(members))
		for _, m := range members {
			st := s.statuses[string(m)]
			if st == nil {
				break // evicted by retention, votes and all
			}
			sts = append(sts, st)
			if st.Coordinator == p && st.first == types.DecisionNone &&
				(st.State == StateRunning || st.State == StateTimeout) {
				stranded = true
			}
		}
		// A batch missing a member's votes cannot re-begin verbatim.
		if !stranded || len(sts) < len(members) {
			continue
		}
		coord := s.nextCoordinatorLocked()
		votes := make([]bool, len(members))
		for i, st := range sts {
			votes[i] = st.votes[coord]
			st.Coordinator = coord
		}
		rescues = append(rescues, rescue{
			bid: txn.BatchID(bid), coord: coord, ids: members, votes: votes,
		})
	}
	s.mu.Unlock()

	// Managers are called without s.mu held: the order is manager lock,
	// then s.mu (a join's vote callback), never the reverse.
	for _, r := range rescues {
		s.met.rescues.Inc()
		s.cfg.Logger.Info("rescued orphaned batch",
			olog.Shard(s.cfg.shardLabel()), olog.Node(int(r.coord)),
			"batch", string(r.bid), "members", len(r.ids), "crashed", int(p))
		s.managers[r.coord].BeginBatch(r.bid, r.ids, r.votes) //nolint:errcheck // already-known: the GO propagated
		// Like a first dispatch, a rescue does not wait for a tick.
		s.cluster.Node(r.coord).Wake()
	}
}

// Metrics snapshots the service's instrumentation. The counts come from
// the same registry counters GET /metrics.prom exposes, so the JSON and
// Prometheus surfaces can never disagree.
func (s *Service) Metrics() Metrics {
	s.mu.Lock()
	m := Metrics{
		N:                s.cfg.N,
		Draining:         s.stopped,
		Submitted:        s.met.submitted.Value(),
		Committed:        s.met.committed.Value(),
		Aborted:          s.met.aborted.Value(),
		TimedOut:         s.met.timedOut.Value(),
		Failed:           s.met.failed.Value(),
		RejectedFull:     s.met.rejectedFull.Value(),
		RejectedDraining: s.met.rejectedDraining.Value(),
		Batches:          s.met.batches.Value(),
		BatchesDecided:   s.met.batchesDecided.Value(),
		MaxBatch:         s.maxBatch,
		SafetyViolations: s.met.violations.Value(),
		Queued:           len(s.queue),
		InFlight:         len(s.slots),
	}
	for p, c := range s.crashed {
		if c {
			m.Crashed = append(m.Crashed, p)
		}
	}
	s.mu.Unlock()
	for _, mgr := range s.managers {
		m.ActiveInstances += mgr.Active()
	}
	if n := s.met.occupancy.Count(); n > 0 {
		occ := &BatchOccupancy{
			Count: n,
			Sum:   s.met.occupancy.Sum(),
		}
		occ.Mean = occ.Sum / float64(n)
		for _, b := range s.met.occupancy.Buckets() {
			le := "+Inf"
			if !math.IsInf(b.UpperBound, 1) {
				le = strconv.FormatFloat(b.UpperBound, 'g', -1, 64)
			}
			occ.Buckets = append(occ.Buckets, OccupancyBucket{LE: le, Count: b.Count})
		}
		m.BatchOccupancy = occ
	}
	if s.cfg.Journal != nil {
		js := s.cfg.Journal.Stats()
		m.Journal = &JournalStats{
			Appends:           js.Appends,
			Fsyncs:            js.Fsyncs,
			Groups:            js.Groups,
			Snapshots:         js.Snapshots,
			SegmentsCreated:   js.SegmentsCreated,
			SegmentsCompacted: js.SegmentsCompacted,
			ReplayRecords:     js.Replay.Records,
			ReplayMs:          float64(js.Replay.Duration) / 1e6,
		}
	}
	snap := s.lat.Snapshot(50, 95, 99)
	m.LatencyMeanMs = snap.Summary.Mean
	m.LatencyP50Ms = snap.Percentiles[0]
	m.LatencyP95Ms = snap.Percentiles[1]
	m.LatencyP99Ms = snap.Percentiles[2]
	for _, name := range stageNames {
		ss := s.stageLat[name].Snapshot(50, 95, 99)
		if ss.Total == 0 {
			continue
		}
		if m.Stages == nil {
			m.Stages = make(map[string]StageLatency)
		}
		m.Stages[name] = StageLatency{
			Count:  ss.Total,
			MeanMs: ss.Summary.Mean,
			P50Ms:  ss.Percentiles[0],
			P95Ms:  ss.Percentiles[1],
			P99Ms:  ss.Percentiles[2],
		}
	}
	return m
}

// WatchSample snapshots this service for the anomaly watchdog: crashed
// processors, queue/in-flight occupancy, transactions in flight longer
// than stall (sorted by id for deterministic anomaly ordering), the
// cumulative outcome counters, and the decision-latency and WAL-fsync
// histograms the watchdog differences into windowed percentiles.
func (s *Service) WatchSample(stall time.Duration) watch.ShardSample {
	now := time.Now()
	sm := watch.ShardSample{Shard: s.cfg.shardLabel()}
	s.mu.Lock()
	sm.Queued = len(s.queue)
	sm.InFlight = len(s.slots)
	for p, c := range s.crashed {
		if c {
			sm.CrashedNodes = append(sm.CrashedNodes, p)
		}
	}
	for id, pd := range s.pendings {
		age := now.Sub(pd.submitted)
		if age < stall {
			continue
		}
		state := StateRunning
		if st := s.statuses[string(id)]; st != nil {
			state = st.State
		}
		sm.Stalled = append(sm.Stalled, watch.TxnAge{
			Txn: string(id), Shard: sm.Shard,
			AgeMs: age.Milliseconds(), State: string(state),
		})
	}
	s.mu.Unlock()
	sort.Slice(sm.Stalled, func(i, j int) bool { return sm.Stalled[i].Txn < sm.Stalled[j].Txn })
	sm.Submitted = s.met.submitted.Value()
	sm.Decided = s.met.committed.Value() + s.met.aborted.Value()
	sm.TimedOut = s.met.timedOut.Value()
	sm.Rescues = s.met.rescues.Value()
	sm.Latency = s.met.latency.Buckets()
	if s.cfg.Journal != nil {
		sm.Fsync = s.cfg.Journal.FsyncLatency()
	}
	return sm
}

// WatchStats implements watch.Source for an unsharded service.
func (s *Service) WatchStats(stall time.Duration) watch.Stats {
	return watch.Stats{Shards: []watch.ShardSample{s.WatchSample(stall)}}
}

// Close drains and stops the service. New submissions are rejected with
// ErrDraining immediately; already-queued submissions still dispatch;
// in-flight transactions finish or hit their deadlines. If ctx ends
// before the drain completes, every unresolved submission is resolved as
// TIMEOUT and the cluster is stopped hard. Close is idempotent; the
// first call's error (from the cluster teardown) is authoritative.
func (s *Service) Close(ctx context.Context) error {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		<-s.dispatcherDone
		return nil
	}
	s.stopped = true
	close(s.queue)
	s.mu.Unlock()

	select {
	case <-s.dispatcherDone:
	case <-ctx.Done():
		s.hardAbort()
		<-s.dispatcherDone
	}

	drained := make(chan struct{})
	go func() {
		s.outstanding.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-ctx.Done():
		s.hardAbort()
		<-drained
	}

	s.cluster.Stop()
	return s.cluster.Wait()
}

// hardAbort resolves every unresolved submission as TIMEOUT (used when a
// draining deadline expires — nothing may hang).
func (s *Service) hardAbort() {
	select {
	case <-s.abort:
		return // already aborted
	default:
	}
	close(s.abort)
	s.mu.Lock()
	var left []*pending
	for _, p := range s.pendings {
		left = append(left, p)
	}
	s.mu.Unlock()
	for _, p := range left {
		s.resolve(p, StateTimeout, types.DecisionNone)
	}
}
