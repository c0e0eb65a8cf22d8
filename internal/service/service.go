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
//   - Batching: the dispatcher coalesces the queued submissions into ONE
//     batched Protocol 2 instance deciding their outcome vector (a lone
//     submission is a batch of width 1), on a coordinator picked
//     round-robin. At most N batches are unresolved at once, one place
//     per coordinator: while all N are taken, submissions wait in the
//     queue and the next batch takes them all, so batches widen with
//     load. The N instances interleave on the same processors — the
//     paper's distributed-database setting under real goroutine
//     concurrency.
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
	"log/slog"
	"math"
	"slices"
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
	"repro/internal/wal"
)

// pending is one admitted, unresolved submission.
type pending struct {
	id        txn.ID
	votes     []bool
	submitted time.Time
	timer     *time.Timer
	done      chan Result
	// admitU is the span-collector clock at admission and traced whether
	// the collector traces id; both are set before the pending is
	// published, so the mu handoff makes them visible.
	admitU int64
	traced bool
	// dequeueU is set by the dispatcher goroutine when the submission
	// leaves the queue and read only on that goroutine (dispatchBatch).
	dequeueU int64
	// coordinator, dispatchU, and batch are written under Service.mu.
	coordinator types.ProcID
	dispatchU   int64
	// batch names the agreement batch the submission dispatched in
	// (empty until then).
	batch string
	// latency and lastOfBatch are set by the path that claims the
	// submission (claimLocked): lastOfBatch says it was its batch's last
	// unresolved member.
	latency     time.Duration
	lastOfBatch bool
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
	latency        *obs.Histogram // seconds, decided (COMMIT/ABORT) submissions
	occupancy      *obs.Histogram // members per dispatched agreement batch
	batchesDecided *obs.Counter   // batches whose every member resolved
	rescues        *obs.Counter   // orphaned batches re-dispatched after a coordinator crash

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
			"Agreement batches dispatched (each with at least one live member).", "shard").With(shard),
		violations: reg.CounterVec("service_safety_violations_total",
			"Conflicting decisions observed for one transaction (Agreement violations).", "shard").With(shard),
		latency: reg.HistogramVec("service_latency_seconds",
			"Submission-to-decision latency of committed/aborted transactions.",
			obs.DefBuckets, "shard").With(shard),
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
		"Member transactions dispatched and not yet resolved (at most N batches of BatchMax).", "shard").
		With(func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.inFlightLocked())
		}, shard)
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

// stage indexes the pipeline stages, in causal order.
type stage int

const (
	stageAdmit stage = iota
	stageBatch
	stageDispatch
	stageDecided
	stageNotify
	numStages
)

// stageNames names each stage in spans and in Metrics.Stages.
var stageNames = [numStages]string{
	span.StageAdmit, span.StageBatch, span.StageDispatch, span.StageDecided, span.StageNotify,
}

// Service is a running commit service. Create with New, submit with
// Submit, stop with Close.
type Service struct {
	cfg      Config
	managers []*txn.Manager
	cluster  *runtime.Cluster

	queue chan *pending
	// places meter batches, one per coordinator: the dispatcher takes a
	// place before it dequeues a batch's first submission and the batch
	// frees it when its last member resolves, so at most N batches, and N ×
	// BatchMax members, are unresolved at once.
	places         chan struct{}
	abort          chan struct{} // closed on hard stop: unresolved → TIMEOUT
	dispatcherDone chan struct{}
	outstanding    sync.WaitGroup

	lat      *stats.Recorder
	stageLat [numStages]*stats.Recorder
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
	// finished is the FIFO of terminal status ids for bounded retention
	// (retainLocked).
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
	// entries counts the retention FIFO's entries naming this status.
	entries int
}

// New builds and starts a commit service: the cluster nodes begin
// ticking and the dispatcher begins draining the admission queue. It is
// NewGroups of one, so its group runs one loop per node.
func New(cfg Config) (*Service, error) {
	ss, err := NewGroups([]Config{cfg})
	if err != nil {
		return nil, err
	}
	return ss[0], nil
}

// NewGroups builds and starts one commit service per config. It validates
// every config before it builds anything, builds each group, then starts
// their clusters together (runtime.StartGroups), so a group's shape — one
// driver, or one loop per node — follows from the groups started with it
// and from nothing else in the process.
func NewGroups(cfgs []Config) ([]*Service, error) {
	cfgs = slices.Clone(cfgs)
	for k, cfg := range cfgs {
		var err error
		if cfgs[k], err = cfg.withDefaults(); err != nil {
			return nil, err
		}
	}
	ss := make([]*Service, len(cfgs))
	clusters := make([]*runtime.Cluster, len(cfgs))
	for k, cfg := range cfgs {
		s, err := build(cfg)
		if err != nil {
			return nil, err
		}
		ss[k], clusters[k] = s, s.cluster
	}
	runtime.StartGroups(context.Background(), clusters...)
	for _, s := range ss {
		go s.dispatch()
		s.ready.Store(true)
	}
	return ss, nil
}

// build builds a service over a validated config, its cluster not yet
// started.
func build(cfg Config) (*Service, error) {
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.Spans == nil {
		cfg.Spans = span.NewSampledCollector(span.DefaultCollectorCapacity)
	}
	s := &Service{
		cfg:            cfg,
		queue:          make(chan *pending, cfg.QueueDepth),
		places:         make(chan struct{}, cfg.N),
		abort:          make(chan struct{}),
		dispatcherDone: make(chan struct{}),
		lat:            stats.NewRecorder(LatencyWindow),
		met:            newSvcMetrics(cfg.Registry, cfg.shardLabel()),
		crashed:        make([]bool, cfg.N),
		batches:        make(map[string]*batchState),
		pendings:       make(map[txn.ID]*pending),
		statuses:       make(map[string]*status),
	}
	for st := range s.stageLat {
		s.stageLat[st] = stats.NewRecorder(LatencyWindow)
	}
	if cfg.Journal != nil {
		// Seed the status table with the journal's window, oldest first,
		// so it evicts in the journal's order: a restarted service keeps
		// answering — and can never contradict — transactions it acked
		// before dying. Nothing else runs yet, so the maps are safe to
		// fill without mu.
		rec := cfg.Journal.Recovered()
		for _, id := range cfg.Journal.RecoveredOrder() {
			s.settleLocked(id, rec[id], nil)
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
			RetireAfter: retireAfterTicks,
			MaxAge:      cfg.maxAgeTicks(),
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
	var err error
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
	return s, nil
}

// Registry returns the shared metrics registry every layer of this
// service emits into (never nil).
func (s *Service) Registry() *obs.Registry { return s.cfg.Registry }

// Spans returns the causal span collector (never nil).
func (s *Service) Spans() *span.Collector { return s.cfg.Spans }

// Ready reports whether the service accepts new submissions: the
// cluster has started, the service is not draining and its journal has
// not failed.
func (s *Service) Ready() bool { return s.ready.Load() && !s.Draining() && s.JournalErr() == nil }

// JournalErr is a *JournalError once the group's journal has failed a
// flush, nil while it is sound (or there is none). From then on the group
// is fail-stopped: Submit refuses with it, Ready is false, and queued
// members resolve FAILED without being dispatched.
func (s *Service) JournalErr() error {
	if s.cfg.Journal == nil {
		return nil
	}
	if err := s.cfg.Journal.Err(); err != nil {
		return &JournalError{Shard: s.cfg.shardLabel(), Err: err}
	}
	return nil
}

// N reports the cluster size.
func (s *Service) N() int { return s.cfg.N }

// MaxAge is the abandonment age, maxAgeTicks × TickEvery: every node
// abandons an instance still undecided at that age, so no request waits
// longer and a younger one is not stalled.
func (s *Service) MaxAge() time.Duration {
	return time.Duration(s.cfg.maxAgeTicks()) * s.cfg.TickEvery
}

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
// ErrDraining, JournalError, DuplicateError, validation). If ctx ends
// first, Submit returns ctx's error while the transaction continues
// server-side (query it later via Status).
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
	// No decision can arrive once every node has abandoned the instance,
	// so no request waits past the abandonment age.
	timeout = min(timeout, s.MaxAge())

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
	if err := s.JournalErr(); err != nil {
		s.mu.Unlock()
		return Result{}, err
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
	p.traced = s.cfg.Spans.Traced(id)
	// Admission: enqueue or reject — never block, never grow unbounded.
	select {
	case s.queue <- p:
	default:
		s.mu.Unlock()
		s.met.rejectedFull.Inc()
		return Result{}, &OverloadError{RetryAfter: RetryHint}
	}
	s.met.submitted.Inc()
	s.pendings[p.id] = p
	s.statuses[id] = &status{
		TxnStatus: TxnStatus{ID: id, State: StateQueued, Submitted: p.submitted},
		votes:     votes,
	}
	s.outstanding.Add(1)
	p.timer = time.AfterFunc(timeout, func() { s.resolve(p, StateTimeout) })
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
// the next live coordinator. It takes a batch's place before dequeuing
// its first submission, so the wait for a place is part of the admit
// stage, and everything queued meanwhile rides the next batch.
func (s *Service) dispatch() {
	defer close(s.dispatcherDone)
	for {
		select {
		case s.places <- struct{}{}:
		case <-s.abort:
			return
		}
		first, ok := <-s.queue
		if !ok {
			<-s.places
			return
		}
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
		s.dispatchBatch(batch)
	}
}

// dispatchBatch begins ONE batched agreement instance for a coalesced
// batch: the members' votes are packed into one vote vector and the
// whole vector is decided by a single Protocol 2 run. The batch holds the
// place dispatch took, and an exit that begins nothing frees it. A group
// whose journal has failed begins nothing: its members resolve FAILED.
func (s *Service) dispatchBatch(batch []*pending) {
	entryU := s.cfg.Spans.Now()
	for _, p := range batch {
		s.recordStage(p, stageAdmit, p.admitU, p.dequeueU, "")
		s.recordStage(p, stageBatch, p.dequeueU, entryU, "")
	}
	if s.JournalErr() != nil {
		for _, p := range batch {
			s.resolve(p, StateFailed)
		}
		<-s.places
		return
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
		<-s.places
		return
	}
	s.met.batches.Inc()
	s.maxBatch = max(s.maxBatch, len(live))
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
	s.met.occupancy.Observe(float64(len(live)))
	detail := ""
	for _, p := range live {
		if p.traced && detail == "" {
			detail = "coordinator=" + strconv.Itoa(int(coord)) + " " + obs.BatchDetail(string(bid))
		}
		s.recordStage(p, stageDispatch, entryU, dispatchU, detail)
	}
	if err := s.managers[coord].BeginBatch(bid, ids, votes); err != nil {
		for _, p := range live {
			s.resolve(p, StateFailed)
		}
		return
	}
	s.cluster.Node(coord).Wake() // flood the GO now, not at the next tick
}

// recordStage emits one service pipeline stage as a latency-recorder
// sample and, for a traced submission, a span. Zero or backwards intervals (a stage the submission never
// reached) are skipped.
func (s *Service) recordStage(p *pending, st stage, start, end int64, detail string) {
	if end < start || (start == 0 && end == 0) {
		return
	}
	if p.traced {
		s.cfg.Spans.Add(span.Span{
			Txn: string(p.id), Track: span.ServiceTrack, Name: stageNames[st], Kind: span.KindStage,
			Start: start, End: end, From: -1, To: -1, Detail: detail,
		})
	}
	s.stageLat[st].Add(float64(end-start) / 1e3) // microseconds to the recorders' milliseconds
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
// report decides the member; every later report is cross-checked against
// it (Agreement says they can never differ — the violations counter proves
// we looked). One node's report loop carries a batch's whole decision
// vector, so its last booked member decides at once, and then the batch
// journals, as one record.
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
	// A member decided after its batch left the book journals alone.
	members := []txn.ID{o.Txn}
	b := s.batches[st.batch]
	if b != nil {
		if b.undecided--; b.undecided > 0 {
			s.mu.Unlock()
			return // the rest of the vector is on its way
		}
		members = b.members
	}
	ids := make([]string, 0, len(members))
	decs := make([]types.Decision, 0, len(members))
	subs := make([]*pending, 0, len(members)) // ids[i]'s submission, claimed here; nil if it already resolved (a TIMEOUT)
	var last *pending                         // the batch's last unresolved member, if claimed here
	for _, id := range members {
		if m := s.statuses[string(id)]; m != nil && m.first != types.DecisionNone {
			pd := s.pendings[id]
			if pd != nil && s.claimLocked(pd) && pd.lastOfBatch {
				last = pd
			}
			ids, decs, subs = append(ids, string(id)), append(decs, m.first), append(subs, pd)
		}
	}
	s.dropBatchLocked(st.batch, b)
	s.mu.Unlock()
	delivers := make([]func(error), 0, len(subs))
	for i, pd := range subs {
		if pd != nil {
			delivers = append(delivers, s.finish(pd, stateOf(decs[i]), decs[i]))
		}
	}
	// The batch's place goes back before a journaled record's fsync, so
	// the next batch overlaps it, and without a journal once Record has
	// answered the clients, so what they submit next can ride the next
	// batch: either way batches stay as wide as when each member resolved
	// on its own.
	if s.cfg.Journal != nil {
		s.freePlace(last)
	}
	s.Record(ids, decs, delivers...)
	if s.cfg.Journal == nil {
		s.freePlace(last)
	}
}

// freePlace gives p's batch its place back if p (nil: none) was the
// batch's last unresolved member.
func (s *Service) freePlace(p *pending) {
	if p != nil && p.lastOfBatch {
		s.met.batchesDecided.Inc()
		<-s.places
	}
}

// claimLocked takes p out of the pending set, so exactly one path
// resolves it — false if another got there first — and counts it
// resolved in its batch. Caller holds mu.
func (s *Service) claimLocked(p *pending) bool {
	if _, live := s.pendings[p.id]; !live {
		return false
	}
	delete(s.pendings, p.id)
	p.latency = time.Since(p.submitted)
	if st := s.statuses[string(p.id)]; st != nil {
		st.Latency = p.latency
	}
	if b := s.batches[p.batch]; b != nil {
		b.unresolved--
		p.lastOfBatch = b.unresolved == 0
		s.dropBatchLocked(p.batch, b)
	}
	return true
}

// Record journals ids[i] deciding decs[i] as one record — a batch's
// decided members, or a decision reached outside this group: a
// cross-shard outcome whose id routes here. Once the covering fsync has
// resolved (at once without a journal) its done callback publishes and
// retains every member in journal order, then runs each of then: Status
// never reports, and no client is acked, a decision the disk may not
// hold, and the status table evicts in the journal's order. then runs on
// the journal's notifier goroutine, which runs flushed groups in journal
// order while the writer forces the next; it must not call back into the
// journal.
func (s *Service) Record(ids []string, decs []types.Decision, then ...func(jerr error)) {
	settle := func(jerr error) {
		s.mu.Lock()
		for i, id := range ids {
			s.settleLocked(id, decs[i], jerr)
		}
		s.mu.Unlock()
		for _, f := range then {
			f(jerr)
		}
	}
	if s.cfg.Journal == nil {
		settle(nil)
	} else if err := s.cfg.Journal.AppendBatch(ids, decs, settle); err != nil {
		settle(err)
	}
}

// crashedLocked lists the fail-stopped processors. Caller holds mu.
func (s *Service) crashedLocked() (out []int) {
	for p, c := range s.crashed {
		if c {
			out = append(out, p)
		}
	}
	return out
}

// inFlightLocked counts the members dispatched and not yet resolved.
// Caller holds mu.
func (s *Service) inFlightLocked() (n int) {
	for _, b := range s.batches {
		n += b.unresolved
	}
	return n
}

// dropBatchLocked forgets a batch (nil: none) with nothing left to
// resolve, decide or rescue. Caller holds mu.
func (s *Service) dropBatchLocked(bid string, b *batchState) {
	if b != nil && b.unresolved == 0 && b.undecided == 0 {
		delete(s.batches, bid)
	}
}

// settleLocked publishes a journaled decision — FAILED instead when its
// record's flush failed, so no status outruns its fsync — and retains it.
// An id the table no longer (or never) held enters it. Caller holds mu.
func (s *Service) settleLocked(id string, d types.Decision, jerr error) {
	st := s.statuses[id]
	if st == nil {
		st = &status{TxnStatus: TxnStatus{ID: id}, first: d}
		s.statuses[id] = st
	}
	st.State, st.Decision = stateOf(d), d.String()
	if jerr != nil {
		st.State, st.Decision = StateFailed, ""
	}
	s.retainLocked(id)
}

// resolve ends a submission without a decision — TIMEOUT at its deadline
// or on a hard stop, FAILED when its batch could not begin — exactly
// once; later callers are no-ops. If its batch decides later, the member
// rides the batch's record all the same and its status adopts the
// decision: decisions are absorbing, and recovery clients poll for it.
func (s *Service) resolve(p *pending, state State) {
	s.mu.Lock()
	if !s.claimLocked(p) {
		s.mu.Unlock()
		return
	}
	if st := s.statuses[string(p.id)]; st != nil {
		st.State = state
		s.retainLocked(string(p.id))
	}
	s.mu.Unlock()
	s.finish(p, state, types.DecisionNone)(nil)
	s.freePlace(p)
}

// finish does a claimed submission's bookkeeping — the decided stage,
// the outcome counters — and returns its delivery, which hands the
// submission its result (FAILED when jerr says the decision is not
// durable) and releases Close's wait on it.
func (s *Service) finish(p *pending, state State, d types.Decision) (deliver func(jerr error)) {
	// The decided stage runs from dispatch (or admission, for
	// submissions that never dispatched) to now; Detail names the
	// terminal state so timeouts are distinguishable in the span graph.
	decidedU := s.cfg.Spans.Now()
	startU := p.dispatchU
	if startU == 0 {
		startU = p.admitU
	}
	detail := ""
	if p.traced {
		detail = "state=" + string(state)
	}
	s.recordStage(p, stageDecided, startU, decidedU, detail)

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
	if d != types.DecisionNone {
		s.lat.Add(float64(p.latency) / float64(time.Millisecond))
		s.met.latency.Observe(p.latency.Seconds())
	}
	res := Result{ID: string(p.id), State: state, Decision: d, Coordinator: p.coordinator, Latency: p.latency}
	return func(jerr error) {
		if jerr != nil {
			// The decision was reached but its durability could not be
			// confirmed (a failed group flush poisons the journal); the
			// client must not be told COMMIT/ABORT that a restarted
			// service might not remember.
			res.State = StateFailed
		}
		// The notify span is recorded before the caller is released, so
		// whoever Submit returns to finds the transaction's graph whole.
		s.recordStage(p, stageNotify, decidedU, s.cfg.Spans.Now(), "")
		p.done <- res
		if s.cfg.Logger.Enabled(slog.LevelDebug) {
			s.cfg.Logger.Debug("transaction resolved",
				olog.Txn(string(p.id)), olog.Shard(s.cfg.shardLabel()),
				"state", string(res.State), "latency_ms", res.Latency.Milliseconds())
		}
		s.outstanding.Done()
	}
}

// retainLocked enters a finished transaction into the bounded status
// table, which keeps the newest wal.DecisionWindow entries. A decided
// member enters from its record's done callback, in journal order, so the
// table drops nothing the journal's window keeps later than it would;
// a member that ends without a decision enters at once, and again if its
// batch decides later. An undecided member of a batch still in the book
// stays past its turn: the batch's record waits for it. Caller holds mu.
func (s *Service) retainLocked(id string) {
	s.statuses[id].entries++
	s.finished = append(s.finished, id)
	for len(s.finished)-s.finishedHead > wal.DecisionWindow {
		old := s.statuses[s.finished[s.finishedHead]]
		s.finished[s.finishedHead] = ""
		s.finishedHead++
		if old.entries--; old.entries == 0 && (old.first != types.DecisionNone || s.batches[old.batch] == nil) {
			delete(s.statuses, old.ID)
		}
	}
	if s.finishedHead > 0 && s.finishedHead*2 > len(s.finished) {
		s.finished = append(s.finished[:0:0], s.finished[s.finishedHead:]...)
		s.finishedHead = 0
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
		InFlight:         s.inFlightLocked(),
	}
	m.Crashed = s.crashedLocked()
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
	snap := s.lat.Snapshot(50, 95, 99)
	m.LatencyMeanMs = snap.Summary.Mean
	m.LatencyP50Ms = snap.Percentiles[0]
	m.LatencyP95Ms = snap.Percentiles[1]
	m.LatencyP99Ms = snap.Percentiles[2]
	for st, name := range stageNames {
		ss := s.stageLat[st].Snapshot(50, 95, 99)
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
// cumulative outcome counters, the decision-latency and WAL-fsync
// histograms the watchdog differences into windowed percentiles, and the
// journal's failure, if any.
func (s *Service) WatchSample(stall time.Duration) watch.ShardSample {
	now := time.Now()
	sm := watch.ShardSample{Shard: s.cfg.shardLabel()}
	s.mu.Lock()
	sm.Queued = len(s.queue)
	sm.InFlight = s.inFlightLocked()
	sm.CrashedNodes = s.crashedLocked()
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
	if err := s.JournalErr(); err != nil {
		sm.JournalErr = err.Error()
	}
	return sm
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
		s.resolve(p, StateTimeout)
	}
}
