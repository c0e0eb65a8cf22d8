package chaos

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs/span"
	"repro/internal/obs/watch"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/transport"
	"repro/internal/types"
)

// ShardedTxnResult is one sharded submission's terminal answer plus its
// planned inputs.
type ShardedTxnResult struct {
	ID    string
	Votes []bool
	// Shards is the plan-assigned participant set (len 1: single-shard
	// fast path; len 2: cross-shard commit-of-commits).
	Shards []int
	State  service.State
	Status shard.TxnStatus
	// StatusKnown is false when the coordinator no longer retains the id.
	StatusKnown bool
	// ChildStates snapshots each participating group's record of the
	// cross transaction's child (nil for single-shard txns).
	ChildStates map[int]service.State
}

// ShardedRunData is everything a sharded service run hands the auditor.
type ShardedRunData struct {
	Results []ShardedTxnResult
	Metrics shard.Metrics
	Spans   []span.Span
	Crashed []bool
	// Records is the cross-shard WAL as written during the workload
	// (snapshotted before the recovery echo appends to it).
	Records []shard.CrossRecord
	// EchoOutcomes maps cross transactions to the outcome re-derived by
	// the recovery echo: the run's WAL with every outcome record
	// stripped — a crashed coordinator's view — replayed through
	// Recover on the live groups.
	EchoOutcomes map[string]service.State
	// EchoSettled is Recover's count of in-doubt transactions it
	// settled during the echo.
	EchoSettled int
	// EchoErr is non-empty if the recovery echo failed outright.
	EchoErr string
	// Watched is true when RunOptions.Watch attached a live watchdog;
	// Anomalies and Health are its findings (the workload's periodic
	// ticks plus one final synchronous evaluation).
	Watched   bool
	Anomalies []watch.Anomaly
	Health    watch.Health
}

// RunShardedService executes a multi-group workload under the plan's
// adversary and audits cross-shard atomicity on top of the per-group
// guarantees.
//
// Every group gets its own injector over the same plan (the adversary
// hits all shards alike); crash events fire as correlated
// CrashEverywhere fail-stops — one machine dying takes its processor
// slot down in every group, the realistic co-located deployment. The
// workload routes each plan transaction to its assigned shard set via
// deterministic per-shard keys. After the workload the harness replays
// the cross WAL minus its outcome records (exactly what a crashed
// coordinator would find) through Recover and checks the re-derived
// outcomes agree with what clients were told.
func RunShardedService(p *Plan, o RunOptions) (*Report, *ShardedRunData, error) {
	if p.Cfg.Shards < 2 || len(p.TxnShards) != len(p.TxnVotes) {
		return nil, nil, fmt.Errorf("chaos: plan is not sharded (shards=%d); build it with PlanConfig.Shards >= 2", p.Cfg.Shards)
	}
	o.defaults(p)
	n := p.Cfg.N

	var crossLog shard.MemCrossLog
	injectors := make([]*Injector, p.Cfg.Shards)
	coord, err := shard.New(shard.Config{
		Shards: p.Cfg.Shards,
		Log:    &crossLog,
		Group: service.Config{
			N:              n,
			T:              p.Cfg.T,
			K:              o.K,
			Seed:           p.Cfg.Seed ^ 0x6c62272e07bb0142,
			TickEvery:      o.TickEvery,
			DefaultTimeout: time.Duration(o.BudgetTicks) * o.TickEvery,
			Registry:       o.Registry,
			Spans:          o.Spans,
		},
		ConfigureGroup: func(k int, gcfg *service.Config) {
			injectors[k] = NewInjector(p, o.TickEvery)
			gcfg.Hub = transport.HubOptions{Inject: injectors[k].Decide}
		},
	})
	if err != nil {
		return nil, nil, fmt.Errorf("chaos: build sharded deployment: %w", err)
	}

	wr := startWatch(&o, coord)

	for _, inj := range injectors {
		inj.Arm()
	}
	disarm := armCrashes(p, o.TickEvery, func(node types.ProcID) {
		coord.CrashEverywhere(node) //nolint:errcheck // in-range by construction
	})

	// One deterministic key per shard: the lowest-numbered probe the
	// router sends there. Plan shard sets become key sets through this
	// table, so routing is reproducible across runs and processes.
	router := coord.Router()
	shardKey := make([]string, p.Cfg.Shards)
	for s := range shardKey {
		for j := 0; ; j++ {
			k := fmt.Sprintf("ck-%d-%d", s, j)
			if router.Route(k) == s {
				shardKey[s] = k
				break
			}
		}
	}

	results := make([]ShardedTxnResult, len(p.TxnVotes))
	var wg sync.WaitGroup
	for i, votes := range p.TxnVotes {
		i, votes := i, votes
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := fmt.Sprintf("chaos-x-%d-%d", p.Cfg.Seed, i)
			set := p.TxnShards[i]
			keys := make([]string, len(set))
			for j, s := range set {
				keys[j] = shardKey[s]
			}
			res, err := coord.Submit(context.Background(), shard.Request{ID: id, Keys: keys, Votes: votes})
			results[i] = ShardedTxnResult{ID: id, Votes: votes, Shards: set}
			if err != nil {
				results[i].State = service.StateFailed
				return
			}
			results[i].State = res.State
		}()
	}
	wg.Wait()

	crashed := disarm()
	anomalies, health := wr.finish()

	// Cross-check statuses and snapshot child records while the groups
	// still retain the ids, then the metrics and the WAL — all before
	// the recovery echo below rewrites the coordinator's tables.
	for i := range results {
		if st, ok := coord.Status(results[i].ID); ok {
			results[i].Status, results[i].StatusKnown = st, true
		}
		if len(results[i].Shards) > 1 {
			cs := make(map[int]service.State, len(results[i].Shards))
			for _, s := range results[i].Shards {
				if st, ok := coord.Status(shard.ChildID(results[i].ID, s)); ok {
					cs[s] = st.State
				}
			}
			results[i].ChildStates = cs
		}
	}
	metrics := coord.Metrics()
	records := crossLog.Records()

	data := &ShardedRunData{
		Results:      results,
		Metrics:      metrics,
		Crashed:      crashed,
		Records:      records,
		EchoOutcomes: map[string]service.State{},
		Watched:      wr != nil,
		Anomalies:    anomalies,
		Health:       health,
	}

	// Recovery echo: strip the outcome records — the WAL a coordinator
	// that crashed mid-decision would replay — and force Recover to
	// re-derive every cross outcome from the groups' own records.
	stripped := make([]shard.CrossRecord, 0, len(records))
	for _, rec := range records {
		if rec.Type != shard.RecOutcome {
			stripped = append(stripped, rec)
		}
	}
	echoCtx, cancelEcho := context.WithTimeout(context.Background(), 30*time.Second)
	settled, echoErr := coord.Recover(echoCtx, stripped)
	cancelEcho()
	data.EchoSettled = settled
	if echoErr != nil {
		data.EchoErr = echoErr.Error()
	}
	for i := range results {
		if len(results[i].Shards) < 2 {
			continue
		}
		if st, ok := coord.Status(results[i].ID); ok &&
			(st.State == service.StateCommit || st.State == service.StateAbort) {
			data.EchoOutcomes[results[i].ID] = st.State
		}
	}

	data.Spans = o.Spans.Graph().Spans

	closeCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	closeErr := coord.Close(closeCtx)
	return AuditSharded(p, data), data, closeErr
}

// AuditSharded checks a sharded run end to end. On top of the service
// auditor's per-group story it verifies the two-layer protocol's own
// contract: cross-shard atomicity (a COMMIT answer means every
// participating group committed its child; an ABORT answer is grounded
// in at least one aborted child; the WAL agrees) and recovery agreement
// (re-deriving outcomes from an outcome-stripped WAL reaches the same
// verdicts clients saw).
func AuditSharded(p *Plan, d *ShardedRunData) *Report {
	r := &Report{Plan: p}

	// Response consistency: terminal states, abort validity (a dissent
	// anywhere forbids COMMIT — the cross combine only strengthens
	// this), status agreement with the TIMEOUT exception.
	respOK, respDetail := true, ""
	var crossCount, committed, aborted, failed uint64
	for _, res := range d.Results {
		if len(res.Shards) > 1 {
			crossCount++
		}
		if !res.State.Terminal() {
			respOK = false
			respDetail = fmt.Sprintf("txn %s ended non-terminal (%s)", res.ID, res.State)
			break
		}
		switch res.State {
		case service.StateCommit:
			committed++
			for _, v := range res.Votes {
				if !v {
					respOK = false
					respDetail = fmt.Sprintf("txn %s committed despite a no vote", res.ID)
				}
			}
		case service.StateAbort:
			aborted++
		case service.StateFailed:
			failed++
		}
		if res.StatusKnown && res.Status.State != res.State &&
			!(res.State == service.StateTimeout && res.Status.State.Terminal()) {
			respOK = false
			respDetail = fmt.Sprintf("txn %s result %s but status %s", res.ID, res.State, res.Status.State)
		}
	}
	r.add("response-consistency", respOK, respDetail)

	// Agreement within every group: the per-node decision checkers
	// counted zero conflicts across all shards.
	r.add("agreement", d.Metrics.Aggregate.SafetyViolations == 0,
		fmt.Sprintf("%d safety violations", d.Metrics.Aggregate.SafetyViolations))

	// Cross-shard atomicity. COMMIT requires every participating
	// group's child committed and a logged commit outcome. ABORT must
	// be grounded in at least one child that actually aborted (the
	// combine rule's witness) with a logged abort outcome. A committed
	// child under a top-level ABORT is legal — that group prepared, the
	// transaction aborted globally — but a TIMEOUT answer must not hide
	// a logged decision.
	wal := shard.ReconstructCross(d.Records)
	atomOK, atomDetail := true, ""
	for _, res := range d.Results {
		if len(res.Shards) < 2 || !atomOK {
			continue
		}
		st := wal[res.ID]
		switch res.State {
		case service.StateCommit:
			for _, s := range res.Shards {
				if cs, ok := res.ChildStates[s]; !ok || cs != service.StateCommit {
					atomOK = false
					atomDetail = fmt.Sprintf("txn %s committed but shard %d child is %v", res.ID, s, cs)
				}
			}
			if st == nil || !st.Decided || st.Outcome != types.DecisionCommit {
				atomOK = false
				atomDetail = fmt.Sprintf("txn %s committed but WAL disagrees (%+v)", res.ID, st)
			}
		case service.StateAbort:
			witness := false
			for _, cs := range res.ChildStates {
				if cs == service.StateAbort {
					witness = true
				}
			}
			if !witness {
				atomOK = false
				atomDetail = fmt.Sprintf("txn %s aborted with no aborted child (%v)", res.ID, res.ChildStates)
			}
			if st == nil || !st.Decided || st.Outcome != types.DecisionAbort {
				atomOK = false
				atomDetail = fmt.Sprintf("txn %s aborted but WAL disagrees (%+v)", res.ID, st)
			}
		case service.StateTimeout:
			if st != nil && st.Decided {
				atomOK = false
				atomDetail = fmt.Sprintf("txn %s answered TIMEOUT but WAL holds decided outcome %v", res.ID, st.Outcome)
			}
		}
	}
	r.add("cross-atomicity", atomOK, atomDetail)

	// Recovery agreement: the echo must succeed and re-derive the very
	// outcome each decided cross transaction already reported — a
	// coordinator crash between decision and response never flips a
	// verdict.
	recOK, recDetail := true, ""
	if d.EchoErr != "" {
		recOK = false
		recDetail = "recovery echo failed: " + d.EchoErr
	}
	for _, res := range d.Results {
		if !recOK || len(res.Shards) < 2 {
			continue
		}
		if res.State != service.StateCommit && res.State != service.StateAbort {
			continue
		}
		got, ok := d.EchoOutcomes[res.ID]
		switch {
		case !ok:
			recOK = false
			recDetail = fmt.Sprintf("txn %s decided %s but recovery lost it", res.ID, res.State)
		case got != res.State:
			recOK = false
			recDetail = fmt.Sprintf("txn %s decided %s but recovery re-derived %s", res.ID, res.State, got)
		}
	}
	r.add("recovery-agreement", recOK, recDetail)

	// Metric consistency: the cross layer accounts for every planned
	// cross submission exactly; the aggregate accounts for every
	// single-shard txn plus every cross child; counters never disagree
	// with the client's tallies.
	m := d.Metrics
	crossSum := m.Cross.Committed + m.Cross.Aborted + m.Cross.TimedOut + m.Cross.Failed
	var children uint64
	for _, res := range d.Results {
		if len(res.Shards) > 1 {
			children += uint64(len(res.Shards))
		}
	}
	singles := uint64(len(d.Results)) - crossCount
	agg := m.Aggregate
	aggOK := agg.Submitted == singles+children &&
		agg.Submitted == agg.Committed+agg.Aborted+agg.TimedOut+agg.Failed
	crossOK := m.Cross.Submitted == crossCount && crossSum == m.Cross.Submitted
	r.add("metric-consistency", aggOK && crossOK,
		fmt.Sprintf("aggregate submitted=%d (want %d singles + %d children) cross submitted=%d outcomes=%d (want %d)",
			agg.Submitted, singles, children, m.Cross.Submitted, crossSum, crossCount))

	// Trace causal sanity: one shared ring serves every group; txn ids
	// are disjoint across groups (children carry their shard suffix), so
	// the single-group checker applies verbatim.
	trace := auditServiceTrace(d.Spans)
	r.add("trace-sanity", trace == "", trace)

	// Watchdog detection coverage (watched runs only): injected crashes
	// must be reported, live nodes must not be, clean plans stay silent.
	auditWatch(r, p, d.Crashed, d.Anomalies, d.Watched)
	return r
}
