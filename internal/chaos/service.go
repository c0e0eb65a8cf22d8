package chaos

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/transport"
	"repro/internal/types"
)

// RunService executes a commit-service workload under the plan's
// adversary and audits the service's client-visible story.
//
// The deployment is shard.New's with max(Cfg.Shards, 1) commit groups:
// an unsharded plan is the one-group case, every transaction routed to
// group 0. Every group gets its own injector over the same plan (the
// adversary hits all groups alike). The plan's crash schedule fires as
// correlated CrashEverywhere fail-stops — one machine dying takes its
// processor slot down in every group, the realistic co-located
// deployment; restart events are cluster-mode only (the service API has
// no node resurrection). Because crashes stay within the budget t, every
// submission must still reach a terminal state; TIMEOUT is a legitimate
// answer ("unknown", the paper's graceful degradation), never an excuse
// for a hung request.
//
// The plan's per-transaction vote vectors become concurrent Submit calls,
// each routed to its plan-assigned shard set via deterministic per-shard
// keys. On a sharded plan the harness then replays the cross WAL minus
// its outcome records (exactly what a crashed coordinator would find)
// through Recover, and the auditor checks the re-derived outcomes agree
// with what clients were told.
func RunService(p *Plan, o RunOptions) (*Report, *ServiceRunData, error) {
	o.defaults(p)
	groups := max(p.Cfg.Shards, 1)

	var crossLog shard.MemCrossLog
	injectors := make([]*Injector, groups)
	coord, err := shard.New(shard.Config{
		Shards: groups,
		Log:    &crossLog,
		Group: service.Config{
			N:              p.Cfg.N,
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
		return nil, nil, fmt.Errorf("chaos: build service: %w", err)
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
	shardKey := make([]string, groups)
	for s := range shardKey {
		for j := 0; ; j++ {
			k := fmt.Sprintf("ck-%d-%d", s, j)
			if router.Route(k) == s {
				shardKey[s] = k
				break
			}
		}
	}

	// The workload: every plan transaction submitted concurrently, each
	// blocking until its terminal state.
	results := make([]TxnResult, len(p.TxnVotes))
	var wg sync.WaitGroup
	for i, votes := range p.TxnVotes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := fmt.Sprintf("chaos-%d-%d", p.Cfg.Seed, i)
			set := []int{0}
			if p.TxnShards != nil {
				set = p.TxnShards[i]
			}
			keys := make([]string, len(set))
			for j, s := range set {
				keys[j] = shardKey[s]
			}
			res, err := coord.Submit(context.Background(), shard.Request{ID: id, Keys: keys, Votes: votes})
			results[i] = TxnResult{ID: id, Votes: votes, Shards: set}
			if err != nil {
				// Admission rejections are not protocol outcomes; record
				// as FAILED only if the service broke its own contract
				// (the harness never overloads the default queue).
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
	// still retain the ids, then the metrics and the WAL — all before the
	// recovery echo rewrites the coordinator's tables.
	for i := range results {
		res := &results[i]
		res.Status, _ = coord.Status(res.ID)
		if len(res.Shards) > 1 {
			for _, s := range res.Shards {
				st, _ := coord.Status(shard.ChildID(res.ID, s))
				res.ChildStates = append(res.ChildStates, st.State)
			}
		}
	}
	data := &ServiceRunData{
		Results:   results,
		Metrics:   coord.Metrics(),
		Crashed:   crashed,
		Records:   crossLog.Records(),
		Watched:   wr != nil,
		Anomalies: anomalies,
		Health:    health,
	}
	if p.Cfg.Shards > 1 {
		recoveryEcho(coord, data)
	}
	data.Spans = o.Spans.Graph().Spans

	closeCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	closeErr := coord.Close(closeCtx)
	return AuditService(p, data), data, closeErr
}

// recoveryEcho strips the outcome records from the run's cross WAL — the
// WAL a coordinator that crashed mid-decision would replay — and forces
// Recover to re-derive every cross outcome from the groups' own records.
func recoveryEcho(coord *shard.Coordinator, d *ServiceRunData) {
	stripped := make([]shard.CrossRecord, 0, len(d.Records))
	for _, rec := range d.Records {
		if rec.Type != shard.RecOutcome {
			stripped = append(stripped, rec)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	settled, err := coord.Recover(ctx, stripped)
	d.EchoSettled = settled
	if err != nil {
		d.EchoErr = err.Error()
	}
	d.EchoOutcomes = map[string]service.State{}
	for _, res := range d.Results {
		if len(res.Shards) < 2 {
			continue
		}
		if st, ok := coord.Status(res.ID); ok &&
			(st.State == service.StateCommit || st.State == service.StateAbort) {
			d.EchoOutcomes[res.ID] = st.State
		}
	}
}

// armCrashes schedules the plan's crashes on the wall clock: at each
// event's tick it marks the node crashed and calls crash. A crash at tick
// 0 or before fires before armCrashes returns, so no workload, however
// short, can finish first and have disarm cancel it. The returned disarm
// stops the schedule and reports which crashes fired. A crash runs inside
// the critical section disarm takes: once disarm has returned, every
// crash it reports has reached the system under test, so the watchdog's
// final tick cannot miss one.
func armCrashes(p *Plan, tick time.Duration, crash func(types.ProcID)) (disarm func() []bool) {
	var mu sync.Mutex
	crashed := make([]bool, p.Cfg.N)
	stopped := false
	timers := make([]*time.Timer, 0, len(p.Crashes))
	for _, ev := range p.Crashes {
		fire := func() {
			mu.Lock()
			defer mu.Unlock()
			if stopped {
				return
			}
			crashed[ev.Node] = true
			crash(types.ProcID(ev.Node))
		}
		if ev.Tick <= 0 {
			fire()
			continue
		}
		timers = append(timers, time.AfterFunc(time.Duration(ev.Tick)*tick, fire))
	}
	return func() []bool {
		mu.Lock()
		stopped = true
		mu.Unlock()
		for _, t := range timers {
			t.Stop()
		}
		return crashed
	}
}
