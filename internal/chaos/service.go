package chaos

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/transport"
	"repro/internal/types"
)

// RunService executes a commit-service workload under the plan's
// adversary and audits the service's client-visible story.
//
// The plan's per-transaction vote vectors become concurrent Submit
// calls; its crash schedule fires as live Service.Crash fail-stops
// (restart events are cluster-mode only — the service API has no node
// resurrection). Because crashes stay within the budget t, every
// submission must still reach a terminal state; TIMEOUT is a legitimate
// answer ("unknown", the paper's graceful degradation), never an excuse
// for a hung request.
func RunService(p *Plan, o RunOptions) (*Report, *ServiceRunData, error) {
	o.defaults(p)
	n := p.Cfg.N

	inj := NewInjector(p, o.TickEvery)
	svc, err := service.New(service.Config{
		N:              n,
		T:              p.Cfg.T,
		K:              o.K,
		Seed:           p.Cfg.Seed ^ 0x6c62272e07bb0142,
		TickEvery:      o.TickEvery,
		DefaultTimeout: time.Duration(o.BudgetTicks) * o.TickEvery,
		Hub:            transport.HubOptions{Inject: inj.Decide},
		Registry:       o.Registry,
		Spans:          o.Spans,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("chaos: build service: %w", err)
	}

	wr := startWatch(&o, svc)

	inj.Arm()
	disarm := armCrashes(p, o.TickEvery, func(node types.ProcID) {
		svc.Crash(node) //nolint:errcheck // in-range by construction
	})

	// The workload: every plan transaction submitted concurrently, each
	// blocking until its terminal state.
	results := make([]TxnResult, len(p.TxnVotes))
	var wg sync.WaitGroup
	for i, votes := range p.TxnVotes {
		i, votes := i, votes
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := fmt.Sprintf("chaos-%d-%d", p.Cfg.Seed, i)
			res, err := svc.Submit(context.Background(), service.Request{
				ID:    id,
				Votes: votes,
			})
			results[i] = TxnResult{ID: id, Votes: votes}
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

	// Cross-check each result against the status endpoint while the
	// service still retains the ids, then snapshot metrics.
	for i := range results {
		if st, ok := svc.Status(results[i].ID); ok {
			results[i].Status, results[i].StatusKnown = st, true
		}
	}
	metrics := svc.Metrics()

	closeCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	closeErr := svc.Close(closeCtx)

	data := &ServiceRunData{
		Results:   results,
		Metrics:   metrics,
		Spans:     o.Spans.Graph().Spans,
		Crashed:   crashed,
		Watched:   wr != nil,
		Anomalies: anomalies,
		Health:    health,
	}
	return AuditService(p, data), data, closeErr
}

// armCrashes schedules the plan's crashes on the wall clock: at each
// event's tick it marks the node crashed and calls crash. The returned
// disarm stops the schedule and reports which crashes fired. A crash runs
// inside the critical section disarm takes: once disarm has returned,
// every crash it reports has reached the system under test, so the
// watchdog's final tick cannot miss one.
func armCrashes(p *Plan, tick time.Duration, crash func(types.ProcID)) (disarm func() []bool) {
	var mu sync.Mutex
	crashed := make([]bool, p.Cfg.N)
	stopped := false
	timers := make([]*time.Timer, 0, len(p.Crashes))
	for _, ev := range p.Crashes {
		ev := ev
		timers = append(timers, time.AfterFunc(time.Duration(ev.Tick)*tick, func() {
			mu.Lock()
			defer mu.Unlock()
			if stopped {
				return
			}
			crashed[ev.Node] = true
			crash(types.ProcID(ev.Node))
		}))
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
