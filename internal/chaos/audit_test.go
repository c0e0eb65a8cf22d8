package chaos

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/obs/span"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/trace"
	"repro/internal/types"
)

func mustPlan(t *testing.T, cfg PlanConfig) *Plan {
	t.Helper()
	p, err := NewPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// failures returns r's failed checks.
func failures(r *Report) []Check {
	var out []Check
	for _, c := range r.Checks {
		if !c.Pass {
			out = append(out, c)
		}
	}
	return out
}

func failed(r *Report, name string) bool {
	for _, c := range r.Checks {
		if c.Name == name && !c.Pass {
			return true
		}
	}
	return false
}

// cleanClusterData builds a passing run for plan p: everyone decided the
// same value consistent with the votes.
func cleanClusterData(p *Plan) *ClusterRunData {
	n := p.Cfg.N
	v := types.V1
	for _, yes := range p.Votes {
		if !yes {
			v = types.V0
		}
	}
	d := &ClusterRunData{
		Outcomes:    make([]trace.Outcome, n),
		Recovered:   map[int]types.Value{},
		RecoveredOK: map[int]bool{},
		Journals:    make([]types.Decision, n),
	}
	for i := 0; i < n; i++ {
		d.Outcomes[i] = trace.Outcome{Decided: true, Value: v}
		d.Journals[i] = types.DecisionOf(v)
	}
	return d
}

func TestAuditClusterPasses(t *testing.T) {
	p := mustPlan(t, PlanConfig{Seed: 1, N: 5, Shape: ShapeClean})
	r := AuditCluster(p, cleanClusterData(p))
	if !r.Pass() {
		t.Fatalf("clean run failed audit:\n%s", r.Log())
	}
	if !strings.Contains(r.Log(), "audit PASS") {
		t.Fatalf("log missing verdict:\n%s", r.Log())
	}
}

func TestAuditClusterCatchesDisagreement(t *testing.T) {
	p := mustPlan(t, PlanConfig{Seed: 1, N: 5, Shape: ShapeClean})
	d := cleanClusterData(p)
	d.Outcomes[2].Value = 1 - d.Outcomes[2].Value
	r := AuditCluster(p, d)
	if !failed(r, "consistency") {
		t.Fatalf("disagreement not caught:\n%s", r.Log())
	}
}

func TestAuditClusterCatchesNonTermination(t *testing.T) {
	p := mustPlan(t, PlanConfig{Seed: 1, N: 5, Shape: ShapeClean})
	d := cleanClusterData(p)
	d.Outcomes[3].Decided = false
	r := AuditCluster(p, d)
	if !failed(r, "termination") {
		t.Fatalf("undecided survivor not caught:\n%s", r.Log())
	}
	// A crashed processor is allowed to be undecided.
	d.Outcomes[3].Crashed = true
	if r := AuditCluster(p, d); failed(r, "termination") {
		t.Fatalf("crashed processor flagged as non-termination:\n%s", r.Log())
	}
}

func TestAuditClusterCatchesAbortViolation(t *testing.T) {
	votes := []bool{true, false, true, true, true}
	p := mustPlan(t, PlanConfig{Seed: 1, N: 5, Votes: votes})
	d := cleanClusterData(p) // all-V0 since a vote is no
	for i := range d.Outcomes {
		d.Outcomes[i].Value = types.V1 // committing despite the no vote
		d.Journals[i] = types.DecisionCommit
	}
	r := AuditCluster(p, d)
	if !failed(r, "validity") {
		t.Fatalf("commit-despite-no not caught:\n%s", r.Log())
	}
}

func TestAuditClusterCommitValidityOnCleanRuns(t *testing.T) {
	votes := []bool{true, true, true}
	p := mustPlan(t, PlanConfig{Seed: 1, N: 3, Votes: votes, Shape: ShapeClean})
	d := cleanClusterData(p)
	for i := range d.Outcomes {
		d.Outcomes[i].Value = types.V0
		d.Journals[i] = types.DecisionAbort
	}
	r := AuditCluster(p, d)
	if !failed(r, "commit-validity") {
		t.Fatalf("clean unanimous-yes abort not caught:\n%s", r.Log())
	}
	// Under faults the protocol may legitimately abort: no such check.
	lossy := mustPlan(t, PlanConfig{Seed: 1, N: 3, Votes: votes, Shape: ShapeLossy})
	for _, c := range AuditCluster(lossy, d).Checks {
		if c.Name == "commit-validity" {
			t.Fatal("commit-validity checked on a faulty plan")
		}
	}
}

func TestAuditClusterCatchesLostDecision(t *testing.T) {
	p := mustPlan(t, PlanConfig{Seed: 2, N: 5, Shape: ShapeCrashRestart})
	d := cleanClusterData(p)
	// Node 1 journaled a decision but recovered the opposite one: a
	// decided transaction was lost across recovery.
	d.Recovered[1] = 1 - d.Journals[1].Value()
	d.RecoveredOK[1] = true
	r := AuditCluster(p, d)
	if !failed(r, "consistency") {
		t.Fatalf("lost decision not caught:\n%s", r.Log())
	}
}

func TestAuditClusterCatchesFailedRecovery(t *testing.T) {
	p := mustPlan(t, PlanConfig{Seed: 2, N: 5, Shape: ShapeCrashRestart})
	d := cleanClusterData(p)
	d.RecoveredOK[0] = false
	r := AuditCluster(p, d)
	if !failed(r, "recovery-termination") {
		t.Fatalf("failed recovery not caught:\n%s", r.Log())
	}
}

func TestAuditTraceSanity(t *testing.T) {
	p := mustPlan(t, PlanConfig{Seed: 3, N: 3, Shape: ShapeCrash})
	d := cleanClusterData(p)
	d.Outcomes[p.Crashes[0].Node].Crashed = true
	// Crash fired but no trace event.
	r := AuditCluster(p, d)
	if !failed(r, "trace-sanity") {
		t.Fatalf("missing crash event not caught:\n%s", r.Log())
	}
	d.Spans = []span.Span{milestone(1, "", p.Crashes[0].Node, span.EventCrash, 0, "")}
	if r := AuditCluster(p, d); failed(r, "trace-sanity") {
		t.Fatalf("valid trace rejected:\n%s", r.Log())
	}
	// Non-increasing span ids.
	d.Spans = append(d.Spans, milestone(1, "t", 0, span.EventStage, 0, ""))
	if r := AuditCluster(p, d); !failed(r, "trace-sanity") {
		t.Fatal("stalled id not caught")
	}
}

// cleanServiceData builds a passing run for plan p: every transaction
// decided by its votes, its status and, for a cross transaction, its
// children, the cross log and the recovery echo agreeing.
func cleanServiceData(p *Plan) *ServiceRunData {
	d := &ServiceRunData{Crashed: make([]bool, p.Cfg.N), EchoOutcomes: map[string]service.State{}}
	agg, cross := &d.Metrics.Aggregate, &d.Metrics.Cross
	for i, votes := range p.TxnVotes {
		state, outcome := service.StateCommit, types.DecisionCommit
		if slices.Contains(votes, false) {
			state, outcome = service.StateAbort, types.DecisionAbort
		}
		res := TxnResult{
			ID: fmt.Sprintf("t%d", i), Votes: votes, Shards: []int{0}, State: state,
			Status: shard.TxnStatus{TxnStatus: service.TxnStatus{State: state}},
		}
		members := &agg.Committed
		if state == service.StateAbort {
			members = &agg.Aborted
		}
		if p.TxnShards != nil && len(p.TxnShards[i]) > 1 {
			res.Shards = p.TxnShards[i]
			res.ChildStates = []service.State{state, state}
			d.Records = append(d.Records,
				shard.CrossRecord{Type: shard.RecBegin, Txn: res.ID, Shards: res.Shards},
				shard.CrossRecord{Type: shard.RecOutcome, Txn: res.ID, Decision: outcome})
			d.EchoOutcomes[res.ID] = state
			cross.Submitted++
			if state == service.StateCommit {
				cross.Committed++
			} else {
				cross.Aborted++
			}
		}
		*members += uint64(len(res.Shards))
		agg.Submitted += uint64(len(res.Shards))
		d.Results = append(d.Results, res)
	}
	return d
}

func TestAuditServicePasses(t *testing.T) {
	p := mustPlan(t, PlanConfig{Seed: 4, N: 3, Shape: ShapeLossy})
	r := AuditService(p, cleanServiceData(p))
	if !r.Pass() {
		t.Fatalf("clean service run failed audit:\n%s", r.Log())
	}
}

func TestAuditServiceCatchesViolations(t *testing.T) {
	p := mustPlan(t, PlanConfig{Seed: 4, N: 3, Shape: ShapeLossy})

	d := cleanServiceData(p)
	d.Results[0].State = service.StateRunning // non-terminal answer
	if r := AuditService(p, d); !failed(r, "stability") {
		t.Fatalf("non-terminal result not caught:\n%s", r.Log())
	}

	d = cleanServiceData(p)
	d.Results[0].Status.State = service.StateTimeout // the status forgot the answer
	if r := AuditService(p, d); !failed(r, "stability") {
		t.Fatalf("status contradicting the answer not caught:\n%s", r.Log())
	}

	d = cleanServiceData(p)
	d.Metrics.Aggregate.SafetyViolations = 1
	if r := AuditService(p, d); !failed(r, "agreement") {
		t.Fatal("safety violation counter not surfaced")
	}

	d = cleanServiceData(p)
	d.Metrics.Aggregate.Submitted++ // a submission unaccounted for
	if r := AuditService(p, d); !failed(r, "metric-consistency") {
		t.Fatal("counter mismatch not caught")
	}

	d = cleanServiceData(p)
	d.Results[0].State = service.StateTimeout // a TIMEOUT the counters never saw
	if r := AuditService(p, d); !failed(r, "metric-consistency") {
		t.Fatal("client TIMEOUT missing from the counters not caught")
	}

	decided := func(id, node int, detail string) span.Span {
		s := milestone(id, "t", node, span.StageDecided, 0, detail)
		s.Kind = span.KindStage
		return s
	}
	d = cleanServiceData(p)
	d.Spans = []span.Span{decided(1, 0, "decision=COMMIT"), decided(2, 1, "decision=ABORT")}
	if r := AuditService(p, d); !failed(r, "trace-sanity") {
		t.Fatal("conflicting decided markers not caught")
	}

	d = cleanServiceData(p)
	d.Spans = []span.Span{decided(1, 0, "decision=COMMIT"), decided(2, 0, "decision=COMMIT")}
	if r := AuditService(p, d); !failed(r, "trace-sanity") {
		t.Fatal("duplicate decided marker not caught")
	}

	d = cleanServiceData(p)
	d.Spans = []span.Span{
		milestone(1, "t", 0, span.EventRetired, 0, "tick=9"),
		milestone(2, "t", 0, span.EventVoteCast, 0, "tick=9 votes=1"),
	}
	if r := AuditService(p, d); !failed(r, "trace-sanity") {
		t.Fatal("milestone after retirement not caught")
	}

	d = cleanServiceData(p)
	d.Spans = []span.Span{
		milestone(1, "t", 0, span.EventStage, 9, "tick=9 stage=1"),
		milestone(2, "t", 0, span.EventStage, 3, "tick=9 stage=2"),
	}
	if r := AuditService(p, d); !failed(r, "trace-sanity") {
		t.Fatal("backwards time not caught")
	}
}

// TestAuditShardedCatchesViolations: the two-layer contract, broken one
// way at a time on an otherwise clean sharded run.
func TestAuditShardedCatchesViolations(t *testing.T) {
	p := mustPlan(t, PlanConfig{Seed: 4, N: 3, Shape: ShapeLossy, Shards: 2, CrossFraction: 1})
	if r := AuditService(p, cleanServiceData(p)); !r.Pass() {
		t.Fatalf("clean sharded run failed audit:\n%s", r.Log())
	}
	first := func(d *ServiceRunData, want service.State) *TxnResult {
		for i := range d.Results {
			if d.Results[i].State == want {
				return &d.Results[i]
			}
		}
		t.Fatalf("plan has no %s transaction", want)
		return nil
	}
	for _, tc := range []struct {
		name, rule string
		mutate     func(*ServiceRunData)
	}{
		{"aborted child under COMMIT", "commit-of-commits", func(d *ServiceRunData) {
			res := first(d, service.StateCommit)
			res.ChildStates[1] = service.StateAbort
		}},
		{"ABORT with no aborted child", "commit-of-commits", func(d *ServiceRunData) {
			res := first(d, service.StateAbort)
			res.ChildStates = []service.State{service.StateTimeout, service.StateTimeout}
		}},
		{"COMMIT the cross log never recorded", "durability", func(d *ServiceRunData) {
			id := first(d, service.StateCommit).ID
			for i, rec := range d.Records {
				if rec.Txn == id && rec.Type == shard.RecOutcome {
					d.Records = append(d.Records[:i:i], d.Records[i+1:]...)
					break
				}
			}
		}},
		{"TIMEOUT hiding a logged decision", "durability", func(d *ServiceRunData) {
			res := first(d, service.StateCommit)
			res.State, res.Status.State = service.StateTimeout, service.StateTimeout
			d.Metrics.Aggregate.Committed -= 2
			d.Metrics.Aggregate.TimedOut += 2
			d.Metrics.Cross.Committed--
			d.Metrics.Cross.TimedOut++
		}},
		{"recovery lost a decision", "stability", func(d *ServiceRunData) {
			delete(d.EchoOutcomes, first(d, service.StateAbort).ID)
		}},
		{"recovery flipped a decision", "consistency", func(d *ServiceRunData) {
			d.EchoOutcomes[first(d, service.StateCommit).ID] = service.StateAbort
		}},
		{"recovery echo failed", "recovery-termination", func(d *ServiceRunData) {
			d.EchoErr = "boom"
		}},
	} {
		d := cleanServiceData(p)
		tc.mutate(d)
		r := AuditService(p, d)
		if !failed(r, tc.rule) {
			t.Errorf("%s: %s not failed:\n%s", tc.name, tc.rule, r.Log())
		}
		if n := len(failures(r)); tc.rule != "consistency" && n != 1 {
			t.Errorf("%s: %d checks failed, want only %s:\n%s", tc.name, n, tc.rule, r.Log())
		}
	}
}

// TestReportLogShape: failing checks carry details, passing ones don't.
func TestReportLogShape(t *testing.T) {
	p := mustPlan(t, PlanConfig{Seed: 5, N: 3, Shape: ShapeClean})
	d := cleanClusterData(p)
	d.Outcomes[1].Value = 1 - d.Outcomes[1].Value
	r := AuditCluster(p, d)
	log := r.Log()
	if !strings.Contains(log, "check consistency FAIL txn txn: node 0 says") {
		t.Fatalf("failure detail missing:\n%s", log)
	}
	if !strings.Contains(log, "audit FAIL") {
		t.Fatalf("verdict missing:\n%s", log)
	}
	for _, c := range r.Checks {
		if c.Pass && c.Detail != "" {
			t.Fatalf("passing check %s carries detail %q", c.Name, c.Detail)
		}
	}
	if len(failures(r)) == 0 {
		t.Fatal("no failed check on a failing report")
	}
}

// milestone builds a zero-length event record on node's processor track.
func milestone(id int, txn string, node int, name string, at int64, detail string) span.Span {
	return span.Span{ID: id, Txn: txn, Track: span.ProcTrack(node), Name: name, Kind: span.KindEvent,
		Start: at, End: at, From: -1, To: -1, Detail: detail}
}
