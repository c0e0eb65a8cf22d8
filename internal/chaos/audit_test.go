package chaos

import (
	"strings"
	"testing"

	"repro/internal/obs/span"
	"repro/internal/service"
	"repro/internal/shard"
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
		Decided:     make([]bool, n),
		Values:      make([]types.Value, n),
		Crashed:     make([]bool, n),
		Recovered:   map[int]types.Value{},
		RecoveredOK: map[int]bool{},
		WALDecided:  make([]bool, n),
		WALValue:    make([]types.Value, n),
	}
	for i := 0; i < n; i++ {
		d.Decided[i], d.Values[i] = true, v
		d.WALDecided[i], d.WALValue[i] = true, v
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
	d.Values[2] = 1 - d.Values[2]
	d.WALDecided = make([]bool, p.Cfg.N) // isolate the agreement check
	r := AuditCluster(p, d)
	if !failed(r, "agreement") {
		t.Fatalf("disagreement not caught:\n%s", r.Log())
	}
}

func TestAuditClusterCatchesNonTermination(t *testing.T) {
	p := mustPlan(t, PlanConfig{Seed: 1, N: 5, Shape: ShapeClean})
	d := cleanClusterData(p)
	d.Decided[3] = false
	r := AuditCluster(p, d)
	if !failed(r, "termination") {
		t.Fatalf("undecided survivor not caught:\n%s", r.Log())
	}
	// A crashed processor is allowed to be undecided.
	d.Crashed[3] = true
	if r := AuditCluster(p, d); failed(r, "termination") {
		t.Fatalf("crashed processor flagged as non-termination:\n%s", r.Log())
	}
}

func TestAuditClusterCatchesAbortViolation(t *testing.T) {
	votes := []bool{true, false, true, true, true}
	p := mustPlan(t, PlanConfig{Seed: 1, N: 5, Votes: votes})
	d := cleanClusterData(p) // all-V0 since a vote is no
	for i := range d.Values {
		d.Values[i] = types.V1 // committing despite the no vote
		d.WALValue[i] = types.V1
	}
	r := AuditCluster(p, d)
	if !failed(r, "abort-validity") {
		t.Fatalf("commit-despite-no not caught:\n%s", r.Log())
	}
}

func TestAuditClusterCommitValidityOnCleanRuns(t *testing.T) {
	votes := []bool{true, true, true}
	p := mustPlan(t, PlanConfig{Seed: 1, N: 3, Votes: votes, Shape: ShapeClean})
	d := cleanClusterData(p)
	for i := range d.Values {
		d.Values[i] = types.V0
		d.WALValue[i] = types.V0
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
	d.Recovered[1] = 1 - d.WALValue[1]
	d.RecoveredOK[1] = true
	r := AuditCluster(p, d)
	if !failed(r, "wal-consistency") {
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
	d.Crashed[p.Crashes[0].Node] = true
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

func cleanServiceData(p *Plan) *ServiceRunData {
	d := &ServiceRunData{Crashed: make([]bool, p.Cfg.N)}
	agg := &d.Metrics.Aggregate
	for _, votes := range p.TxnVotes {
		state := service.StateCommit
		for _, v := range votes {
			if !v {
				state = service.StateAbort
			}
		}
		d.Results = append(d.Results, TxnResult{
			ID: "t", Votes: votes, Shards: []int{0}, State: state,
			Status:      shard.TxnStatus{TxnStatus: service.TxnStatus{State: state}},
			StatusKnown: true,
		})
		switch state {
		case service.StateCommit:
			agg.Committed++
		default:
			agg.Aborted++
		}
	}
	agg.Submitted = uint64(len(p.TxnVotes))
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
	if r := AuditService(p, d); !failed(r, "response-consistency") {
		t.Fatalf("non-terminal result not caught:\n%s", r.Log())
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

// TestReportLogShape: failing checks carry details, passing ones don't.
func TestReportLogShape(t *testing.T) {
	p := mustPlan(t, PlanConfig{Seed: 5, N: 3, Shape: ShapeClean})
	d := cleanClusterData(p)
	d.Values[1] = 1 - d.Values[1]
	d.WALDecided = make([]bool, p.Cfg.N)
	r := AuditCluster(p, d)
	log := r.Log()
	if !strings.Contains(log, "check agreement FAIL decisions=") {
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
	if len(r.Failures()) == 0 {
		t.Fatal("Failures() empty on a failing report")
	}
}

// milestone builds a zero-length event record on node's processor track.
func milestone(id int, txn string, node int, name string, at int64, detail string) span.Span {
	return span.Span{ID: id, Txn: txn, Track: span.ProcTrack(node), Name: name, Kind: span.KindEvent,
		Start: at, End: at, From: -1, To: -1, Detail: detail}
}
