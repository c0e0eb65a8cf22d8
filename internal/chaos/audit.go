package chaos

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/obs/span"
	"repro/internal/obs/watch"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/trace"
	"repro/internal/types"
)

// Check is one audited invariant.
type Check struct {
	Name   string
	Pass   bool
	Detail string // populated only on failure (keeps passing logs byte-stable)
}

// Report is the auditor's verdict for one run.
type Report struct {
	Plan   *Plan
	Checks []Check
}

// Pass reports whether every check passed.
func (r *Report) Pass() bool {
	for _, c := range r.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// Log renders the canonical audit log: the plan, then one line per check.
// All content is plan-derived or a verdict, so a passing log is
// byte-identical across runs of the same seed at any GOMAXPROCS; failure
// details carry run data (they exist to be replayed, not compared).
func (r *Report) Log() string {
	var b strings.Builder
	b.WriteString(r.Plan.Canonical())
	for _, c := range r.Checks {
		if c.Pass {
			fmt.Fprintf(&b, "check %s PASS\n", c.Name)
		} else {
			fmt.Fprintf(&b, "check %s FAIL %s\n", c.Name, c.Detail)
		}
	}
	verdict := "PASS"
	if !r.Pass() {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "audit %s checks=%d\n", verdict, len(r.Checks))
	return b.String()
}

func (r *Report) add(name string, pass bool, detail string) {
	if pass {
		detail = ""
	}
	r.Checks = append(r.Checks, Check{Name: name, Pass: pass, Detail: detail})
}

// ClusterRunData is everything a single-instance cluster run hands the
// auditor.
type ClusterRunData struct {
	// Outcomes snapshot every original machine's final state: its
	// decision (kept by a machine that decided before its crash) and
	// whether the plan's crash for it actually fired.
	Outcomes []trace.Outcome
	// Recovered maps restarted processors to the decision they recovered
	// (via WAL short-circuit or outcome query).
	Recovered map[int]types.Value
	// RecoveredOK[p] is false if a restarted processor failed to learn
	// any outcome within the budget.
	RecoveredOK map[int]bool
	// Journals holds, per processor, the decision its write-ahead log
	// held after the run (DecisionNone when it held none).
	Journals []types.Decision
	// Spans is the run's span ring, oldest first (crash and recover
	// milestones at minimum).
	Spans []span.Span
	// TimedOut is true when the run hit its wall-clock budget before
	// every live node decided.
	TimedOut bool
	// Vacuous is set by the harness when it detected the never-started
	// degenerate case (coordinator crashed before GO escaped) and
	// stopped early.
	Vacuous bool
}

// AuditCluster checks a cluster run against the paper's invariants.
func AuditCluster(p *Plan, d *ClusterRunData) *Report {
	r := &Report{Plan: p}

	// Termination: every never-crashed processor decided within budget.
	// The crash budget respects t < n/2 and all fault windows close at
	// the horizon, so the theory promises termination w.p. 1; the budget
	// is generous enough that hitting it is a liveness bug, not luck.
	//
	// One degenerate case is exempt: the coordinator (processor 0)
	// crashing before its GO flood reaches anyone. The protocol then
	// never starts — participants wait in instruction 2 forever, which
	// the paper permits (a transaction nobody heard of never happened).
	// The run is vacuous exactly when nothing anywhere decided; if even
	// one processor decided, GO escaped, piggybacking spreads it, and
	// everyone alive must finish.
	decidedAny := len(d.Recovered) > 0
	undecided := []int{}
	for i, o := range d.Outcomes {
		decidedAny = decidedAny || o.Decided
		if !o.Decided && !o.Crashed {
			undecided = append(undecided, i)
		}
	}
	vacuous := d.Vacuous || (len(d.Outcomes) > 0 && d.Outcomes[0].Crashed && !decidedAny)
	r.add("termination", vacuous || (len(undecided) == 0 && !d.TimedOut),
		fmt.Sprintf("undecided=%v timed_out=%v", undecided, d.TimedOut))

	// Consistency and validity: the run as one history. Every decided
	// value counts, survivors', crashed processors' that decided before
	// dying, recovered processors' and every journal's.
	h := trace.NewHistory()
	h.Votes(soleTxn, p.Votes...)
	for i, o := range d.Outcomes {
		if o.Decided {
			h.Decide(soleTxn, i, types.DecisionOf(o.Value))
		}
		if v, ok := d.Recovered[i]; ok {
			h.Decide(soleTxn, i, types.DecisionOf(v))
		}
	}
	for _, j := range d.Journals {
		h.Durable(soleTxn, j)
	}
	r.addRules(h.Check(), trace.RuleConsistency, trace.RuleValidity)

	// Commit validity: on a fault-free plan with unanimous yes votes the
	// decision must be COMMIT (the paper guarantees commit only for
	// on-time, failure-free runs).
	if !slices.Contains(p.Votes, false) && p.FaultFree() {
		err := trace.CheckCommitValidity(types.Values(p.Votes), d.Outcomes, true, true)
		r.add("commit-validity", err == nil, fmt.Sprint(err))
	}

	// Recovery termination: every restarted processor learned an
	// outcome (consistency above holds it to the cluster's decision).
	if len(d.Recovered) > 0 || len(d.RecoveredOK) > 0 {
		recOK, detail := true, ""
		for pID, ok := range d.RecoveredOK {
			if !ok {
				recOK = false
				detail = fmt.Sprintf("node %d never recovered an outcome", pID)
			}
		}
		// A vacuous run has no outcome to recover: the pollers correctly
		// found nobody who decided.
		r.add("recovery-termination", vacuous || recOK, detail)
	}
	// Trace sanity: span ids strictly increase; every fired crash left a
	// crash milestone; every restart left a recover milestone after its
	// crash's.
	sanity := auditTrace(d.Outcomes, d.Recovered, d.Spans)
	r.add("trace-sanity", sanity == "", sanity)
	return r
}

// soleTxn is the one transaction of a cluster run.
const soleTxn = "txn"

// addRules appends one check per named rule of the history checker,
// carrying that rule's violation, if any.
func (r *Report) addRules(violations []*trace.Violation, rules ...string) {
	for _, rule := range rules {
		detail := ""
		for _, v := range violations {
			if v.Condition == rule {
				detail = v.Detail
			}
		}
		r.add(rule, detail == "", detail)
	}
}

// auditTrace returns "" when the span ring is causally sane.
func auditTrace(outcomes []trace.Outcome, recovered map[int]types.Value, spans []span.Span) string {
	lastID := 0
	crashID := map[string]int{} // by processor track
	recoverID := map[string]int{}
	for _, s := range spans {
		if s.ID <= lastID {
			return fmt.Sprintf("span ids not strictly increasing at %d", s.ID)
		}
		lastID = s.ID
		if s.Kind != span.KindEvent {
			continue
		}
		switch s.Name {
		case span.EventCrash:
			if _, dup := crashID[s.Track]; !dup {
				crashID[s.Track] = s.ID
			}
		case span.EventRecover:
			recoverID[s.Track] = s.ID
		}
	}
	for i, o := range outcomes {
		if _, ok := crashID[span.ProcTrack(i)]; o.Crashed && !ok {
			return fmt.Sprintf("crash of node %d left no crash milestone", i)
		}
	}
	for pID := range recovered {
		rs, ok := recoverID[span.ProcTrack(pID)]
		if !ok {
			return fmt.Sprintf("restart of node %d left no recover milestone", pID)
		}
		if cs, ok := crashID[span.ProcTrack(pID)]; ok && rs <= cs {
			return fmt.Sprintf("node %d recover milestone (span %d) precedes its crash (span %d)", pID, rs, cs)
		}
	}
	return ""
}

// TxnResult is one service submission's terminal answer plus its planned
// inputs.
type TxnResult struct {
	ID    string
	Votes []bool
	// Shards is the plan-assigned participant set (len 1: one group's
	// fast path; len 2: cross-shard commit-of-commits).
	Shards []int
	State  service.State
	// Status is the deployment's answer after the workload (the zero
	// status when it does not find the id).
	Status shard.TxnStatus
	// ChildStates snapshots each participating group's record of a cross
	// transaction's child, in Shards order ("" for a child the group does
	// not hold; nil for single-group txns).
	ChildStates []service.State
}

// ServiceRunData is everything a service run hands the auditor.
type ServiceRunData struct {
	Results []TxnResult
	Metrics shard.Metrics
	Spans   []span.Span
	Crashed []bool
	// Records is the cross-shard WAL as written during the workload
	// (snapshotted before the recovery echo appends to it).
	Records []shard.CrossRecord
	// EchoOutcomes maps cross transactions to the outcome re-derived by
	// the recovery echo (sharded plans only): the run's WAL with every
	// outcome record stripped — a crashed coordinator's view — replayed
	// through Recover on the live groups.
	EchoOutcomes map[string]service.State
	// EchoSettled is Recover's count of in-doubt transactions it settled
	// during the echo.
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

// AuditService checks a commit-service run end to end: client answers,
// status queries, the metrics surface and the protocol span ring must
// tell one consistent story. A sharded plan adds the two-layer
// protocol's own contract: commit-of-commits, the cross log's records,
// and the answers a coordinator gives after recovering from that log.
func AuditService(p *Plan, d *ServiceRunData) *Report {
	r := &Report{Plan: p}
	sharded := p.Cfg.Shards > 1

	// The run as one history: each transaction's votes, its ack, and its
	// status after the workload; for a cross transaction also each
	// child's status and the cross log's outcome record (which a
	// coordinator writes before it answers) and, after the recovery
	// echo, the status the recovered coordinator gives.
	h := trace.NewHistory()
	wal := shard.ReconstructCross(d.Records)
	for _, res := range d.Results {
		h.Votes(res.ID, res.Votes...)
		if len(res.Shards) > 1 {
			children := make([]string, len(res.Shards))
			for j, s := range res.Shards {
				children[j] = shard.ChildID(res.ID, s)
				h.Votes(children[j], res.Votes...)
				h.Status(children[j], trace.Answer(res.ChildStates[j]))
			}
			h.Link(res.ID, children...)
			h.Journaled(res.ID)
			if st := wal[res.ID]; st != nil && st.Decided {
				h.Durable(res.ID, st.Outcome)
			}
		}
		h.Ack(res.ID, trace.Answer(res.State))
		// A status the deployment could not find is left out:
		// Coordinator.Status looks a single-shard id up in the group its
		// hash routes to, not the one its keys chose, so a keyed
		// transaction placed elsewhere reads unknown (ROADMAP 2h).
		if res.Status.State != "" {
			h.Status(res.ID, trace.Answer(res.Status.State))
		}
	}
	rules := []string{trace.RuleConsistency, trace.RuleValidity, trace.RuleStability}
	if sharded {
		h.Restart()
		for _, res := range d.Results {
			if len(res.Shards) > 1 {
				h.Status(res.ID, trace.Answer(d.EchoOutcomes[res.ID]))
			}
		}
		rules = append(rules, trace.RuleDurability, trace.RuleCommitOfCommits)
	}
	r.addRules(h.Check(), rules...)
	if sharded {
		r.add("recovery-termination", d.EchoErr == "", "recovery echo failed: "+d.EchoErr)
	}

	// Agreement within every group: the per-node decision checkers
	// counted zero conflicts across all shards.
	r.add("agreement", d.Metrics.Aggregate.SafetyViolations == 0,
		fmt.Sprintf("%d safety violations", d.Metrics.Aggregate.SafetyViolations))

	// Metric consistency: the cross layer accounts for every cross
	// submission exactly; the aggregate accounts for every single-group
	// txn plus every cross child; the counters never fall short of the
	// client's tallies. (TIMEOUT results can later flip the status, but
	// counters are terminal-once.)
	m, agg := d.Metrics, d.Metrics.Aggregate
	var cross, children, committed, aborted, timedOut, failed uint64
	for _, res := range d.Results {
		if len(res.Shards) > 1 {
			cross++
			children += uint64(len(res.Shards))
		}
		switch res.State {
		case service.StateCommit:
			committed++
		case service.StateAbort:
			aborted++
		case service.StateTimeout:
			timedOut++
		case service.StateFailed:
			failed++
		}
	}
	singles := uint64(len(d.Results)) - cross
	crossSum := m.Cross.Committed + m.Cross.Aborted + m.Cross.TimedOut + m.Cross.Failed
	aggOK := agg.Submitted == singles+children &&
		agg.Submitted == agg.Committed+agg.Aborted+agg.TimedOut+agg.Failed
	crossOK := m.Cross.Submitted == cross && crossSum == cross
	clientOK := agg.Committed >= committed && agg.Aborted >= aborted &&
		agg.TimedOut >= timedOut && agg.Failed >= failed
	r.add("metric-consistency", aggOK && crossOK && clientOK,
		fmt.Sprintf("submitted=%d (want %d singles + %d children) committed=%d aborted=%d timed_out=%d failed=%d "+
			"client saw %d/%d/%d/%d; cross submitted=%d outcomes=%d (want %d)",
			agg.Submitted, singles, children, agg.Committed, agg.Aborted, agg.TimedOut, agg.Failed,
			committed, aborted, timedOut, failed, m.Cross.Submitted, crossSum, cross))

	// Trace causal sanity: span ids strictly increasing; per (txn, node)
	// the protocol milestones appear in causal order at non-decreasing
	// times; decided markers for one txn never disagree. One shared ring
	// serves every group, and txn ids are disjoint across groups
	// (children carry their shard suffix). The ring may have evicted
	// early records, so order is only checked among the records present.
	sanity := auditServiceTrace(d.Spans)
	r.add("trace-sanity", sanity == "", sanity)

	// Watchdog detection coverage (watched runs only): injected crashes
	// must be reported, live nodes must not be, clean plans stay silent.
	auditWatch(r, p, d.Crashed, d.Anomalies, d.Watched)
	return r
}

// auditServiceTrace checks the causal sanity of a service run's span ring:
// ids strictly increase; per (txn, node) the milestones — a processor
// track's event records and decided markers — are recorded at most once
// each, their times never run backwards, and nothing follows
// retirement/abandonment; decided markers for one transaction never
// disagree across nodes. The ring may have evicted early records, so only
// the records present are checked — eviction can hide a milestone, never
// fabricate one.
func auditServiceTrace(spans []span.Span) string {
	lastID := 0
	type key struct{ txn, track string }
	type txnNodeState struct {
		seen   map[string]bool
		last   int64
		closed bool // retired or abandoned
	}
	states := map[key]*txnNodeState{}
	decided := map[string]string{}
	for _, s := range spans {
		if s.ID <= lastID {
			return fmt.Sprintf("span ids not strictly increasing at %d", s.ID)
		}
		lastID = s.ID
		if !s.Milestone() || s.Txn == "" {
			continue // crash/recover carry no txn
		}
		k := key{s.Txn, s.Track}
		st := states[k]
		if st == nil {
			st = &txnNodeState{seen: map[string]bool{}, last: s.Start}
			states[k] = st
		}
		if s.Start < st.last {
			return fmt.Sprintf("txn %s %s: time went backwards (%d -> %d)", s.Txn, s.Track, st.last, s.Start)
		}
		st.last = s.Start
		switch s.Name {
		case span.EventGoSent, span.EventGoRecv, span.EventVoteCast,
			span.StageDecided, span.EventRetired, span.EventAbandoned:
			if st.seen[s.Name] {
				return fmt.Sprintf("txn %s %s: duplicate %s", s.Txn, s.Track, s.Name)
			}
			st.seen[s.Name] = true
		}
		if st.closed {
			return fmt.Sprintf("txn %s %s: %s after retirement", s.Txn, s.Track, s.Name)
		}
		if s.Name == span.EventRetired || s.Name == span.EventAbandoned {
			st.closed = true
		}
		if s.Name == span.StageDecided {
			if prev, ok := decided[s.Txn]; ok && prev != s.Detail {
				return fmt.Sprintf("txn %s decided %q on one node, %q on another", s.Txn, prev, s.Detail)
			}
			decided[s.Txn] = s.Detail
		}
	}
	return ""
}
