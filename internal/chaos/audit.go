package chaos

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/obs/span"
	"repro/internal/obs/watch"
	"repro/internal/service"
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

// Failures returns the failed checks.
func (r *Report) Failures() []Check {
	var out []Check
	for _, c := range r.Checks {
		if !c.Pass {
			out = append(out, c)
		}
	}
	return out
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
	// Decided/Values snapshot every original machine's final state
	// (including machines that decided before their crash).
	Decided []bool
	Values  []types.Value
	// Crashed[p] is true if the plan's crash for p actually fired.
	Crashed []bool
	// Recovered maps restarted processors to the decision they recovered
	// (via WAL short-circuit or outcome query).
	Recovered map[int]types.Value
	// RecoveredOK[p] is false if a restarted processor failed to learn
	// any outcome within the budget.
	RecoveredOK map[int]bool
	// WALDecided/WALValue report, per processor, a decision found in its
	// write-ahead log after the run.
	WALDecided []bool
	WALValue   []types.Value
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
	decidedAny := false
	for _, dec := range d.Decided {
		decidedAny = decidedAny || dec
	}
	decidedAny = decidedAny || len(d.Recovered) > 0
	vacuous := d.Vacuous || (len(d.Crashed) > 0 && d.Crashed[0] && !decidedAny)
	undecided := []int{}
	for i, dec := range d.Decided {
		if !dec && !d.Crashed[i] {
			undecided = append(undecided, i)
		}
	}
	r.add("termination", vacuous || (len(undecided) == 0 && !d.TimedOut),
		fmt.Sprintf("undecided=%v timed_out=%v", undecided, d.TimedOut))

	// Agreement: all decided values equal — across survivors, crashed
	// processors that decided before dying, and recovered processors.
	values := map[types.Value][]int{}
	for i, dec := range d.Decided {
		if dec {
			values[d.Values[i]] = append(values[d.Values[i]], i)
		}
	}
	for pID, v := range d.Recovered {
		values[v] = append(values[v], pID)
	}
	r.add("agreement", len(values) <= 1, fmt.Sprintf("decisions=%v", renderValues(values)))

	// Abort validity: any no-vote forbids COMMIT, under every adversary.
	anyNo := false
	for _, v := range p.Votes {
		if !v {
			anyNo = true
		}
	}
	abortOK := true
	for i, dec := range d.Decided {
		if dec && anyNo && d.Values[i] == types.V1 {
			abortOK = false
		}
		_ = i
	}
	r.add("abort-validity", abortOK, "committed despite a no vote")

	// Commit validity: on a fault-free plan with unanimous yes votes the
	// decision must be COMMIT (the paper guarantees commit only for
	// on-time, failure-free runs).
	if p.FaultFree() && !anyNo {
		commitOK := true
		for i, dec := range d.Decided {
			if dec && d.Values[i] != types.V1 {
				commitOK = false
			}
			_ = i
		}
		r.add("commit-validity", commitOK, "aborted a clean unanimous-yes run")
	}

	// Recovery: every restarted processor learned an outcome, it matches
	// the cluster's decision, and no decision present in a WAL was lost
	// or contradicted (a decided transaction survives recovery).
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
	walOK, walDetail := true, ""
	for i, dec := range d.WALDecided {
		if !dec {
			continue
		}
		if rv, ok := d.Recovered[i]; ok && rv != d.WALValue[i] {
			walOK = false
			walDetail = fmt.Sprintf("node %d recovered %v but journaled %v", i, rv, d.WALValue[i])
		}
		for v, holders := range values {
			if v != d.WALValue[i] {
				walOK = false
				walDetail = fmt.Sprintf("node %d journaled %v, cluster decided %v (held by %v)",
					i, d.WALValue[i], v, holders)
			}
		}
	}
	r.add("wal-consistency", walOK, walDetail)

	// Trace sanity: span ids strictly increase; every fired crash left a
	// crash milestone; every restart left a recover milestone after its
	// crash's.
	trace := auditTrace(d.Crashed, d.Recovered, d.Spans)
	r.add("trace-sanity", trace == "", trace)
	return r
}

func renderValues(values map[types.Value][]int) string {
	keys := make([]int, 0, len(values))
	for v := range values {
		keys = append(keys, int(v))
	}
	sort.Ints(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		holders := values[types.Value(k)]
		sort.Ints(holders)
		parts = append(parts, fmt.Sprintf("%d by %v", k, holders))
	}
	return strings.Join(parts, "; ")
}

// auditTrace returns "" when the span ring is causally sane.
func auditTrace(crashed []bool, recovered map[int]types.Value, spans []span.Span) string {
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
	for i, c := range crashed {
		if _, ok := crashID[span.ProcTrack(i)]; c && !ok {
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

// TxnResult is one service submission's terminal answer plus its inputs.
type TxnResult struct {
	ID     string
	Votes  []bool
	State  service.State
	Status service.TxnStatus
	// StatusKnown is false when the service no longer retains the id.
	StatusKnown bool
}

// ServiceRunData is everything a service-mode run hands the auditor.
type ServiceRunData struct {
	Results []TxnResult
	Metrics service.Metrics
	Spans   []span.Span
	Crashed []bool
	// Watched is true when RunOptions.Watch attached a live watchdog;
	// Anomalies and Health are its findings (the workload's periodic
	// ticks plus one final synchronous evaluation).
	Watched   bool
	Anomalies []watch.Anomaly
	Health    watch.Health
}

// AuditService checks a commit-service run end to end: client responses,
// status queries, the metrics surface, and the protocol event trace must
// tell one consistent story.
func AuditService(p *Plan, d *ServiceRunData) *Report {
	r := &Report{Plan: p}

	// Response consistency: every submission reached a terminal state;
	// COMMIT/ABORT answers respect abort validity; the queried status
	// agrees with the returned result.
	respOK, respDetail := true, ""
	var committed, aborted, timedOut, failed uint64
	for _, res := range d.Results {
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
		case service.StateTimeout:
			timedOut++
		case service.StateFailed:
			failed++
		}
		if res.StatusKnown && res.Status.State != res.State &&
			!(res.State == service.StateTimeout && res.Status.State.Terminal()) {
			// TIMEOUT means unknown: the cluster may still decide later,
			// so a later COMMIT/ABORT status is consistent. Anything else
			// must match.
			respOK = false
			respDetail = fmt.Sprintf("txn %s result %s but status %s", res.ID, res.State, res.Status.State)
		}
	}
	r.add("response-consistency", respOK, respDetail)

	// Agreement at the service: the cross-node decision checker counted
	// zero conflicts.
	r.add("agreement", d.Metrics.SafetyViolations == 0,
		fmt.Sprintf("%d safety violations", d.Metrics.SafetyViolations))

	// Metric consistency: the service's own counters must account for
	// every admitted submission, and not disagree with the client's
	// tallies. (TIMEOUT results can later flip the status, but counters
	// are terminal-once.)
	m := d.Metrics
	sumOK := m.Submitted == m.Committed+m.Aborted+m.TimedOut+m.Failed
	clientOK := m.Committed >= committed && m.Aborted >= aborted && m.Failed >= failed
	r.add("metric-consistency", sumOK && clientOK,
		fmt.Sprintf("submitted=%d committed=%d aborted=%d timed_out=%d failed=%d client saw %d/%d/%d",
			m.Submitted, m.Committed, m.Aborted, m.TimedOut, m.Failed, committed, aborted, failed))

	// Trace causal sanity: span ids strictly increasing; per (txn, node)
	// the protocol milestones appear in causal order at non-decreasing
	// times; decided markers for one txn never disagree. The ring may have
	// evicted early records, so order is only checked among the records
	// present.
	trace := auditServiceTrace(d.Spans)
	r.add("trace-sanity", trace == "", trace)

	// Watchdog detection coverage (watched runs only): injected crashes
	// must be reported, live nodes must not be, clean plans stay silent.
	auditWatch(r, p, d.Crashed, d.Anomalies, d.Watched)
	return r
}

// auditServiceTrace checks the causal sanity of a service-mode span ring:
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
