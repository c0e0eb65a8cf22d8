package trace

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/types"
)

// Outcome is the per-processor end state of a run, as observed by the
// execution engine: the decided value (if any) and whether the processor
// crashed.
type Outcome struct {
	Decided bool
	Value   types.Value
	Crashed bool
}

// Violation describes a failed correctness condition.
type Violation struct {
	Condition string
	Detail    string
}

// Error implements the error interface.
func (v *Violation) Error() string {
	return fmt.Sprintf("%s violated: %s", v.Condition, v.Detail)
}

// CheckAgreement verifies the Agreement Condition of §2.4: every
// configuration of the run has at most one decision value — operationally,
// no two processors (faulty or not: a crash after deciding still counts)
// decide different values.
func CheckAgreement(outcomes []Outcome) error {
	first := -1
	for p, o := range outcomes {
		switch {
		case !o.Decided:
		case first < 0:
			first = p
		case o.Value != outcomes[first].Value:
			return &Violation{
				Condition: "agreement",
				Detail: fmt.Sprintf("processor %d decided %v but processor %d decided %v",
					first, outcomes[first].Value, p, o.Value),
			}
		}
	}
	return nil
}

// CheckAbortValidity verifies the Abort Validity Condition: if the run is
// deciding and any processor's initial value is 0, the nonfaulty
// processors decide 0 — no matter what the timing behaviour was.
func CheckAbortValidity(initial []types.Value, outcomes []Outcome) error {
	if !slices.Contains(initial, types.V0) {
		return nil
	}
	return decideOnly(outcomes, types.V0, true, "abort validity", "some initial value was 0")
}

// CheckCommitValidity verifies the Commit Validity Condition: if the run is
// deciding, all initial values are 1, and the run is failure-free and
// on-time, the nonfaulty processors decide 1.
func CheckCommitValidity(initial []types.Value, outcomes []Outcome, failureFree, onTime bool) error {
	if !failureFree || !onTime || !allEqual(initial, types.V1) {
		return nil
	}
	return decideOnly(outcomes, types.V1, false, "commit validity", "all-1 failure-free on-time run")
}

// CheckAgreementValidity verifies the Validity Condition of the agreement
// problem (§2.4): if all initial values are equal, deciders must decide
// that value.
func CheckAgreementValidity(initial []types.Value, outcomes []Outcome) error {
	if len(initial) == 0 || !allEqual(initial, initial[0]) {
		return nil
	}
	return decideOnly(outcomes, initial[0], false, "agreement validity",
		fmt.Sprintf("unanimous initial value %v", initial[0]))
}

func allEqual(values []types.Value, v types.Value) bool {
	return !slices.ContainsFunc(values, func(u types.Value) bool { return u != v })
}

// decideOnly returns condition's violation, its detail starting with
// premise, at the first processor that decided other than want; a
// crashed one is skipped when liveOnly is set.
func decideOnly(outcomes []Outcome, want types.Value, liveOnly bool, condition, premise string) error {
	for p, o := range outcomes {
		if o.Decided && !(liveOnly && o.Crashed) && o.Value != want {
			return &Violation{
				Condition: condition,
				Detail:    fmt.Sprintf("%s but processor %d decided %v", premise, p, o.Value),
			}
		}
	}
	return nil
}

// CheckAll runs every transaction-commit condition applicable to the run
// and returns the first violation, if any.
func CheckAll(initial []types.Value, outcomes []Outcome, failureFree, onTime bool) error {
	if err := CheckAgreement(outcomes); err != nil {
		return err
	}
	if err := CheckAbortValidity(initial, outcomes); err != nil {
		return err
	}
	return CheckCommitValidity(initial, outcomes, failureFree, onTime)
}

// The rules a History is checked against, from Gray & Lamport's TCommit
// invariants (cs/0408036) plus what a deployment with a journal and
// restarts adds. A Violation's Condition is one of these names.
const (
	// RuleConsistency: no two records of one transaction (a node's
	// decision, a durable journal record, a decided answer) disagree.
	RuleConsistency = "consistency"
	// RuleValidity: a transaction commits only if every vote was YES.
	RuleValidity = "validity"
	// RuleStability: an ack is a final answer; once a decided answer
	// has been given, every later answer, in any epoch, repeats it;
	// after a FAILED ack every later answer in its epoch is FAILED or
	// unknown.
	RuleStability = "stability"
	// RuleDurability: a journaled transaction's decided answer comes
	// only after its decision is durable, and no TIMEOUT ack follows a
	// durable decision.
	RuleDurability = "durability"
	// RuleCommitOfCommits: a parent commits only if every child
	// committed, and aborts only if some child aborted.
	RuleCommitOfCommits = "commit-of-commits"
)

// Answer is what a deployment told a client (an ack) or a status
// poller about one transaction. The names are the service's states and
// the decisions' names, so a caller converts either directly; the zero
// Answer is Unknown, the answer of a deployment that holds no record of
// the id. Any other value (QUEUED, RUNNING) is an undecided answer.
type Answer string

// Answers.
const (
	Unknown Answer = ""
	Commit  Answer = "COMMIT"
	Abort   Answer = "ABORT"
	Timeout Answer = "TIMEOUT" // the deadline came first: not final, the decision may follow
	Failed  Answer = "FAILED"  // no decision was made durable
)

func (a Answer) decided() bool { return a == Commit || a == Abort }

// History is what a run showed of its transactions, in the order the
// caller saw it: votes, nodes' decisions, durable journal records,
// acks and status answers (each tagged with the restart epoch it was
// given in) and parent → child links. Check tests it against the five
// rules. A History is not safe for concurrent use.
type History struct {
	txns       map[string]*txnRecord
	order      []string // ids in the order first recorded
	seq, epoch int
}

type txnRecord struct {
	id        string
	noVote    bool
	journaled bool
	durable   int      // seq of the first durable record; 0 while none
	facts     []fact   // every record of a decision, in order
	answers   []answer // acks and status answers, in order
	children  []string
}

// fact is one record of a decision (COMMIT or ABORT) and who made it.
type fact struct {
	a   Answer
	who string
}

type answer struct {
	a          Answer
	kind       string // "ack" or "status"
	epoch, seq int
}

func (a answer) String() string { return fmt.Sprintf("%s %q (epoch %d)", a.kind, a.a, a.epoch) }

// NewHistory returns an empty history at epoch 0.
func NewHistory() *History {
	return &History{txns: map[string]*txnRecord{}}
}

func (h *History) txn(id string) *txnRecord {
	t := h.txns[id]
	if t == nil {
		t = &txnRecord{id: id}
		h.txns[id] = t
		h.order = append(h.order, id)
	}
	h.seq++
	return t
}

// Votes records the votes cast on id.
func (h *History) Votes(id string, yes ...bool) {
	t := h.txn(id)
	t.noVote = t.noVote || slices.Contains(yes, false)
}

// Decide records node's decision on id; DecisionNone records nothing.
func (h *History) Decide(id string, node int, d types.Decision) {
	if d != types.DecisionNone {
		t := h.txn(id)
		t.facts = append(t.facts, fact{Answer(d.String()), fmt.Sprintf("node %d", node)})
	}
}

// Journaled marks id as a transaction whose decision goes to a journal:
// durability then requires a Durable record before any decided answer.
func (h *History) Journaled(id string) { h.txn(id).journaled = true }

// Durable records that a journal holds id's decision d durably: the
// fsync covering its record resolved. DecisionNone records nothing.
func (h *History) Durable(id string, d types.Decision) {
	if d != types.DecisionNone {
		t := h.txn(id)
		t.durable = cmp.Or(t.durable, h.seq)
		t.facts = append(t.facts, fact{Answer(d.String()), "the journal"})
	}
}

// Ack records the answer a client's request for id returned.
func (h *History) Ack(id string, a Answer) { h.answer(id, a, "ack") }

// Status records a status query's answer for id.
func (h *History) Status(id string, a Answer) { h.answer(id, a, "status") }

func (h *History) answer(id string, a Answer, kind string) {
	t := h.txn(id)
	an := answer{a, kind, h.epoch, h.seq}
	t.answers = append(t.answers, an)
	if a.decided() {
		t.facts = append(t.facts, fact{a, an.String()})
	}
}

// Link records that parent's outcome is the commit of its children.
func (h *History) Link(parent string, children ...string) {
	h.txn(parent).children = append(h.txn(parent).children, children...)
	for _, c := range children {
		h.txn(c)
	}
}

// Restart starts a new epoch: what follows was answered by a restarted
// deployment.
func (h *History) Restart() { h.epoch++ }

// Check tests the history against the five rules and returns the first
// violation of each broken rule, in the order of the rule constants;
// nil when the history keeps them all.
func (h *History) Check() []*Violation {
	var out []*Violation
	rules := []string{RuleConsistency, RuleValidity, RuleStability, RuleDurability, RuleCommitOfCommits}
	for i, check := range []func(*txnRecord) string{consistent, valid, stable, durable, h.commitOfCommits} {
		for _, id := range h.order {
			if detail := check(h.txns[id]); detail != "" {
				out = append(out, &Violation{Condition: rules[i], Detail: detail})
				break
			}
		}
	}
	return out
}

// decision is t's decided answer: its first fact's, Unknown if none.
func (t *txnRecord) decision() Answer {
	if len(t.facts) == 0 {
		return Unknown
	}
	return t.facts[0].a
}

func consistent(t *txnRecord) string {
	for _, f := range t.facts {
		if first := t.facts[0]; f.a != first.a {
			return fmt.Sprintf("txn %s: %s says %s, %s says %s", t.id, first.who, first.a, f.who, f.a)
		}
	}
	return ""
}

func valid(t *txnRecord) string {
	for _, f := range t.facts {
		if t.noVote && f.a == Commit {
			return fmt.Sprintf("txn %s: %s says COMMIT despite a NO vote", t.id, f.who)
		}
	}
	return ""
}

func stable(t *txnRecord) string {
	var decided, failed *answer
	for i := range t.answers {
		a := &t.answers[i]
		switch {
		case a.kind == "ack" && !a.a.decided() && a.a != Timeout && a.a != Failed:
			return fmt.Sprintf("txn %s: %v is not a final answer", t.id, a)
		case decided != nil && a.a != decided.a:
			return fmt.Sprintf("txn %s: %v, then %v", t.id, decided, a)
		case failed != nil && failed.epoch == a.epoch && a.a != Failed && a.a != Unknown:
			return fmt.Sprintf("txn %s: %v, then %v", t.id, failed, a)
		case a.a.decided():
			decided = a
		case a.kind == "ack" && a.a == Failed:
			failed = a
		}
	}
	return ""
}

func durable(t *txnRecord) string {
	for _, a := range t.answers {
		if t.journaled && a.a.decided() && (t.durable == 0 || a.seq < t.durable) {
			return fmt.Sprintf("txn %s: %v before its decision was durable", t.id, a)
		}
		if a.kind == "ack" && a.a == Timeout && t.durable != 0 && a.seq > t.durable {
			return fmt.Sprintf("txn %s: %v hides its durable decision %s", t.id, a, t.decision())
		}
	}
	return ""
}

func (h *History) commitOfCommits(t *txnRecord) string {
	aborted := false
	for _, c := range t.children {
		d := h.txns[c].decision()
		if t.decision() == Commit && d != Commit {
			return fmt.Sprintf("txn %s committed but child %s decided %q", t.id, c, d)
		}
		aborted = aborted || d == Abort
	}
	if t.decision() == Abort && len(t.children) > 0 && !aborted {
		return fmt.Sprintf("txn %s aborted but no child of %v aborted", t.id, t.children)
	}
	return ""
}
