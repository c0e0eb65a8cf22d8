package protocol

import (
	"fmt"
	"strings"

	"repro/internal/adversary"
	"repro/internal/chaos"
	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/types"
)

// AdvKind names a scheduling adversary for arena runs.
type AdvKind string

// The arena adversaries: deterministic round-robin (the benign lockstep
// baseline) plus the random asynchronous model with three delay
// distributions. The random kinds cap delays at 2K, inside every
// protocol's timeout budget, so the arena stays in the admissible regime
// where wrong answers are unconditionally bugs.
const (
	AdvRoundRobin AdvKind = "rr"
	AdvExp        AdvKind = "exp"
	AdvPareto     AdvKind = "pareto"
	AdvUniform    AdvKind = "uniform"
)

// AdvKinds lists the arena adversaries in canonical order.
func AdvKinds() []AdvKind {
	return []AdvKind{AdvRoundRobin, AdvExp, AdvPareto, AdvUniform}
}

// newAdversary builds the inner scheduling adversary for one run.
func newAdversary(kind AdvKind, seed uint64, k int) (sim.Adversary, error) {
	switch kind {
	case AdvRoundRobin:
		return &adversary.RoundRobin{}, nil
	case AdvExp:
		return &adversary.RandomAsync{Seed: seed, Dist: adversary.DistExponential, Mean: 3, Cap: 2 * k}, nil
	case AdvPareto:
		return &adversary.RandomAsync{Seed: seed, Dist: adversary.DistPareto, Mean: 3, Alpha: 1.5, Cap: 2 * k}, nil
	case AdvUniform:
		return &adversary.RandomAsync{Seed: seed, Dist: adversary.DistUniform, Mean: 3, Cap: 2 * k}, nil
	default:
		return nil, fmt.Errorf("protocol: unknown adversary kind %q", kind)
	}
}

// Run is one protocol × plan × adversary execution, classified by the
// shared auditor.
type Run struct {
	Protocol string
	Shape    chaos.Shape
	Adv      AdvKind
	Seed     uint64

	// Class is "commit", "abort", or "blocked"; Wrong trumps all three.
	Class   string
	Wrong   bool
	Decided bool
	// InDoubt counts live machines the protocol classifies as blocked
	// (stuck with no timeout rule).
	InDoubt int
	// Rounds is the largest clock at which a nonfaulty processor decided
	// (-1 if none decided). Msgs and Bits count everything sent.
	Rounds int
	Msgs   int
	Bits   int
	// Violations holds the auditor's findings, empty when the run passed.
	Violations []string
}

// logLine renders the run as one byte-stable audit-log line.
func (r Run) logLine() string {
	checks := "ok"
	if len(r.Violations) > 0 {
		checks = "FAIL{" + strings.Join(r.Violations, "; ") + "}"
	}
	return fmt.Sprintf("run proto=%s shape=%s adv=%s seed=%d class=%s rounds=%d msgs=%d bits=%d indoubt=%d checks=%s",
		r.Protocol, r.Shape, r.Adv, r.Seed, r.Class, r.Rounds, r.Msgs, r.Bits, r.InDoubt, checks)
}

// RunOne executes one protocol under one plan and adversary kind and
// audits the result. The auditor is identical for every protocol —
// agreement, abort validity, commit validity — except for termination,
// where MayBlock() protocols are permitted to block (their documented
// failure mode) while the nonblocking protocols must decide on every
// t-admissible plan.
func RunOne(p Protocol, plan *chaos.Plan, kind AdvKind, k, maxSteps int) (Run, error) {
	n := plan.Cfg.N
	votes := types.Values(plan.Votes)
	inner, err := newAdversary(kind, plan.Cfg.Seed, k)
	if err != nil {
		return Run{}, err
	}
	adv, err := chaos.NewSimAdversary(plan, inner)
	if err != nil {
		return Run{}, err
	}
	// 3PC's per-phase timeout is pinned to 8K — comfortably beyond the
	// arena's fault horizon and capped delays — so that inside the arena's
	// admissible envelope its timeout presumptions are sound.
	res, machines, err := p.Run(Instance{
		N: n, T: plan.Cfg.T, K: k, Votes: votes, Seed: plan.Cfg.Seed, Timeout: 8 * k,
	}, adv, maxSteps)
	if err != nil {
		return Run{}, err
	}

	r := Run{
		Protocol: p.Name(), Shape: plan.Cfg.Shape, Adv: kind, Seed: plan.Cfg.Seed,
		Decided: res.AllNonfaultyDecided(),
		Rounds:  -1,
	}
	st := res.Trace.Stats()
	r.Msgs, r.Bits = st.Sent, st.TotalBits

	outcomes := res.Outcomes()
	if err := trace.CheckAgreement(outcomes); err != nil {
		r.Violations = append(r.Violations, err.Error())
	}
	if err := trace.CheckAbortValidity(votes, outcomes); err != nil {
		r.Violations = append(r.Violations, err.Error())
	}
	if err := trace.CheckCommitValidity(votes, outcomes, res.FailureFree(), res.Trace.OnTime()); err != nil {
		r.Violations = append(r.Violations, err.Error())
	}
	if !r.Decided && !p.MayBlock() {
		r.Violations = append(r.Violations,
			fmt.Sprintf("termination: %s failed to decide on a t-admissible plan", p.Name()))
	}
	for i, m := range machines {
		if !res.Crashed[i] && p.Blocked(m) {
			r.InDoubt++
		}
	}

	r.Wrong = len(r.Violations) > 0
	switch {
	case r.Wrong:
		r.Class = "wrong"
	case !r.Decided:
		r.Class = "blocked"
	default:
		r.Rounds = res.MaxDecidedClock()
		r.Class = "abort"
		for i := 0; i < n; i++ {
			if res.Decided[i] && !res.Crashed[i] {
				if res.Values[i] == types.V1 {
					r.Class = "commit"
				}
				break
			}
		}
	}
	if r.Decided {
		r.Rounds = res.MaxDecidedClock()
	}
	return r, nil
}

// Options parameterizes an arena sweep. Zero values take defaults chosen
// so the full default sweep runs in seconds.
type Options struct {
	// N is the cluster size (default 5); K the timing constant (default
	// 12, which puts every protocol timeout beyond the fault horizon).
	N, K int
	// Seeds is the number of plan seeds per shape (default 12), starting
	// at BaseSeed (default 1).
	Seeds    int
	BaseSeed uint64
	// Shapes defaults to every non-restart chaos shape; Advs to rr, exp,
	// pareto; Protocols to All().
	Shapes    []chaos.Shape
	Advs      []AdvKind
	Protocols []Protocol
	// MaxSteps bounds each run (default 20000 events).
	MaxSteps int
	// Workers parallelizes the sweep (default 1); results are
	// byte-identical at any worker count.
	Workers int
}

func (o *Options) defaults() {
	if o.N == 0 {
		o.N = 5
	}
	if o.K == 0 {
		o.K = 12
	}
	if o.Seeds == 0 {
		o.Seeds = 12
	}
	if o.BaseSeed == 0 {
		o.BaseSeed = 1
	}
	if len(o.Shapes) == 0 {
		o.Shapes = []chaos.Shape{chaos.ShapeClean, chaos.ShapeLossy, chaos.ShapeChurn, chaos.ShapePartition, chaos.ShapeCrash}
	}
	if len(o.Advs) == 0 {
		o.Advs = []AdvKind{AdvRoundRobin, AdvExp, AdvPareto}
	}
	if len(o.Protocols) == 0 {
		o.Protocols = All()
	}
	if o.MaxSteps == 0 {
		o.MaxSteps = 20_000
	}
	if o.Workers == 0 {
		o.Workers = 1
	}
}

// Result is a full arena sweep: every classified run, the aggregate
// per-protocol table, and a byte-stable audit log.
type Result struct {
	Runs  []Run
	Table *stats.Table
	// Log is one line per run plus a summary, byte-identical for a given
	// Options at any worker count.
	Log string
	// Wrong counts runs with auditor violations (must be 0 — any wrong
	// answer is a failure for every protocol).
	Wrong int
	// Blocked counts blocked runs per protocol name.
	Blocked map[string]int
}

// Sweep races the protocols across shapes × seeds × adversaries under
// identical plans and audits every run.
func Sweep(opts Options) (*Result, error) {
	opts.defaults()

	type combo struct {
		proto Protocol
		shape chaos.Shape
		adv   AdvKind
		seed  uint64
	}
	var combos []combo
	for _, p := range opts.Protocols {
		for _, shape := range opts.Shapes {
			for _, adv := range opts.Advs {
				for s := 0; s < opts.Seeds; s++ {
					combos = append(combos, combo{p, shape, adv, opts.BaseSeed + uint64(s)})
				}
			}
		}
	}

	runs, err := parallel.Map(len(combos), opts.Workers, func(i int) (Run, error) {
		c := combos[i]
		plan, err := chaos.NewPlan(chaos.PlanConfig{Seed: c.seed, N: opts.N, Shape: c.shape})
		if err != nil {
			return Run{}, err
		}
		return RunOne(c.proto, plan, c.adv, opts.K, opts.MaxSteps)
	})
	if err != nil {
		return nil, err
	}

	res := &Result{Runs: runs, Blocked: make(map[string]int)}
	var log strings.Builder
	fmt.Fprintf(&log, "arena n=%d k=%d seeds=%d base=%d shapes=%s advs=%s protos=%s\n",
		opts.N, opts.K, opts.Seeds, opts.BaseSeed,
		joinShapes(opts.Shapes), joinAdvs(opts.Advs), joinProtos(opts.Protocols))
	for _, r := range runs {
		log.WriteString(r.logLine())
		log.WriteByte('\n')
		if r.Wrong {
			res.Wrong++
		}
		if r.Class == "blocked" {
			res.Blocked[r.Protocol]++
		}
	}

	// Aggregate per (protocol, shape, adversary), in combo order.
	type key struct {
		proto string
		shape chaos.Shape
		adv   AdvKind
	}
	type agg struct {
		runs, commit, abort, blocked, wrong int
		rounds, msgs, bits                  []float64
	}
	var order []key
	groups := make(map[key]*agg)
	for _, r := range runs {
		k := key{r.Protocol, r.Shape, r.Adv}
		g, ok := groups[k]
		if !ok {
			g = &agg{}
			groups[k] = g
			order = append(order, k)
		}
		g.runs++
		switch r.Class {
		case "commit":
			g.commit++
		case "abort":
			g.abort++
		case "blocked":
			g.blocked++
		case "wrong":
			g.wrong++
		}
		if r.Decided {
			g.rounds = append(g.rounds, float64(r.Rounds))
		}
		g.msgs = append(g.msgs, float64(r.Msgs))
		g.bits = append(g.bits, float64(r.Bits))
	}
	table := stats.NewTable("protocol", "shape", "adv", "runs", "commit", "abort", "blocked", "wrong", "rounds", "msgs", "bits")
	for _, k := range order {
		g := groups[k]
		table.AddRow(k.proto, string(k.shape), string(k.adv),
			g.runs, g.commit, g.abort, g.blocked, g.wrong,
			fmt.Sprintf("%.1f", stats.Mean(g.rounds)),
			fmt.Sprintf("%.1f", stats.Mean(g.msgs)),
			fmt.Sprintf("%.1f", stats.Mean(g.bits)))
	}
	res.Table = table

	fmt.Fprintf(&log, "summary runs=%d wrong=%d blocked=%s\n", len(runs), res.Wrong, blockedSummary(opts.Protocols, res.Blocked))
	res.Log = log.String()
	return res, nil
}

func joinShapes(shapes []chaos.Shape) string {
	parts := make([]string, len(shapes))
	for i, s := range shapes {
		parts[i] = string(s)
	}
	return strings.Join(parts, ",")
}

func joinAdvs(advs []AdvKind) string {
	parts := make([]string, len(advs))
	for i, a := range advs {
		parts[i] = string(a)
	}
	return strings.Join(parts, ",")
}

func joinProtos(protos []Protocol) string {
	parts := make([]string, len(protos))
	for i, p := range protos {
		parts[i] = p.Name()
	}
	return strings.Join(parts, ",")
}

func blockedSummary(protos []Protocol, blocked map[string]int) string {
	parts := make([]string, len(protos))
	for i, p := range protos {
		parts[i] = fmt.Sprintf("%s:%d", p.Name(), blocked[p.Name()])
	}
	return strings.Join(parts, ",")
}
