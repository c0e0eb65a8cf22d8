package explore

import (
	"fmt"

	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/types"
)

// Action is one scheduler decision in the explored tree: processor Proc
// steps and receives a canonical slice of its buffer.
type Action struct {
	Proc types.ProcID
	// Mode selects what is delivered.
	Mode DeliveryMode
}

// DeliveryMode enumerates the canonical delivery choices the explorer
// branches over. Delivering arbitrary subsets is exponential; these three
// modes preserve the interesting behaviours (starvation, batch delivery,
// one-at-a-time reordering) while keeping the branching factor at 3n.
type DeliveryMode int

// The canonical delivery modes.
const (
	// DeliverNone steps the processor with an empty message set (timeout
	// progress).
	DeliverNone DeliveryMode = iota
	// DeliverAll drains the buffer.
	DeliverAll
	// DeliverOldest delivers exactly the oldest buffered message.
	DeliverOldest
)

// String implements fmt.Stringer.
func (m DeliveryMode) String() string {
	switch m {
	case DeliverNone:
		return "none"
	case DeliverAll:
		return "all"
	case DeliverOldest:
		return "oldest"
	default:
		return fmt.Sprintf("DeliveryMode(%d)", int(m))
	}
}

// ExploreConfig parameterizes a bounded breadth-first exploration.
type ExploreConfig struct {
	Factory types.Factory
	N       int
	K       int
	Seed    uint64
	Votes   []types.Value
	// MaxDepth bounds the action-sequence length explored.
	MaxDepth int
	// MaxStates caps distinct configurations visited (0: 20000).
	MaxStates int
	// Workers bounds the goroutines used to expand each BFS level: 0
	// means GOMAXPROCS, negative means serial. The result is identical
	// at any worker count: candidates are replayed concurrently but
	// deduplicated and counted in canonical candidate order.
	Workers int
}

// ExploreResult reports a bounded exploration.
type ExploreResult struct {
	StatesVisited int
	Expanded      int
	Truncated     bool // hit MaxStates or MaxDepth before exhausting
	// ViolationPath is the action sequence reaching the first safety
	// violation (nil if none found within bounds).
	ViolationPath []Action
	// Violation describes the violated condition.
	Violation string
	// DecidedStates counts visited configurations in which at least one
	// processor has decided.
	DecidedStates int
}

// allModes is the canonical branching order of the explorer.
var allModes = [...]DeliveryMode{DeliverNone, DeliverAll, DeliverOldest}

// expansion is one replayed candidate of a BFS level.
type expansion struct {
	skip      bool   // inapplicable branch (replay refused)
	fp        string // configuration fingerprint
	violation string // non-empty if the configuration violates safety
	decided   bool
}

// Explore performs memoized BFS over the canonical scheduler choices,
// auditing every reachable configuration against the agreement and abort
// validity conditions. Paths are replayed from the initial configuration
// (machines are not cloneable), so the cost is O(states × depth).
//
// The search is level-synchronous: all candidates of a BFS level are
// replayed and fingerprinted across cfg.Workers goroutines (the dominant
// cost), then merged serially in canonical (parent, processor, mode)
// order against the deduplication set. Because the merge order is fixed
// and the set is only read during expansion, the result — including
// counters, truncation, and the first violation path — is byte-identical
// at any worker count.
func Explore(cfg ExploreConfig) (*ExploreResult, error) {
	if cfg.MaxStates == 0 {
		cfg.MaxStates = 20_000
	}
	res := &ExploreResult{}
	seen := parallel.NewStringSet()

	root, err := replay(cfg, nil)
	if err != nil {
		return nil, err
	}
	fp, err := root.Fingerprint()
	if err != nil {
		return nil, err
	}
	seen.Add(fp)
	res.StatesVisited = 1
	frontier := [][]Action{nil}
	branching := cfg.N * len(allModes)

	for depth := 0; len(frontier) > 0; depth++ {
		if depth >= cfg.MaxDepth {
			res.Truncated = true
			return res, nil
		}
		// Expand every candidate of this level concurrently. Workers
		// only read the dedup set (a per-level snapshot: it is mutated
		// exclusively by the serial merge below), so a candidate already
		// seen at an earlier level skips its audit; same-level duplicates
		// are caught by the merge.
		exps, err := parallel.Map(len(frontier)*branching, cfg.Workers, func(i int) (expansion, error) {
			parent, act := frontier[i/branching], actionOf(cfg.N, i%branching)
			eng, err := replay(cfg, append(parent[:len(parent):len(parent)], act))
			if err != nil {
				// Inapplicable branch (e.g. DeliverOldest on an empty
				// buffer is folded into DeliverNone and skipped).
				return expansion{skip: true}, nil
			}
			fp, err := eng.Fingerprint()
			if err != nil {
				return expansion{}, err
			}
			if seen.Has(fp) {
				return expansion{fp: fp}, nil
			}
			return expansion{fp: fp, violation: audit(cfg, eng), decided: anyDecided(eng)}, nil
		})
		if err != nil {
			return nil, err
		}
		// Merge in canonical order; this is the only mutation of seen.
		var next [][]Action
		for j := range frontier {
			res.Expanded++
			for b := 0; b < branching; b++ {
				e := exps[j*branching+b]
				if e.skip || !seen.Add(e.fp) {
					continue
				}
				res.StatesVisited++
				if e.violation != "" {
					res.Violation = e.violation
					res.ViolationPath = append(append([]Action(nil), frontier[j]...), actionOf(cfg.N, b))
					return res, nil
				}
				if e.decided {
					res.DecidedStates++
				}
				if res.StatesVisited >= cfg.MaxStates {
					res.Truncated = true
					return res, nil
				}
				next = append(next, append(append([]Action(nil), frontier[j]...), actionOf(cfg.N, b)))
			}
		}
		frontier = next
	}
	return res, nil
}

// actionOf maps a branch index in [0, n*len(allModes)) to its canonical
// action: processors in order, each with modes in allModes order.
func actionOf(n, branch int) Action {
	return Action{Proc: types.ProcID(branch / len(allModes)), Mode: allModes[branch%len(allModes)]}
}

// replay builds a fresh engine and applies the action path. It returns an
// error for non-canonical branches so they are skipped.
func replay(cfg ExploreConfig, path []Action) (*sim.Engine, error) {
	machines, err := cfg.Factory()
	if err != nil {
		return nil, err
	}
	eng, err := sim.NewEngine(sim.Config{
		K: cfg.K, Machines: machines,
		Adversary: nopAdversary{},
		Seeds:     rng.NewCollection(cfg.Seed, cfg.N),
	})
	if err != nil {
		return nil, err
	}
	for _, a := range path {
		pending := eng.Pending(a.Proc)
		var deliver []int
		switch a.Mode {
		case DeliverAll:
			if len(pending) == 0 {
				return nil, errSkipBranch
			}
			deliver = pending
		case DeliverOldest:
			if len(pending) < 2 {
				// With 0 pending it duplicates DeliverNone; with exactly 1
				// it duplicates DeliverAll.
				return nil, errSkipBranch
			}
			deliver = pending[:1]
		}
		if err := eng.Apply(sim.Choice{Proc: a.Proc, Deliver: deliver}); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

var errSkipBranch = fmt.Errorf("explore: redundant branch")

// nopAdversary satisfies sim.Config; the explorer drives Apply directly.
type nopAdversary struct{}

func (nopAdversary) Next(*sim.View) sim.Choice { return sim.Choice{Proc: 0} }

// audit checks the safety conditions on the engine's current result.
func audit(cfg ExploreConfig, eng *sim.Engine) string {
	outs := eng.Result().Outcomes()
	if err := trace.CheckAgreement(outs); err != nil {
		return err.Error()
	}
	if err := trace.CheckAbortValidity(cfg.Votes, outs); err != nil {
		return err.Error()
	}
	return ""
}

func anyDecided(eng *sim.Engine) bool {
	r := eng.Result()
	for p := 0; p < r.N; p++ {
		if r.Decided[p] {
			return true
		}
	}
	return false
}
