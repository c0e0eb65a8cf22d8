// Package protocol is the repository's one name table: it maps the seven
// protocol names the simulator, the experiments and the arena accept to
// machine sets, so a name means the same protocol everywhere.
//
//	protocol2    the paper's Protocol 2 (randomized commit)
//	p1           Protocol 1, agreement with the shared coin list of §3.1
//	benor        plain Ben-Or agreement (local coins)
//	2pc          two-phase commit, blocking participants (safe)
//	2pc-timeout  two-phase commit, presume-abort on timeout (E7's unsafe variant)
//	3pc          three-phase commit
//	paxos        Gray–Lamport Paxos Commit
//
// Four of them solve transaction commit (All) and race in the "protocol
// arena" of EXPERIMENTS.md under identical seeded fault plans and
// adversaries. That makes the paper's Theorem 11 claim falsifiable:
// every protocol runs under the *same* chaos.Plan, the same adversary,
// the same invariant auditor. What differs per protocol is only the
// *expectation*: 2PC and 3PC are allowed to block (MayBlock), because
// blocking is their documented failure mode; a wrong answer is a failure
// for everyone.
package protocol

import (
	"fmt"
	"strings"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/paxoscommit"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/threepc"
	"repro/internal/twopc"
	"repro/internal/types"
)

// Instance describes one run's cluster: n processors with a crash budget
// t and timing constant K, voting Votes (the initial values, for the two
// agreement protocols).
type Instance struct {
	N, T, K int
	Votes   []types.Value
	// CoinFactor c gives the protocols that share coins c·n of them
	// (Remark 3): protocol2's coordinator flips them, p1's list is drawn
	// from Seed. Zero means 1.
	CoinFactor int
	// Seed seeds a Run's processors (and p1's coin list).
	Seed uint64
	// Timeout is 3PC's per-phase wait in clock ticks; zero takes the
	// protocol's 4K default.
	Timeout int
}

func (in Instance) validate() error {
	if in.N < 1 {
		return fmt.Errorf("protocol: N must be >= 1, got %d", in.N)
	}
	if in.K < 1 {
		return fmt.Errorf("protocol: K must be >= 1, got %d", in.K)
	}
	if len(in.Votes) != in.N {
		return fmt.Errorf("protocol: %d votes for %d processors", len(in.Votes), in.N)
	}
	if in.T < 0 || 2*in.T >= in.N {
		return fmt.Errorf("protocol: need 0 <= T < N/2, got N=%d T=%d", in.N, in.T)
	}
	if in.CoinFactor < 0 {
		return fmt.Errorf("protocol: negative coin factor %d", in.CoinFactor)
	}
	return nil
}

// Protocol is one row of the name table.
type Protocol struct {
	name     string
	build    func(in Instance) ([]types.Machine, error)
	blocked  func(m types.Machine) bool
	commit   bool
	mayBlock bool
	coins    bool
}

// Name is the canonical short name used in tables and flags.
func (p Protocol) Name() string { return p.name }

// New constructs the n machines for one instance (processor 0
// coordinates, matching every protocol in this repository).
func (p Protocol) New(in Instance) ([]types.Machine, error) {
	if err := in.validate(); err != nil {
		return nil, err
	}
	return p.build(in)
}

// Run builds the instance's machines and runs them once under adv,
// recording the trace; the processors draw their randomness from in.Seed.
// The machines come back for Blocked and stage inspection.
func (p Protocol) Run(in Instance, adv sim.Adversary, maxSteps int) (*sim.Result, []types.Machine, error) {
	machines, err := p.New(in)
	if err != nil {
		return nil, nil, err
	}
	res, err := sim.Run(sim.Config{
		K: in.K, Machines: machines, Adversary: adv,
		Seeds:    rng.NewCollection(in.Seed, in.N),
		MaxSteps: maxSteps, Record: true,
	})
	return res, machines, err
}

// Blocked classifies one of this protocol's machines (as returned by
// New) as stuck in a state the protocol itself cannot leave — in doubt
// with no timeout rule. Undecided-but-live states (still retrying,
// awaiting a takeover) are not blocked; the randomized protocols have no
// blocked state at all — an undecided processor always makes
// probabilistic progress.
func (p Protocol) Blocked(m types.Machine) bool { return p.blocked != nil && p.blocked(m) }

// SolvesCommit reports whether the protocol solves transaction commit
// (abort validity included) and so may enter the arena; p1 and benor
// solve agreement only.
func (p Protocol) SolvesCommit() bool { return p.commit }

// MayBlock is the auditor expectation: true if blocking is this
// protocol's documented failure mode (2PC, 3PC), false if failing to
// terminate on a t-admissible run is a bug (Paxos Commit, Protocol 2).
func (p Protocol) MayBlock() bool { return p.mayBlock }

// TakesCoins reports whether Instance.CoinFactor means anything to it.
func (p Protocol) TakesCoins() bool { return p.coins }

// set builds the instance's machines through one protocol's constructor.
func set[M types.Machine](in Instance, mk func(id types.ProcID, vote types.Value) (M, error)) ([]types.Machine, error) {
	ms, err := types.NewSet(in.N, func(id types.ProcID) (M, error) { return mk(id, in.Votes[id]) })
	return types.Machines(ms), err
}

func twoPC(policy twopc.Policy) func(Instance) ([]types.Machine, error) {
	return func(in Instance) ([]types.Machine, error) {
		return set(in, func(id types.ProcID, vote types.Value) (*twopc.Machine, error) {
			return twopc.New(twopc.Config{ID: id, N: in.N, K: in.K, Vote: vote, Policy: policy})
		})
	}
}

func agreementSet(in Instance, coins agreement.CoinSource) ([]types.Machine, error) {
	ms, err := agreement.NewSet(agreement.Config{N: in.N, T: in.T, Coins: coins, Gadget: true}, in.Votes)
	return types.Machines(ms), err
}

// table lists every name in help-text order; the four that solve commit
// stand in the order the arena's tables print them.
var table = []Protocol{
	// 2pc never answers wrongly, and pays for it by blocking whenever the
	// coordinator dies between vote collection and the outcome broadcast.
	{name: "2pc", commit: true, mayBlock: true, build: twoPC(twopc.PolicyBlock),
		blocked: func(m types.Machine) bool { return m.(*twopc.Machine).Blocked() }},
	{name: "2pc-timeout", build: twoPC(twopc.PolicyTimeoutAbort)},
	// 3pc is unsafe in principle (uncapped lateness flips its answer, as
	// E7 shows); the arena pins its timeout beyond its fault horizon.
	{name: "3pc", commit: true, mayBlock: true,
		build: func(in Instance) ([]types.Machine, error) {
			return set(in, func(id types.ProcID, vote types.Value) (*threepc.Machine, error) {
				return threepc.New(threepc.Config{ID: id, N: in.N, K: in.K, Vote: vote, Timeout: in.Timeout})
			})
		},
		blocked: func(m types.Machine) bool { return m.(*threepc.Machine).Blocked() }},
	// paxos is nonblocking for t < n/2 like Protocol 2, deterministic
	// unlike it, and Θ(n²) messages heavier than 2PC.
	{name: "paxos", commit: true,
		build: func(in Instance) ([]types.Machine, error) {
			return set(in, func(id types.ProcID, vote types.Value) (*paxoscommit.Machine, error) {
				return paxoscommit.New(paxoscommit.Config{ID: id, N: in.N, T: in.T, K: in.K, Vote: vote})
			})
		},
		blocked: func(m types.Machine) bool { return m.(*paxoscommit.Machine).Blocked() }},
	{name: "protocol2", commit: true, coins: true,
		build: func(in Instance) ([]types.Machine, error) {
			ms, err := core.NewSet(core.Config{N: in.N, T: in.T, K: in.K, CoinFactor: in.CoinFactor, Gadget: true}, in.Votes)
			return types.Machines(ms), err
		}},
	{name: "p1", coins: true,
		build: func(in Instance) ([]types.Machine, error) {
			c := max(in.CoinFactor, 1)
			return agreementSet(in, agreement.ListCoin{Coins: rng.NewStream(in.Seed ^ 0xC0175).Bits(c * in.N)})
		}},
	{name: "benor",
		build: func(in Instance) ([]types.Machine, error) { return agreementSet(in, agreement.LocalCoin{}) }},
}

// All returns the four protocols that solve transaction commit, in
// canonical table order.
func All() []Protocol {
	var out []Protocol
	for _, p := range table {
		if p.commit {
			out = append(out, p)
		}
	}
	return out
}

// Names lists every name in the table, "|"-separated, for help and
// error text.
func Names() string {
	names := make([]string, len(table))
	for i, p := range table {
		names[i] = p.name
	}
	return strings.Join(names, "|")
}

// ByName resolves a protocol by its canonical name.
func ByName(name string) (Protocol, error) {
	for _, p := range table {
		if p.name == name {
			return p, nil
		}
	}
	return Protocol{}, fmt.Errorf("protocol: unknown protocol %q (want %s)", name, Names())
}
