package chaos

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
	"repro/internal/types"
)

// Injector turns a Plan into a live message interceptor: install Decide
// as transport.HubOptions.Inject.
//
// The injector maps wall time onto plan ticks (tick = elapsed/tickEvery,
// clock armed by Arm or the first Decide) for the schedule-shaped faults
// (partitions, horizon), and counts messages per directed link for the
// per-message verdicts — the k-th message on a link always receives the
// plan's k-th verdict for that link, whatever the goroutine interleaving.
type Injector struct {
	plan      *Plan
	tickEvery time.Duration

	armOnce sync.Once
	start   atomic.Int64 // wall-clock nanos at arm time

	counters []atomic.Uint64 // n*n per-link send counters

	// injected tallies, for reporting (not part of the canonical audit
	// log: live counts vary run to run).
	drops, dups, delays, holds atomic.Uint64
}

// NewInjector builds an interceptor for plan with the given tick length.
func NewInjector(p *Plan, tickEvery time.Duration) *Injector {
	if tickEvery <= 0 {
		tickEvery = time.Millisecond
	}
	return &Injector{
		plan:      p,
		tickEvery: tickEvery,
		counters:  make([]atomic.Uint64, p.Cfg.N*p.Cfg.N),
	}
}

// Arm starts the injector's clock. Decide arms implicitly on first use;
// call Arm right before Cluster.Start for a tighter tick alignment.
func (in *Injector) Arm() {
	in.armOnce.Do(func() { in.start.Store(time.Now().UnixNano()) })
}

// Tick returns the current plan tick.
func (in *Injector) Tick() int {
	in.Arm()
	return int(time.Duration(time.Now().UnixNano()-in.start.Load()) / in.tickEvery)
}

// Decide implements the interceptor: one verdict per message.
//
// "Drop" and partition-cut verdicts withhold the message until the fault
// window closes instead of discarding it: the formal model's t-admissible
// runs eventually deliver every guaranteed message, and the protocols
// deliberately carry no retransmission layer, so a permanent discard
// would step outside the model the liveness theorems cover. Within the
// window the two are observationally identical to the protocol.
func (in *Injector) Decide(msg types.Message) transport.Fault {
	tick := in.Tick()
	if blocked, heal := in.plan.partitionHeal(msg.From, msg.To, tick); blocked {
		in.drops.Add(1)
		return transport.Fault{Delay: time.Duration(heal-tick+1) * in.tickEvery}
	}
	if tick >= in.plan.Cfg.Horizon {
		return transport.Fault{} // past the horizon the network is clean
	}
	n := in.plan.Cfg.N
	from, to := int(msg.From), int(msg.To)
	if from < 0 || from >= n || to < 0 || to >= n {
		return transport.Fault{}
	}
	k := in.counters[from*n+to].Add(1) - 1
	drop, dups, delayTicks := in.plan.linkFault(msg.From, msg.To, k)
	switch {
	case drop:
		in.drops.Add(1)
		return transport.Fault{Delay: time.Duration(in.plan.Cfg.Horizon-tick+1) * in.tickEvery}
	case dups > 0:
		in.dups.Add(1)
		return transport.Fault{Duplicates: dups}
	case delayTicks > 0:
		if delayTicks == 1 {
			in.holds.Add(1)
		} else {
			in.delays.Add(1)
		}
		return transport.Fault{Delay: time.Duration(delayTicks) * in.tickEvery}
	default:
		return transport.Fault{}
	}
}

// Stats reports how many faults the injector actually applied (drops
// counts withheld messages — loss verdicts and partition cuts; holds are
// the one-tick reorder swaps).
func (in *Injector) Stats() (drops, dups, delays, holds uint64) {
	return in.drops.Load(), in.dups.Load(), in.delays.Load(), in.holds.Load()
}
