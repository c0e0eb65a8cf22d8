package txn

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/types"
)

// BatchID names a batched agreement instance. Batches get their own id
// space, apart from their members'.
type BatchID string

// BatchEnvelope wraps a batched Protocol 2 payload with its batch id and
// the member transactions, in vector order. The member list rides on
// every frame so a node joining the batch mid-flight can compute its own
// vote vector (the batch analogue of the piggybacked GO making the
// transaction joinable from any protocol message).
type BatchEnvelope struct {
	Batch BatchID
	Txns  []ID
	Inner types.Payload

	// key is the sending instance's trace key, so a frame built here names
	// its batch to the link span without building a string, and untraced
	// marks a frame of an instance the collector does not trace, so the
	// hub lays down no link span for it. Neither reaches the wire: a
	// decoded frame has no key and counts as traced.
	key      string
	untraced bool
}

// Kind implements types.Payload. The five payloads a batch instance sends
// get a constant; anything else is named by concatenation.
func (e BatchEnvelope) Kind() string {
	if e.Inner == nil {
		return "txnb.envelope"
	}
	switch k := e.Inner.Kind(); k {
	case "tc.go":
		return "txnb:tc.go"
	case "tc.bvote":
		return "txnb:tc.bvote"
	case "ag.vreport":
		return "txnb:ag.vreport"
	case "ag.vproposal":
		return "txnb:ag.vproposal"
	case "ag.vdecided":
		return "txnb:ag.vdecided"
	default:
		return "txnb:" + k
	}
}

// TxnID exposes a stable trace key for link-span attribution; batch
// frames are attributed to the batch, not a member.
func (e BatchEnvelope) TxnID() string {
	if e.key != "" {
		return e.key
	}
	return obs.BatchKey(string(e.Batch))
}

// Untraced reports that the frame's instance is not traced
// (span.Collector.Traced): the hub skips its link span.
func (e BatchEnvelope) Untraced() bool { return e.untraced }

// SizeBits implements types.Sized: inner payload, a 64-bit batch id
// hash, and a 64-bit id hash per member.
func (e BatchEnvelope) SizeBits() int {
	return types.SizeOf(e.Inner) + 64 + 64*len(e.Txns)
}

// binstance tracks one batched commit machine plus the lifecycle
// metadata the retirement policy needs, the milestones' edge-detection
// state (each protocol milestone is recorded once per instance), and the
// members' decisions as they fan out to transactions. The machine is held
// by value, so spawning an instance allocates the instance and a few
// vectors, not a machine apiece.
type binstance struct {
	id BatchID
	c  core.BatchCommit
	// txns holds the members in vector order and decisions[i] member i's
	// decision once fanned out (DecisionNone before).
	txns      []ID
	decisions []types.Decision
	// traced is decided once, at spawn: the instance is traced if the
	// collector traces any member, which every node computes alike from
	// the member list. An untraced instance records nothing and has no
	// key; a traced one records under key, "batch:<id>".
	traced bool
	key    string

	// inbox is the frames demultiplexed to this instance in the current
	// Step or Deliver: a window of the manager's inbox buffer, nil between
	// calls. routed counts them while demux lays the windows out.
	inbox  []types.Message
	routed int

	seq      int // creation order among this manager's instances
	born     int // manager clock at spawn
	haltedAt int // manager clock when first seen halted; -1 while running

	goRecv    bool // explicit GO received (marked)
	goSent    bool // GO broadcast/relayed (marked)
	voteSent  bool // vote vector broadcast (marked)
	lastStage int  // last Protocol 1 stage seen (stage transitions marked)

	round           int   // current asynchronous round (1-based, span-tracked)
	roundStartClock int   // manager clock when the current round began
	lastRecvClock   int   // manager clock of the last frame receipt
	roundStartU     int64 // collector clock when the current round began
	spanDone        bool  // every member decided; stop round tracking

	fresh bool // queued in Manager.fresh

	doneCounted bool // txn_batches_decided_total incremented
}

// BeginBatch starts one batched agreement instance deciding all of txns
// at once, with this node as coordinator. votes[i] is this node's vote
// for txns[i]. The ids must be fresh: not in flight and not retired
// in another batch.
func (m *Manager) BeginBatch(batch BatchID, txns []ID, votes []bool) error {
	if len(txns) == 0 {
		return fmt.Errorf("txn: batch %q has no members", batch)
	}
	if len(votes) != len(txns) {
		return fmt.Errorf("txn: batch %q has %d members but %d votes", batch, len(txns), len(votes))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, exists := m.batches[batch]; exists {
		return fmt.Errorf("txn: batch %q already known", batch)
	}
	if m.retired.has(batch) {
		return fmt.Errorf("txn: batch %q already finished", batch)
	}
	vals := m.voteScratchLocked(len(txns))
	for i, v := range votes {
		if v {
			vals[i] = types.V1
		}
	}
	// The caller may reuse txns; the instance's copy goes out on every frame.
	members := append([]ID(nil), txns...)
	bi, err := m.spawnBatchLocked(batch, members, vals, m.cfg.ID, m.Clock(), "")
	if err == nil {
		m.markFreshLocked(bi) // the GO flood need not wait for a tick
	}
	return err
}

// spawnBatchLocked creates the batched commit instance and, once the index
// is built, enters its members there. The instance keeps txns, which nothing
// writes again; votes is copied. key is the trace key a frame brought, or
// "" to build one if the instance is traced. Caller holds mu.
func (m *Manager) spawnBatchLocked(batch BatchID, txns []ID, votes []types.Value, coordinator types.ProcID, tick int, key string) (*binstance, error) {
	bi := &binstance{
		id:   batch,
		txns: txns, decisions: make([]types.Decision, len(txns)),
		seq: m.spawned, born: tick, haltedAt: -1,
		round: 1, roundStartClock: tick,
	}
	for _, id := range txns {
		if m.cfg.Spans.Traced(string(id)) {
			bi.traced = true
			break
		}
	}
	if bi.traced {
		if key == "" {
			key = obs.BatchKey(string(batch))
		}
		bi.key, bi.roundStartU = key, m.cfg.Spans.Now()
	}
	err := bi.c.Init(core.BatchConfig{
		ID: m.cfg.ID, N: m.cfg.N, T: m.cfg.T, K: m.cfg.K,
		Votes: votes, CoinFactor: m.cfg.CoinFactor,
		Coordinator: coordinator,
	})
	if err != nil {
		return nil, err
	}
	m.batches[batch] = bi
	m.running = append(m.running, bi)
	if m.index != nil {
		m.indexLocked(bi)
	}
	m.spawned++
	m.met.started.Add(uint64(len(txns)))
	return bi, nil
}

// joinBatchLocked spawns the participant side of a batch first heard of
// from the wire, computing this node's vote vector from cfg.Vote. A sent
// frame is never written again, so the instance shares its member list
// and, for a frame that never left the process, its trace key. Caller
// holds mu.
func (m *Manager) joinBatchLocked(env BatchEnvelope, coordinator types.ProcID, tick int) (*binstance, error) {
	if len(env.Txns) == 0 {
		return nil, fmt.Errorf("txn: batch %q frame carries no members", env.Batch)
	}
	votes := m.voteScratchLocked(len(env.Txns))
	for i, id := range env.Txns {
		votes[i] = types.V1
		if m.cfg.Vote != nil && !m.cfg.Vote(id) {
			votes[i] = types.V0
		}
	}
	return m.spawnBatchLocked(env.Batch, env.Txns, votes, coordinator, tick, env.key)
}

// voteScratchLocked returns the manager's vote-vector scratch, zeroed at
// width b; spawning copies it into the instance. Caller holds mu.
func (m *Manager) voteScratchLocked(b int) []types.Value {
	if cap(m.votes) < b {
		m.votes = make([]types.Value, b)
	}
	m.votes = m.votes[:b]
	clear(m.votes)
	return m.votes
}

// markBatchOutputsLocked records protocol milestones visible in an
// instance's outgoing burst: the GO broadcast/relay and the vote-vector
// broadcast, each once per instance under the batch key.
func (m *Manager) markBatchOutputsLocked(bi *binstance, sub []types.Message, tick int) {
	if bi.goSent && bi.voteSent {
		return
	}
	for i := range sub {
		inner, _ := core.Unwrap(sub[i].Payload)
		switch p := inner.(type) {
		case core.GoMsg:
			if !bi.goSent {
				bi.goSent = true
				m.cfg.Spans.MarkTick(bi.key, m.track, span.EventGoSent, tick, span.FigCoins, len(p.Coins), m.cfg.N)
			}
		case core.BatchVoteMsg:
			if !bi.voteSent {
				bi.voteSent = true
				m.cfg.Spans.MarkTick(bi.key, m.track, span.EventVoteCast, tick, span.FigVotes, len(p.Vals), 0)
			}
		}
		if bi.goSent && bi.voteSent {
			return
		}
	}
}

// spanBatchRoundLocked closes the instance's current asynchronous round
// span when the paper's §2.2 rule fires in manager-clock terms — the
// round ends K ticks after the later of its start and the last frame
// receipt — then opens the next round. force closes the in-progress
// round regardless (used when a member decides, so the member's decided
// marker has a finished round to follow). Caller holds mu.
func (m *Manager) spanBatchRoundLocked(bi *binstance, tick int, force bool) {
	if !bi.traced || bi.spanDone {
		return
	}
	deadline := bi.roundStartClock
	if bi.lastRecvClock > deadline {
		deadline = bi.lastRecvClock
	}
	if !force && tick < deadline+m.cfg.K {
		return
	}
	now := m.cfg.Spans.Now()
	m.cfg.Spans.AddRound(bi.key, m.track, bi.round, bi.roundStartClock, tick, bi.roundStartU, now)
	bi.round++
	bi.roundStartClock = tick
	bi.roundStartU = now
}

// stepRunningLocked is the body of a tick: retire what is due off the
// front of the halted FIFO, then advance every running instance one tick in
// creation order, pipelined — batch i+1's machine takes its round-r step in
// the same manager tick batch i takes round r+1's, so consecutive batches
// overlap instead of queueing behind one another. An instance found already
// halted is stamped and moved to the FIFO's back without being advanced: its
// members were all reported by the call that halted it. Caller holds mu.
func (m *Manager) stepRunningLocked(tick int, rnd types.Rand, out []types.Message, decidedNow []Outcome) ([]types.Message, []Outcome) {
	retire := m.retire[:0]
	if m.cfg.RetireAfter > 0 {
		// haltedAt never decreases along the FIFO: behind the first
		// instance not yet due, none is.
		for len(m.halted) > 0 && tick-m.halted[0].haltedAt >= m.cfg.RetireAfter {
			retire = append(retire, m.halted[0])
			m.halted[0] = nil
			m.halted = m.halted[1:] // append reallocates past the popped prefix
		}
	}
	due := len(retire)

	kept := m.running[:0]
	for _, bi := range m.running {
		// haltedAt is the first tick that finds the machine already halted.
		if bi.c.Halted() {
			bi.haltedAt = tick
			m.halted = append(m.halted, bi)
			continue
		}
		m.ticked++
		out, decidedNow = m.advanceLocked(bi, tick, true, rnd, out, decidedNow)
		m.spanBatchRoundLocked(bi, tick, false)
		if m.cfg.MaxAge > 0 && tick-bi.born >= m.cfg.MaxAge && !bi.c.Halted() {
			retire = append(retire, bi)
			continue
		}
		kept = append(kept, bi)
	}
	clear(m.running[len(kept):])
	m.running = kept

	if due > 0 && len(retire) > due {
		// Retired and abandoned in one tick: tombstones go down in creation
		// order, as when one walk over everything held found both.
		sort.Slice(retire, func(i, j int) bool { return retire[i].seq < retire[j].seq })
	}
	m.retireLocked(tick, retire)
	clear(retire)
	m.retire = retire[:0]
	return out, decidedNow
}

// advanceLocked is the one per-instance transition, behind both Step
// (ticked: the instance's clock advances) and Deliver (it does not): run
// the machine on its inbox, appending what it sends to out, wrap that in
// BatchEnvelope frames, and fan member outcomes out individually as their
// elements decide. Caller holds mu.
func (m *Manager) advanceLocked(bi *binstance, tick int, ticked bool, rnd types.Rand, out []types.Message, decidedNow []Outcome) ([]types.Message, []Outcome) {
	// Only a running machine gets here: a tick skips the halted and demux
	// drops their frames.
	start := len(out)
	if ticked {
		out = bi.c.AppendStep(out, bi.inbox, rnd)
	} else {
		out = bi.c.AppendDeliver(out, bi.inbox, rnd)
	}
	bi.inbox = nil // consumed; its window of the manager's buffer is reused
	sub := out[start:]
	if bi.traced {
		m.markBatchOutputsLocked(bi, sub, tick)
		if ag := bi.c.Agreement(); ag != nil {
			if st := ag.Stage(); st != bi.lastStage {
				bi.lastStage = st
				m.cfg.Spans.MarkTick(bi.key, m.track, span.EventStage, tick, span.FigStage, st, 0)
			}
		}
	}
	// One envelope box per broadcast: its n frames carry the same inner
	// payload and share the wrapped one.
	var lastInner, lastEnv types.Payload
	for j := range sub {
		if p := sub[j].Payload; lastInner == nil || !core.SamePayload(p, lastInner) {
			lastInner = p
			lastEnv = BatchEnvelope{Batch: bi.id, Txns: bi.txns, Inner: p, key: bi.key, untraced: !bi.traced}
		}
		sub[j].Payload = lastEnv
	}

	roundClosed := false
	for i, txn := range bi.txns {
		if bi.decisions[i] != types.DecisionNone {
			continue
		}
		d, ok := bi.c.OutcomeAt(i)
		if !ok {
			continue
		}
		bi.decisions[i] = d
		if d == types.DecisionCommit {
			m.met.committed.Inc()
		} else {
			m.met.aborted.Inc()
		}
		m.met.rounds.Observe(float64(tick - bi.born))
		if bi.traced {
			if !roundClosed {
				m.spanBatchRoundLocked(bi, tick, true)
				roundClosed = true
			}
			// The member's marker names its batch so a per-transaction
			// view can follow it to the rounds and links that decided it.
			// Only a traced member gets a marker of its own, though its
			// batch is traced for the sake of another member.
			if m.cfg.Spans.Traced(string(txn)) {
				m.cfg.Spans.MarkDecided(string(txn), m.track, d, string(bi.id))
			}
		}
		decidedNow = append(decidedNow, Outcome{Txn: txn, Decision: d})
	}
	if !bi.doneCounted && bi.c.DecidedCount() == bi.c.Width() {
		bi.doneCounted = true
		bi.spanDone = true
		m.met.batches.Inc()
	}
	return out, decidedNow
}

// retireLocked removes finished (or abandoned) instances, leaving only
// their batch ids in the guard, and takes their members out of the index
// if one is built. The caller has already unlisted them and holds mu.
func (m *Manager) retireLocked(tick int, gone []*binstance) {
	for _, bi := range gone {
		// Every decided member was fanned out by the advance that decided
		// it, so decisions is the machine's outcome vector.
		retired := 0
		for i, txn := range bi.txns {
			name := span.EventRetired
			if bi.decisions[i] != types.DecisionNone {
				retired++
			} else {
				name = span.EventAbandoned
			}
			if bi.traced && m.cfg.Spans.Traced(string(txn)) {
				m.cfg.Spans.MarkTick(string(txn), m.track, name, tick, span.FigTick, 0, 0)
			}
		}
		m.met.retired.Add(uint64(retired))
		m.met.abandoned.Add(uint64(len(bi.txns) - retired))
		delete(m.batches, bi.id)
		m.retired.add(bi.id, len(bi.txns))
		if m.index != nil {
			for _, txn := range bi.txns {
				if m.index[txn].bi == bi {
					delete(m.index, txn)
				}
			}
		}
	}
}
