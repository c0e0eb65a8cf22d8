package txn

import (
	"fmt"
	"sort"
	"strconv"

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
	// its batch to the link span without building a string; it never
	// reaches the wire, and a decoded frame has none.
	key string
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

// SizeBits implements types.Sized: inner payload, a 64-bit batch id
// hash, and a 64-bit id hash per member.
func (e BatchEnvelope) SizeBits() int {
	return types.SizeOf(e.Inner) + 64 + 64*len(e.Txns)
}

// binstance tracks one batched commit machine plus the lifecycle
// metadata the retirement policy needs, the milestones' edge-detection
// state (each protocol milestone is recorded once per instance), and the
// per-element reporting bitmap that fans batch decisions back out to
// transactions.
type binstance struct {
	id   BatchID
	c    *core.BatchCommit
	txns []ID
	idx  map[ID]int
	key  string // trace/span key: "batch:<id>"

	// inbox is the frames demultiplexed to this instance since it last
	// advanced.
	inbox []types.Message

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

	// reportedElems[i] marks member i's outcome as already fanned out.
	reportedElems []bool
	doneCounted   bool // txn_batches_decided_total incremented
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
	vals := make([]types.Value, len(txns))
	for i, v := range votes {
		if v {
			vals[i] = types.V1
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, exists := m.batches[batch]; exists {
		return fmt.Errorf("txn: batch %q already known", batch)
	}
	if _, done := m.retiredBatches[batch]; done {
		return fmt.Errorf("txn: batch %q already finished", batch)
	}
	if err := m.spawnBatchLocked(batch, txns, vals, m.cfg.ID, m.Clock()); err != nil {
		return err
	}
	// The GO flood need not wait for a tick.
	m.markFreshLocked(m.batches[batch])
	return nil
}

// spawnBatchLocked creates the batched commit instance and registers its
// members for id-keyed lookups. Caller holds mu.
func (m *Manager) spawnBatchLocked(batch BatchID, txns []ID, votes []types.Value, coordinator types.ProcID, tick int) error {
	c, err := core.NewBatch(core.BatchConfig{
		ID: m.cfg.ID, N: m.cfg.N, T: m.cfg.T, K: m.cfg.K,
		Votes: votes, CoinFactor: m.cfg.CoinFactor,
		Coordinator: coordinator,
	})
	if err != nil {
		return err
	}
	members := make([]ID, len(txns))
	copy(members, txns)
	idx := make(map[ID]int, len(members))
	for i, id := range members {
		idx[id] = i
	}
	bi := &binstance{
		id: batch, c: c, txns: members, idx: idx, key: obs.BatchKey(string(batch)),
		seq: m.spawned, born: tick, haltedAt: -1,
		round: 1, roundStartClock: tick, roundStartU: m.cfg.Spans.Now(),
		reportedElems: make([]bool, len(members)),
	}
	m.batches[batch] = bi
	m.running = append(m.running, bi)
	for _, id := range members {
		m.members[id] = batch
	}
	m.spawned++
	m.met.started.Add(uint64(len(members)))
	return nil
}

// joinBatchLocked spawns the participant side of a batch first heard of
// from the wire, computing this node's vote vector from cfg.Vote. Caller
// holds mu.
func (m *Manager) joinBatchLocked(env BatchEnvelope, coordinator types.ProcID, tick int) error {
	if len(env.Txns) == 0 {
		return fmt.Errorf("txn: batch %q frame carries no members", env.Batch)
	}
	votes := make([]types.Value, len(env.Txns))
	for i, id := range env.Txns {
		votes[i] = types.V1
		if m.cfg.Vote != nil && !m.cfg.Vote(id) {
			votes[i] = types.V0
		}
	}
	return m.spawnBatchLocked(env.Batch, env.Txns, votes, coordinator, tick)
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
				m.mark(bi.key, span.EventGoSent, tick, fmt.Sprintf("coins=%d fanout=%d", len(p.Coins), m.cfg.N))
			}
		case core.BatchVoteMsg:
			if !bi.voteSent {
				bi.voteSent = true
				m.mark(bi.key, span.EventVoteCast, tick, "votes="+strconv.Itoa(len(p.Vals)))
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
	if m.cfg.Spans == nil || bi.spanDone {
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
	detail := append(make([]byte, 0, 32), "ticks "...)
	detail = strconv.AppendInt(detail, int64(bi.roundStartClock), 10)
	detail = append(detail, ".."...)
	detail = strconv.AppendInt(detail, int64(tick), 10)
	m.cfg.Spans.Add(span.Span{
		Txn: bi.key, Track: m.track,
		Name: "round " + strconv.Itoa(bi.round), Kind: span.KindRound,
		Start: bi.roundStartU, End: now, From: -1, To: -1,
		Detail: string(detail),
	})
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
	var retire []*binstance
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
			bi.inbox = nil // emptied by its last advance; demux adds no more
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
	return out, decidedNow
}

// advanceLocked is the one per-instance transition, behind both Step
// (ticked: the instance's clock advances) and Deliver (it does not): run
// the machine on its inbox, wrap its output in BatchEnvelope frames, and
// fan member outcomes out individually as their elements decide. Caller
// holds mu.
func (m *Manager) advanceLocked(bi *binstance, tick int, ticked bool, rnd types.Rand, out []types.Message, decidedNow []Outcome) ([]types.Message, []Outcome) {
	// Only a running machine gets here: a tick skips the halted and demux
	// drops their frames.
	var sub []types.Message
	if ticked {
		sub = bi.c.Step(bi.inbox, rnd)
	} else {
		sub = bi.c.Deliver(bi.inbox, rnd)
	}
	if m.cfg.Spans != nil {
		m.markBatchOutputsLocked(bi, sub, tick)
		if ag := bi.c.Agreement(); ag != nil {
			if st := ag.Stage(); st != bi.lastStage {
				bi.lastStage = st
				m.mark(bi.key, span.EventStage, tick, "stage="+strconv.Itoa(st))
			}
		}
	}
	// One envelope box per broadcast: its n frames carry the same inner
	// payload and share the wrapped one.
	var lastInner, lastEnv types.Payload
	for j := range sub {
		if p := sub[j].Payload; lastInner == nil || !core.SamePayload(p, lastInner) {
			lastInner = p
			lastEnv = BatchEnvelope{Batch: bi.id, Txns: bi.txns, Inner: p, key: bi.key}
		}
		sub[j].Payload = lastEnv
	}
	out = append(out, sub...)
	// The inbox is consumed (its slice is reused).
	bi.inbox = bi.inbox[:0]

	roundClosed := false
	for i, txn := range bi.txns {
		if bi.reportedElems[i] {
			continue
		}
		d, ok := bi.c.OutcomeAt(i)
		if !ok {
			continue
		}
		bi.reportedElems[i] = true
		if d == types.DecisionCommit {
			m.met.committed.Inc()
		} else {
			m.met.aborted.Inc()
		}
		m.met.rounds.Observe(float64(tick - bi.born))
		if m.cfg.Spans != nil {
			if !roundClosed {
				m.spanBatchRoundLocked(bi, tick, true)
				roundClosed = true
			}
			// The member's marker names its batch so a per-transaction
			// view can follow it to the rounds and links that decided it.
			now := m.cfg.Spans.Now()
			m.cfg.Spans.Add(span.Span{
				Txn: string(txn), Track: m.track,
				Name: "decided", Kind: span.KindStage, Start: now, End: now,
				From: -1, To: -1, Detail: "decision=" + d.String() + " " + obs.BatchDetail(string(bi.id)),
			})
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

// retireLocked removes finished (or abandoned) instances, leaving a
// per-member decision tombstone — DecisionOf keeps answering through the
// members index — and evicts the oldest batches' tombstones past
// TombstoneCap members. The caller has already unlisted them and holds mu.
func (m *Manager) retireLocked(tick int, gone []*binstance) {
	for _, bi := range gone {
		for i, txn := range bi.txns {
			d, decided := bi.c.OutcomeAt(i)
			if decided {
				m.met.retired.Inc()
				if m.cfg.Spans != nil {
					m.mark(string(txn), span.EventRetired, tick, "")
				}
			} else {
				d = types.DecisionNone
				m.met.abandoned.Inc()
				if m.cfg.Spans != nil {
					m.mark(string(txn), span.EventAbandoned, tick, "")
				}
			}
			m.retired[txn] = d
		}
		m.retiredBatches[bi.id] = bi.txns
		m.retiredOrder = append(m.retiredOrder, bi.id)
		m.retiredMembers += len(bi.txns)
		delete(m.batches, bi.id)
	}

	for m.retiredMembers > TombstoneCap {
		old := m.retiredOrder[0]
		m.retiredOrder = m.retiredOrder[1:] // append reallocates past the popped prefix
		m.retiredMembers -= len(m.retiredBatches[old])
		for _, txn := range m.retiredBatches[old] {
			// A member a later batch reused keeps that batch's entries.
			if m.members[txn] == old {
				delete(m.members, txn)
				delete(m.retired, txn)
			}
		}
		delete(m.retiredBatches, old)
	}
}
