package wal

import (
	"encoding/binary"
	"fmt"

	"repro/internal/types"
)

// This file is the commit service's decision journal: one segmented log
// per service recording every transaction's terminal decision, replayed
// on restart so a restarted commitd still answers status queries for —
// and never contradicts — transactions it acked before dying.
//
// A record is one agreement batch: its members' ids and their decision
// vector, written once, when the batch has decided (Gray & Lamport's
// point that the consensus instance is itself the durable record). The
// journal keeps the newest DecisionWindow members in journal order; an
// older member falls out of the window as a newer one is applied, which
// is what bounds the snapshots, and hence the compacted log.
//
// Record payload:
//
//	[u8 3][u16 count] then count × [u8 decision][u16 len][id]
//
// Replay still reads the two record kinds older journals hold:
//
//	[u8 1][u8 decision][id bytes]   decide: one member's decision
//	[u8 2][id bytes]                retire: read, and ignored
//
// Snapshot payload: [u32 count] then count × [u8 decision][u16 len][id],
// the window oldest first. (Older journals wrote it sorted by id; it
// restores the same way.)

// DecisionWindow is W, the one retention window of the serving stack:
// the decision journal keeps its newest W members, the service's status
// table answers for at most W finished transactions, the coordinator keeps
// W finished cross-shard transactions, and a transaction manager's
// straggler guard keeps each retired batch's id for at least W later
// retired members (txn.TombstoneCap).
//
// W is large enough for the journal because every answer given from it
// is among its newest W members. A group appends each of its batches
// once, and its status table takes the members in from the record's done
// callback, in journal order; so does a cross-shard outcome the
// coordinator journals in the group its id routes to (Service.Record).
// The table also holds timed-out and failed members the journal never
// saw, which only makes it evict sooner. So a member the table still
// answers has fewer than W newer journal members. The coordinator answers
// a cross outcome it handed over only while that group's table still holds it.
const DecisionWindow = 1 << 16

const (
	opDecide byte = 1 // older journals only
	opRetire byte = 2 // older journals only
	opBatch  byte = 3
)

// encodeBatch serializes one batch record: ids[i] decided decs[i].
func encodeBatch(ids []string, decs []types.Decision) ([]byte, error) {
	if len(ids) != len(decs) || len(ids) > 1<<16-1 {
		return nil, fmt.Errorf("wal: a batch of %d ids and %d decisions does not fit a record", len(ids), len(decs))
	}
	// One allocation for ids up to 29 bytes, which service ids are.
	out := binary.LittleEndian.AppendUint16(append(make([]byte, 0, 3+32*len(ids)), opBatch), uint16(len(ids)))
	for i, id := range ids {
		if len(id) > 1<<16-1 || !decided(decs[i]) {
			return nil, fmt.Errorf("wal: member %q deciding %v does not fit a record", id, decs[i])
		}
		out = appendMember(out, id, decs[i])
	}
	return out, nil
}

// appendMember appends one [u8 decision][u16 len][id] member, the layout
// a batch record and a snapshot share.
func appendMember(dst []byte, id string, d types.Decision) []byte {
	dst = append(dst, byte(d))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(id)))
	return append(dst, id...)
}

// readMembers decodes count members from data, which they must fill
// exactly, calling fn for each. An implausible count is rejected before
// anything is read: every member needs at least 3 bytes.
func readMembers(data []byte, count int, fn func(id string, d types.Decision)) error {
	if count > len(data)/3 {
		return fmt.Errorf("%w: %d members in %d bytes", ErrCorrupt, count, len(data))
	}
	off := 0
	for i := 0; i < count; i++ {
		if off+3 > len(data) || !decided(types.Decision(data[off])) {
			return fmt.Errorf("%w: member %d of %d", ErrCorrupt, i, count)
		}
		d, n := types.Decision(data[off]), int(binary.LittleEndian.Uint16(data[off+1:off+3]))
		if off += 3; off+n > len(data) {
			return ErrCorrupt
		}
		fn(string(data[off:off+n]), d)
		off += n
	}
	if off != len(data) {
		return ErrCorrupt
	}
	return nil
}

func decided(d types.Decision) bool {
	return d == types.DecisionAbort || d == types.DecisionCommit
}

// member is one journaled decision in the window.
type member struct {
	id string
	d  types.Decision
}

// decisionCodec folds records into the window: the newest `window`
// members in journal order, oldest at head. An id journaled twice inside
// the window has two members there; its newest is its answer.
type decisionCodec struct {
	window int
	fifo   []member
	head   int
}

// add appends one member and drops the oldest past the window.
func (c *decisionCodec) add(id string, d types.Decision) {
	c.fifo = append(c.fifo, member{id, d})
	if len(c.fifo)-c.head > c.window {
		c.fifo[c.head] = member{}
		c.head++
	}
	if c.head*2 > len(c.fifo) {
		c.fifo = append(c.fifo[:0:0], c.fifo[c.head:]...)
		c.head = 0
	}
}

func (c *decisionCodec) Apply(payload []byte) error {
	if len(payload) < 1 {
		return ErrCorrupt
	}
	switch payload[0] {
	case opBatch:
		// A corrupt record fails the open, so a half-folded one is never
		// seen: no need to decode it whole first.
		if len(payload) < 3 {
			return ErrCorrupt
		}
		return readMembers(payload[3:], int(binary.LittleEndian.Uint16(payload[1:3])), c.add)
	case opDecide:
		if len(payload) < 2 || !decided(types.Decision(payload[1])) {
			return fmt.Errorf("%w: decide record %x", ErrCorrupt, payload)
		}
		c.add(string(payload[2:]), types.Decision(payload[1]))
	case opRetire:
		// An older journal's retire record: the window drops old members
		// by itself, and the retired id's decision is still its answer.
	default:
		return fmt.Errorf("%w: unknown decision op %d", ErrCorrupt, payload[0])
	}
	return nil
}

func (c *decisionCodec) EncodeSnapshot() []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(c.fifo)-c.head))
	for _, m := range c.fifo[c.head:] {
		out = appendMember(out, m.id, m.d)
	}
	return out
}

func (c *decisionCodec) RestoreSnapshot(data []byte) error {
	if len(data) < 4 {
		return ErrCorrupt
	}
	fresh := &decisionCodec{window: c.window}
	if err := readMembers(data[4:], int(binary.LittleEndian.Uint32(data[:4])), fresh.add); err != nil {
		return err
	}
	*c = *fresh
	return nil
}

// DecisionLog is a segmented journal of transaction decisions; the
// segmented log's ReplayStats, FsyncLatency, Err, Close and Kill are its
// own.
type DecisionLog struct {
	*SegmentedLog
	recovered map[string]types.Decision
	order     []string
}

// OpenDecisionLog opens (creating if needed) the decision journal in
// opts.FS, replaying snapshot + suffix into the recovered window.
func OpenDecisionLog(opts SegmentedOptions) (*DecisionLog, error) {
	return openDecisionLog(opts, DecisionWindow)
}

func openDecisionLog(opts SegmentedOptions, window int) (*DecisionLog, error) {
	if opts.Name == "" {
		opts.Name = "decisions"
	}
	codec := &decisionCodec{window: window}
	seg, err := OpenSegmented(codec, opts)
	if err != nil {
		return nil, err
	}
	// The codec is stable here (no appends can have been issued), but
	// copy it: the writer goroutine owns it from the first append.
	dl := &DecisionLog{SegmentedLog: seg, recovered: make(map[string]types.Decision, len(codec.fifo)-codec.head)}
	for _, m := range codec.fifo[codec.head:] {
		dl.recovered[m.id] = m.d // the newest member of an id is its answer
		dl.order = append(dl.order, m.id)
	}
	return dl, nil
}

// Recovered is the decision map replayed at open: the window the
// previous process left. The caller owns the map (it is never mutated
// after open).
func (d *DecisionLog) Recovered() map[string]types.Decision { return d.recovered }

// RecoveredOrder lists the window's members by id in journal order,
// oldest first; an id journaled twice inside the window appears twice.
func (d *DecisionLog) RecoveredOrder() []string { return d.order }

// AppendBatch journals one decided batch, ids[i] having decided decs[i],
// as one record; done fires once, on the journal's notifier goroutine and
// in journal order, when the covering group-commit fsync resolves (nil
// error = every decision durable). The writer forces the next group
// meanwhile. Callers ack clients from done — never before — and done
// must not call back into the journal.
func (d *DecisionLog) AppendBatch(ids []string, decs []types.Decision, done func(error)) error {
	payload, err := encodeBatch(ids, decs)
	if err != nil {
		return err
	}
	return d.SegmentedLog.Append(payload, done)
}

// Append journals id's decision as a batch of one.
func (d *DecisionLog) Append(id string, dec types.Decision, done func(error)) error {
	return d.AppendBatch([]string{id}, []types.Decision{dec}, done)
}

// AppendSync journals id's decision as a batch of one and blocks until
// it is durable.
func (d *DecisionLog) AppendSync(id string, dec types.Decision) error {
	payload, err := encodeBatch([]string{id}, []types.Decision{dec})
	if err != nil {
		return err
	}
	return d.SegmentedLog.AppendSync(payload)
}
