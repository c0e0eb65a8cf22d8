package wal

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/types"
)

// This file is the commit service's decision journal: one segmented log
// per service recording every transaction's terminal decision, replayed
// on restart so a restarted commitd still answers status queries for —
// and never contradicts — transactions it acked before dying. Retire
// records are the tombstone-retirement half: once a transaction's
// status has aged out of the service, a retire record drops it from the
// snapshot state, which is what lets compaction actually shrink the
// log instead of the snapshot growing forever.
//
// Record payloads:
//
//	[u8 1][u8 decision][id bytes]   decide: id's terminal decision
//	[u8 2][id bytes]                retire: id's entry is done with
//
// Snapshot payload: [u32 count] then count × [u8 decision][u16 len][id],
// sorted by id so identical states encode identically.

const (
	opDecide byte = 1
	opRetire byte = 2
)

// EncodeDecision serializes a decide record payload.
func EncodeDecision(id string, d types.Decision) []byte {
	out := make([]byte, 2+len(id))
	out[0] = opDecide
	out[1] = byte(d)
	copy(out[2:], id)
	return out
}

// EncodeRetire serializes a retire record payload.
func EncodeRetire(id string) []byte {
	out := make([]byte, 1+len(id))
	out[0] = opRetire
	copy(out[1:], id)
	return out
}

// decisionCodec folds decide/retire records into the live decision map.
type decisionCodec struct {
	m map[string]types.Decision
}

func (c *decisionCodec) Apply(payload []byte) error {
	if len(payload) < 1 {
		return ErrCorrupt
	}
	switch payload[0] {
	case opDecide:
		if len(payload) < 2 {
			return ErrCorrupt
		}
		d := types.Decision(payload[1])
		if d != types.DecisionAbort && d != types.DecisionCommit {
			return fmt.Errorf("%w: impossible decision %d", ErrCorrupt, d)
		}
		c.m[string(payload[2:])] = d
	case opRetire:
		delete(c.m, string(payload[1:]))
	default:
		return fmt.Errorf("%w: unknown decision op %d", ErrCorrupt, payload[0])
	}
	return nil
}

func (c *decisionCodec) EncodeSnapshot() []byte {
	ids := make([]string, 0, len(c.m))
	for id := range c.m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	size := 4
	for _, id := range ids {
		size += 3 + len(id)
	}
	out := make([]byte, 4, size)
	binary.LittleEndian.PutUint32(out, uint32(len(ids)))
	for _, id := range ids {
		out = append(out, byte(c.m[id]))
		out = binary.LittleEndian.AppendUint16(out, uint16(len(id)))
		out = append(out, id...)
	}
	return out
}

func (c *decisionCodec) RestoreSnapshot(data []byte) error {
	if len(data) < 4 {
		return ErrCorrupt
	}
	count := int(binary.LittleEndian.Uint32(data[:4]))
	// Every entry needs at least 3 bytes; reject an implausible count
	// before trusting it as an allocation size.
	if count > (len(data)-4)/3 {
		return fmt.Errorf("%w: snapshot claims %d entries in %d bytes", ErrCorrupt, count, len(data))
	}
	m := make(map[string]types.Decision, count)
	off := 4
	for i := 0; i < count; i++ {
		if off+3 > len(data) {
			return ErrCorrupt
		}
		d := types.Decision(data[off])
		if d != types.DecisionAbort && d != types.DecisionCommit {
			return fmt.Errorf("%w: impossible decision %d", ErrCorrupt, d)
		}
		n := int(binary.LittleEndian.Uint16(data[off+1 : off+3]))
		off += 3
		if off+n > len(data) {
			return ErrCorrupt
		}
		m[string(data[off:off+n])] = d
		off += n
	}
	if off != len(data) {
		return ErrCorrupt
	}
	c.m = m
	return nil
}

// DecisionLog is a segmented journal of transaction decisions.
type DecisionLog struct {
	seg       *SegmentedLog
	recovered map[string]types.Decision
}

// OpenDecisionLog opens (creating if needed) the decision journal in
// opts.FS, replaying snapshot + suffix into the recovered decision map.
func OpenDecisionLog(opts SegmentedOptions) (*DecisionLog, error) {
	if opts.Name == "" {
		opts.Name = "decisions"
	}
	codec := &decisionCodec{m: make(map[string]types.Decision)}
	seg, err := OpenSegmented(codec, opts)
	if err != nil {
		return nil, err
	}
	// The codec map is stable here (no appends can have been issued),
	// but copy it: the writer goroutine owns it from the first append.
	recovered := make(map[string]types.Decision, len(codec.m))
	for id, d := range codec.m {
		recovered[id] = d
	}
	return &DecisionLog{seg: seg, recovered: recovered}, nil
}

// Recovered is the decision map replayed at open: every transaction
// that was decided-and-not-yet-retired when the previous process died.
// The caller owns the map (it is never mutated after open).
func (d *DecisionLog) Recovered() map[string]types.Decision { return d.recovered }

// Append journals id's terminal decision; done fires once the covering
// group-commit fsync resolves (nil error = decision durable). Callers
// ack clients from done — never before.
func (d *DecisionLog) Append(id string, dec types.Decision, done func(error)) error {
	return d.seg.Append(EncodeDecision(id, dec), done)
}

// AppendSync journals id's decision and blocks until durable.
func (d *DecisionLog) AppendSync(id string, dec types.Decision) error {
	return d.seg.AppendSync(EncodeDecision(id, dec))
}

// Retire journals that id's decision no longer needs to be recoverable
// (its status aged out). Asynchronous: retirement is an optimization
// (it shrinks future snapshots), not a correctness event.
func (d *DecisionLog) Retire(id string) error {
	return d.seg.Append(EncodeRetire(id), nil)
}

// Stats exposes the underlying segmented log's counters.
func (d *DecisionLog) Stats() SegStats { return d.seg.Stats() }

// ReplayStats reports what recovery replayed at open.
func (d *DecisionLog) ReplayStats() ReplayStats { return d.seg.ReplayStats() }

// FsyncLatency snapshots the cumulative fsync-duration histogram
// (seconds); nil without a Registry.
func (d *DecisionLog) FsyncLatency() []obs.Bucket { return d.seg.FsyncLatency() }

// Err returns the sticky poison error, if the log has failed.
func (d *DecisionLog) Err() error { return d.seg.Err() }

// Close drains, seals, and closes the journal.
func (d *DecisionLog) Close() error { return d.seg.Close() }

// Kill abandons the journal without flushing (simulated kill -9).
func (d *DecisionLog) Kill() { d.seg.Kill() }
