package wal

import (
	"encoding/binary"

	"repro/internal/types"
)

// This file is the node protocol journal: the Record codec over the
// segmented log. A NodeSpec.JournalPath names its directory.

// protocolCodec folds protocol Records into a State — the SnapshotCodec
// for node journals. Its snapshot payload is:
//
//	[u8 flags][u8 vote][u8 input][u8 decision][u16 coinCount][coins]
//
// with flag bits 1=hasVote, 2=hasInput, 4=decided, 8=hasCoins.
type protocolCodec struct {
	st State
}

func (c *protocolCodec) Apply(payload []byte) error {
	r, err := decodePayload(payload)
	if err != nil {
		return err
	}
	c.st.Apply(r)
	return nil
}

func (c *protocolCodec) EncodeSnapshot() []byte {
	var flags byte
	if c.st.HasVote {
		flags |= 1
	}
	if c.st.HasInput {
		flags |= 2
	}
	if c.st.Decided {
		flags |= 4
	}
	if c.st.Coins != nil {
		flags |= 8
	}
	out := make([]byte, 6+len(c.st.Coins))
	out[0] = flags
	out[1] = byte(c.st.Vote)
	out[2] = byte(c.st.Input)
	out[3] = byte(c.st.Decision)
	binary.LittleEndian.PutUint16(out[4:6], uint16(len(c.st.Coins)))
	for i, v := range c.st.Coins {
		out[6+i] = byte(v)
	}
	return out
}

func (c *protocolCodec) RestoreSnapshot(data []byte) error {
	if len(data) < 6 {
		return ErrCorrupt
	}
	count := int(binary.LittleEndian.Uint16(data[4:6]))
	if len(data) != 6+count {
		return ErrCorrupt
	}
	var st State
	flags := data[0]
	if flags&1 != 0 {
		st.HasVote, st.Vote = true, types.Value(data[1])
	}
	if flags&2 != 0 {
		st.HasInput, st.Input = true, types.Value(data[2])
	}
	if flags&4 != 0 {
		st.Decided, st.Decision = true, types.Value(data[3])
	}
	if flags&8 != 0 {
		st.Coins = make([]types.Value, count)
		for i := 0; i < count; i++ {
			st.Coins[i] = types.Value(data[6+i])
		}
	}
	c.st = st
	return nil
}

// NodeLog is a node's protocol journal. It implements RecordAppender for
// LoggedCommit.
type NodeLog struct {
	seg *SegmentedLog
}

// OpenNodeLog opens and replays the journal in opts.FS, or, when that is
// nil, in the directory at path (created if absent). It returns the open
// log, the reconstructed protocol state, and whether the journal held
// any prior participation (records or a snapshot). Zero-value opts is
// fine for node journals.
func OpenNodeLog(path string, opts SegmentedOptions) (*NodeLog, State, bool, error) {
	if opts.FS == nil {
		fs, err := NewDirFS(path)
		if err != nil {
			return nil, State{}, false, err
		}
		opts.FS = fs
	}
	if opts.Name == "" {
		opts.Name = "node"
	}
	codec := &protocolCodec{}
	seg, err := OpenSegmented(codec, opts)
	if err != nil {
		return nil, State{}, false, err
	}
	// codec.st is stable here: the writer goroutine only mutates it when
	// appends arrive, and nobody holds the handle yet.
	st := codec.st
	replay := seg.ReplayStats()
	return &NodeLog{seg: seg}, st, replay.Records > 0 || replay.SnapshotSeq > 0, nil
}

// Append journals one record. A decision record is durable on return
// (one group-commit flush covers every concurrent decision); the others
// ride along asynchronously.
func (n *NodeLog) Append(r Record) error {
	payload, err := encodePayload(r)
	if err != nil {
		return err
	}
	if r.Type == RecordDecision {
		return n.seg.AppendSync(payload)
	}
	return n.seg.Append(payload, nil)
}

// Stats reports the segmented log's counters.
func (n *NodeLog) Stats() SegStats { return n.seg.Stats() }

// Close seals and closes the journal. Safe on a nil receiver.
func (n *NodeLog) Close() error {
	if n == nil {
		return nil
	}
	return n.seg.Close()
}
