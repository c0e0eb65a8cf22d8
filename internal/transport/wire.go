package transport

// Binary wire codec for the TCP transport's hot path.
//
// Frames are length-prefixed: a 4-byte big-endian length followed by one
// format byte and the body. The only format is 'B', the hand-rolled binary
// encoding below, covering every payload a live node sends: the batched
// Protocol 2 frames of txn.Manager and the recovery client's query and
// reply. The formal machines only the simulator runs (the scalar core.Commit
// and agreement.Machine, 2PC, 3PC, Paxos Commit) have no encoding. A payload
// without a tag is dropped by the sender; a frame with any other format byte
// is a corrupt stream and tears the connection down.
//
// The binary encoding is deliberately simple: zigzag varints for ints, one
// byte per Value, a one-byte type tag per payload. Piggyback and Envelope
// encode their inner payload recursively. The encoder appends into a
// per-connection scratch buffer, so the send path neither reflects nor
// allocates per message.

import (
	"encoding/binary"
	"fmt"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/recovery"
	"repro/internal/txn"
	"repro/internal/types"
)

// fmtBinary is the frame format byte.
const fmtBinary = 'B'

// RegisterWirePayloads does nothing: payloads are encoded by tag (see
// appendPayload), not by registration. It is kept only because the frozen
// bench/ program calls it; delete it when bench/ next changes.
func RegisterWirePayloads() {}

// maxFrameBytes bounds a single frame; larger length prefixes indicate a
// corrupt or hostile stream and tear the connection down.
const maxFrameBytes = 1 << 24

// maxPayloadDepth bounds recursive payload nesting during decode so a
// crafted frame cannot exhaust the stack.
const maxPayloadDepth = 32

// Payload type tags of the binary encoding. Append-only: tags are wire
// format and must never be renumbered. A reserved tag once named a payload
// that no live node sends any more; it decodes as a corrupt frame and is
// never reused.
const (
	tagNil byte = iota
	tagCoreGo
	_ // reserved: scalar core.VoteMsg
	tagCorePiggyback
	_ // reserved: scalar agreement.ReportMsg
	_ // reserved: scalar agreement.ProposalMsg
	_ // reserved: scalar agreement.DecidedMsg
	_ // reserved: 2PC prepare, vote, outcome
	_
	_
	_ // reserved: 3PC can-commit, vote, pre-commit, ack, do-commit, abort
	_
	_
	_
	_
	_
	tagTxnEnvelope
	tagRcQuery
	tagRcReply
	_ // reserved: Paxos Commit 1a, 1b, 2a, 2b, outcome
	_
	_
	_
	_
	tagCoreBatchVote
	tagAgVecReport
	tagAgVecProposal
	tagAgVecDecided
	tagTxnBatchEnvelope
)

// zigzag maps signed to unsigned so small negatives stay short varints.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func appendInt(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, zigzag(v))
}

func appendValues(dst []byte, vs []types.Value) []byte {
	dst = appendInt(dst, int64(len(vs)))
	for _, v := range vs {
		dst = append(dst, byte(v))
	}
	return dst
}

func appendBools(dst []byte, bs []bool) []byte {
	dst = appendInt(dst, int64(len(bs)))
	for _, b := range bs {
		c := byte(0)
		if b {
			c = 1
		}
		dst = append(dst, c)
	}
	return dst
}

// appendMessage appends the binary body of msg (format fmtBinary, without
// the frame header). ok is false when the payload — or a nested inner
// payload — has no binary encoding; the caller must then drop the message
// and discard anything appended here.
func appendMessage(dst []byte, msg types.Message) (_ []byte, ok bool) {
	dst = appendInt(dst, int64(msg.From))
	dst = appendInt(dst, int64(msg.To))
	dst = appendInt(dst, int64(msg.Seq))
	dst = appendInt(dst, int64(msg.SentClock))
	dst = appendInt(dst, int64(msg.SentEvent))
	return appendPayload(dst, msg.Payload)
}

// appendPayload appends one payload, tag first.
func appendPayload(dst []byte, p types.Payload) (_ []byte, ok bool) {
	switch v := p.(type) {
	case nil:
		return append(dst, tagNil), true
	case core.GoMsg:
		return appendValues(append(dst, tagCoreGo), v.Coins), true
	case core.Piggyback:
		dst, ok = appendPayload(append(dst, tagCorePiggyback), v.Inner)
		if !ok {
			return dst, false
		}
		return appendValues(dst, v.Coins), true
	case core.BatchVoteMsg:
		return appendValues(append(dst, tagCoreBatchVote), v.Vals), true
	case agreement.VecReportMsg:
		return appendValues(appendInt(append(dst, tagAgVecReport), int64(v.Stage)), v.Vals), true
	case agreement.VecProposalMsg:
		dst = appendValues(appendInt(append(dst, tagAgVecProposal), int64(v.Stage)), v.Vals)
		return appendBools(dst, v.Bots), true
	case agreement.VecDecidedMsg:
		return appendValues(append(dst, tagAgVecDecided), v.Vals), true
	case txn.Envelope:
		dst = appendInt(append(dst, tagTxnEnvelope), int64(len(v.Txn)))
		dst = append(dst, v.Txn...)
		return appendPayload(dst, v.Inner)
	case txn.BatchEnvelope:
		dst = appendInt(append(dst, tagTxnBatchEnvelope), int64(len(v.Batch)))
		dst = append(dst, v.Batch...)
		dst = appendInt(dst, int64(len(v.Txns)))
		for _, id := range v.Txns {
			dst = appendInt(dst, int64(len(id)))
			dst = append(dst, id...)
		}
		return appendPayload(dst, v.Inner)
	case recovery.QueryMsg:
		dst = appendInt(append(dst, tagRcQuery), int64(len(v.Txn)))
		return append(dst, v.Txn...), true
	case recovery.ReplyMsg:
		return append(dst, tagRcReply, byte(v.Val)), true
	default:
		return dst, false
	}
}

// wireReader is a cursor over one frame body. All read methods are no-ops
// after the first malformed field; callers check bad once at the end.
type wireReader struct {
	b   []byte
	off int
	bad bool
}

func (r *wireReader) byte() byte {
	if r.bad || r.off >= len(r.b) {
		r.bad = true
		return 0
	}
	c := r.b[r.off]
	r.off++
	return c
}

func (r *wireReader) int() int64 {
	if r.bad {
		return 0
	}
	u, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.off += n
	return unzigzag(u)
}

// count reads a non-negative length and bounds it by the bytes remaining,
// so a hostile length prefix cannot force a huge allocation.
func (r *wireReader) count() int {
	n := r.int()
	if n < 0 || n > int64(len(r.b)-r.off) {
		r.bad = true
		return 0
	}
	return int(n)
}

func (r *wireReader) values() []types.Value {
	n := r.count()
	if r.bad || n == 0 {
		return nil
	}
	vs := make([]types.Value, n)
	for i := range vs {
		vs[i] = types.Value(r.b[r.off+i])
	}
	r.off += n
	return vs
}

func (r *wireReader) bools() []bool {
	n := r.count()
	if r.bad || n == 0 {
		return nil
	}
	bs := make([]bool, n)
	for i := range bs {
		bs[i] = r.b[r.off+i] != 0
	}
	r.off += n
	return bs
}

func (r *wireReader) string() string {
	n := r.count()
	if r.bad {
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

// errBadFrame reports a malformed binary frame body.
var errBadFrame = fmt.Errorf("transport: malformed binary frame")

// decodeMessage decodes a format-fmtBinary frame body. Trailing garbage is
// an error: a valid frame is consumed exactly.
func decodeMessage(body []byte) (types.Message, error) {
	r := &wireReader{b: body}
	var msg types.Message
	msg.From = types.ProcID(r.int())
	msg.To = types.ProcID(r.int())
	msg.Seq = int(r.int())
	msg.SentClock = int(r.int())
	msg.SentEvent = int(r.int())
	msg.Payload = decodePayload(r, 0)
	if r.bad || r.off != len(r.b) {
		return types.Message{}, errBadFrame
	}
	return msg, nil
}

// decodePayload decodes one tagged payload.
func decodePayload(r *wireReader, depth int) types.Payload {
	if depth > maxPayloadDepth {
		r.bad = true
		return nil
	}
	switch tag := r.byte(); tag {
	case tagNil:
		return nil
	case tagCoreGo:
		return core.GoMsg{Coins: r.values()}
	case tagCorePiggyback:
		inner := decodePayload(r, depth+1)
		return core.Piggyback{Inner: inner, Coins: r.values()}
	case tagCoreBatchVote:
		return core.BatchVoteMsg{Vals: r.values()}
	case tagAgVecReport:
		return agreement.VecReportMsg{Stage: int(r.int()), Vals: r.values()}
	case tagAgVecProposal:
		return agreement.VecProposalMsg{Stage: int(r.int()), Vals: r.values(), Bots: r.bools()}
	case tagAgVecDecided:
		return agreement.VecDecidedMsg{Vals: r.values()}
	case tagTxnEnvelope:
		id := txn.ID(r.string())
		return txn.Envelope{Txn: id, Inner: decodePayload(r, depth+1)}
	case tagTxnBatchEnvelope:
		batch := txn.BatchID(r.string())
		n := r.count()
		var ids []txn.ID
		if !r.bad && n > 0 {
			ids = make([]txn.ID, n)
			for i := range ids {
				ids[i] = txn.ID(r.string())
			}
		}
		return txn.BatchEnvelope{Batch: batch, Txns: ids, Inner: decodePayload(r, depth+1)}
	case tagRcQuery:
		return recovery.QueryMsg{Txn: r.string()}
	case tagRcReply:
		return recovery.ReplyMsg{Val: types.Value(r.byte())}
	default:
		r.bad = true
		return nil
	}
}
