package transport

// Differential tests for the binary wire codec: every payload type a live
// node sends must survive binary encode→decode with exactly the value gob
// would reproduce, a reserved tag must never decode, and arbitrary bytes
// must never panic the decoder.

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/txn"
	"repro/internal/types"
)

// wirePayloads is one representative value per payload type a live node
// sends, plus the nesting combinations the protocols actually ship
// (Piggyback and the envelopes wrap inner payloads recursively).
func wirePayloads() []types.Payload {
	return []types.Payload{
		nil,
		core.GoMsg{Coins: []types.Value{1, 0, 1, 1}},
		core.GoMsg{}, // nil coin slice
		core.Piggyback{Inner: agreement.VecDecidedMsg{Vals: []types.Value{0, 1}}, Coins: []types.Value{0, 1}},
		core.Piggyback{Inner: core.GoMsg{Coins: []types.Value{1}}, Coins: []types.Value{1, 1, 0}},
		core.Piggyback{}, // nil inner, nil coins
		txn.Envelope{Txn: "txn-00042", Inner: core.BatchVoteMsg{Vals: []types.Value{1}}},
		txn.Envelope{Txn: "", Inner: nil},
		txn.Envelope{Txn: "nested", Inner: core.Piggyback{
			Inner: agreement.VecReportMsg{Stage: 2, Vals: []types.Value{1}}, Coins: []types.Value{1, 0}}},
		core.BatchVoteMsg{Vals: []types.Value{1, 0, 0, 1, 1}},
		core.BatchVoteMsg{}, // nil vote vector
		agreement.VecReportMsg{Stage: 2, Vals: []types.Value{1, 1, 0}},
		agreement.VecReportMsg{Stage: 1 << 18}, // nil vals
		agreement.VecProposalMsg{Stage: 3, Vals: []types.Value{0, 1}, Bots: []bool{true, false}},
		agreement.VecProposalMsg{Stage: 1}, // nil vals, nil bots
		agreement.VecDecidedMsg{Vals: []types.Value{1, 0, 1}},
		agreement.VecDecidedMsg{}, // nil vals
		txn.BatchEnvelope{Batch: "batch-7", Txns: []txn.ID{"a", "b", "c"},
			Inner: core.BatchVoteMsg{Vals: []types.Value{1, 0, 1}}},
		txn.BatchEnvelope{Batch: "", Txns: nil, Inner: nil},
		txn.BatchEnvelope{Batch: "nested", Txns: []txn.ID{"x"}, Inner: core.Piggyback{
			Inner: agreement.VecReportMsg{Stage: 1, Vals: []types.Value{1}},
			Coins: []types.Value{0, 1}}},
		recovery.QueryMsg{Txn: recovery.SoleTxn},
		recovery.QueryMsg{}, // empty id
		recovery.ReplyMsg{Val: types.V1},
		recovery.ReplyMsg{Val: types.V0},
	}
}

// reservedTags are the tags of payloads no live node sends any more — the
// scalar core.VoteMsg and agreement.{Report,Proposal,Decided}Msg, 2PC, 3PC
// and Paxos Commit — by number, since the constants are gone. Tags are wire
// format: these stay unused and must never decode.
var reservedTags = []byte{2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 19, 20, 21, 22, 23}

// TestTagNumbersPinned: deleting an encoding reserved its tag instead of
// renumbering the ones after it.
func TestTagNumbersPinned(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want byte
	}{
		{"tagCoreGo", tagCoreGo, 1}, {"tagCorePiggyback", tagCorePiggyback, 3},
		{"tagTxnEnvelope", tagTxnEnvelope, 16}, {"tagRcQuery", tagRcQuery, 17}, {"tagRcReply", tagRcReply, 18},
		{"tagCoreBatchVote", tagCoreBatchVote, 24}, {"tagTxnBatchEnvelope", tagTxnBatchEnvelope, 28},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}

// gobFrame is the shape gob carries in the oracle round trip.
type gobFrame struct {
	Msg types.Message
}

var registerGobOnce sync.Once

// registerGobPayloads registers every payload type with encoding/gob, the
// differential oracle the binary codec is checked against. No non-test
// code imports gob.
func registerGobPayloads() {
	registerGobOnce.Do(func() {
		for _, p := range wirePayloads() {
			if p != nil {
				gob.Register(p)
			}
		}
	})
}

// gobRoundTrip pushes a message through gob, the reference codec.
func gobRoundTrip(t *testing.T, msg types.Message) types.Message {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(gobFrame{Msg: msg}); err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	var f gobFrame
	if err := gob.NewDecoder(&buf).Decode(&f); err != nil {
		t.Fatalf("gob decode: %v", err)
	}
	return f.Msg
}

// TestBinaryCodecMatchesGob round-trips every payload type through both
// codecs and requires identical results: the binary codec reproduces
// exactly what reflection-based gob would on every shipped type.
func TestBinaryCodecMatchesGob(t *testing.T) {
	registerGobPayloads()
	for i, p := range wirePayloads() {
		msg := types.Message{
			From: 3, To: 1, Payload: p,
			Seq: 1000 + i, SentClock: 17, SentEvent: 40_000 + i,
		}
		body, ok := appendMessage(nil, msg)
		if !ok {
			t.Fatalf("payload %d (%T): no binary encoding", i, p)
		}
		got, err := decodeMessage(body)
		if err != nil {
			t.Fatalf("payload %d (%T): decode: %v", i, p, err)
		}
		want := gobRoundTrip(t, msg)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("payload %d (%T):\nbinary = %#v\ngob    = %#v", i, p, got, want)
		}
	}
}

// TestBinaryCodecNegativeInts checks the zigzag varints on fields that
// could in principle go negative.
func TestBinaryCodecNegativeInts(t *testing.T) {
	msg := types.Message{From: -1, To: 2, Seq: -7, SentClock: -1, SentEvent: -99}
	body, ok := appendMessage(nil, msg)
	if !ok {
		t.Fatal("no binary encoding")
	}
	got, err := decodeMessage(body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, msg) {
		t.Fatalf("got %#v want %#v", got, msg)
	}
}

// unregisteredPayload has no binary tag: the sender must drop it.
type unregisteredPayload struct{ X int }

func (unregisteredPayload) Kind() string { return "test.unregistered" }

// tcpPair boots two TCP nodes with 0 knowing 1's address.
func tcpPair(t *testing.T) (n0, n1 *TCPNode) {
	t.Helper()
	var err error
	if n0, err = ListenTCP(0, "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n0.Close() }) //nolint:errcheck
	if n1, err = ListenTCP(1, "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n1.Close() }) //nolint:errcheck
	n0.SetPeers(map[types.ProcID]string{1: n1.Addr()})
	return n0, n1
}

// TestUnencodablePayloadIsDropped: a payload without a binary tag — bare
// or nested in a registered wrapper — is dropped and counted by Send, and
// the connection it would have used keeps carrying registered messages.
func TestUnencodablePayloadIsDropped(t *testing.T) {
	bare := types.Message{To: 1, Payload: unregisteredPayload{X: 9}, Seq: 2}
	nested := types.Message{To: 1, Payload: core.Piggyback{Inner: unregisteredPayload{X: 9}}, Seq: 3}
	for _, msg := range []types.Message{bare, nested} {
		if _, ok := appendMessage(nil, msg); ok {
			t.Fatalf("%T unexpectedly binary-encodable", msg.Payload)
		}
	}

	n0, n1 := tcpPair(t)
	reg := obs.NewRegistry()
	n0.Instrument(reg)
	dropped := reg.CounterVec("transport_messages_dropped_total", "", "transport").With("tcp")

	sent := []types.Message{
		{To: 1, Payload: recovery.ReplyMsg{Val: types.V1}, Seq: 1},
		bare,
		nested,
		{To: 1, Payload: recovery.ReplyMsg{Val: types.V0}, Seq: 4},
	}
	var conn *outConn
	for _, msg := range sent {
		if err := n0.Send(msg); err != nil {
			t.Fatal(err)
		}
		n0.mu.Lock()
		oc := n0.conns[1]
		n0.mu.Unlock()
		if oc == nil || (conn != nil && oc != conn) {
			t.Fatalf("after seq %d: connection to peer 1 was closed or re-dialled", msg.Seq)
		}
		conn = oc
	}
	if got := dropped.Value(); got != 2 {
		t.Errorf("dropped = %d, want 2", got)
	}
	for _, seq := range []int{1, 4} {
		select {
		case got := <-n1.Recv():
			if got.Seq != seq {
				t.Fatalf("got seq %d, want %d", got.Seq, seq)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("message %d never arrived", seq)
		}
	}
	select {
	case got := <-n1.Recv():
		t.Fatalf("unexpected delivery: %#v", got)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestForeignFrameFormatRejected: an inbound frame whose format byte is
// not 'B' — including a well-formed 'G' gob frame from an old peer — is a
// corrupt stream: the connection is torn down and nothing is delivered,
// not even a valid 'B' frame queued behind it.
func TestForeignFrameFormatRejected(t *testing.T) {
	registerGobPayloads()
	msg := types.Message{From: 0, To: 1, Payload: recovery.ReplyMsg{Val: types.V1}, Seq: 7}
	var gobBody bytes.Buffer
	if err := gob.NewEncoder(&gobBody).Encode(gobFrame{Msg: msg}); err != nil {
		t.Fatal(err)
	}
	binBody, ok := appendMessage(nil, msg)
	if !ok {
		t.Fatal("encode failed")
	}
	frame := func(format byte, body []byte) []byte {
		out := binary.BigEndian.AppendUint32(nil, uint32(1+len(body)))
		return append(append(out, format), body...)
	}
	for name, foreign := range map[string][]byte{
		"gob":     frame('G', gobBody.Bytes()),
		"unknown": frame('X', binBody),
	} {
		t.Run(name, func(t *testing.T) {
			_, n1 := tcpPair(t)
			c, err := net.Dial("tcp", n1.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close() //nolint:errcheck
			if _, err := c.Write(append(foreign, frame(fmtBinary, binBody)...)); err != nil {
				t.Fatal(err)
			}
			c.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
			if _, err := c.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("peer kept the connection open after a foreign frame (read err %v)", err)
			}
			select {
			case got := <-n1.Recv():
				t.Fatalf("delivered %#v from a corrupt stream", got)
			case <-time.After(50 * time.Millisecond):
			}
		})
	}
}

// TestDecodeRejectsCorruptBodies spot-checks malformed frame bodies.
func TestDecodeRejectsCorruptBodies(t *testing.T) {
	good, ok := appendMessage(nil, types.Message{To: 1, Payload: core.GoMsg{Coins: []types.Value{1, 1}}})
	if !ok {
		t.Fatal("encode failed")
	}
	cases := map[string][]byte{
		"empty":                  {},
		"truncated":              good[:len(good)-1],
		"trailing garbage":       append(append([]byte{}, good...), 0xFF),
		"unknown tag":            {0, 0, 0, 0, 0, 0xEE},
		"huge coin count":        {0, 0, 0, 0, 0, tagCoreGo, 0xFE, 0xFF, 0xFF, 0xFF, 0x0F},
		"huge member count":      {0, 0, 0, 0, 0, tagTxnBatchEnvelope, 0, 0xFE, 0xFF, 0xFF, 0xFF, 0x0F},
		"truncated vec proposal": {0, 0, 0, 0, 0, tagAgVecProposal, 2, 4, 1, 1},
		"truncated query id":     {0, 0, 0, 0, 0, tagRcQuery, 6, 't'},
	}
	for _, tag := range reservedTags {
		cases[fmt.Sprintf("reserved tag %d", tag)] = []byte{0, 0, 0, 0, 0, tag, 1}
	}
	for name, body := range cases {
		if _, err := decodeMessage(body); err == nil {
			t.Errorf("%s: decode accepted a corrupt body", name)
		}
	}
	// Deep Piggyback nesting must hit the depth limit, not the stack.
	deep := []byte{0, 0, 0, 0, 0}
	for i := 0; i < 10_000; i++ {
		deep = append(deep, tagCorePiggyback)
	}
	if _, err := decodeMessage(deep); err == nil {
		t.Error("deep nesting accepted")
	}
}

// FuzzDecodeMessage fuzzes the binary decoder: arbitrary bodies must never
// panic, and any body that decodes must re-encode and decode to the same
// message (the codec is canonical on its own output). The seeds are every
// live payload's encoding and a frame under every reserved tag.
func FuzzDecodeMessage(f *testing.F) {
	for _, p := range wirePayloads() {
		if body, ok := appendMessage(nil, types.Message{From: 1, To: 2, Payload: p, Seq: 3}); ok {
			f.Add(body)
		}
	}
	for _, tag := range reservedTags {
		f.Add([]byte{0, 0, 0, 0, 0, tag, 1})
	}
	f.Add([]byte{0, 0, 0, 0, 0, tagCoreGo, 2, 1, 0})
	f.Fuzz(func(t *testing.T, body []byte) {
		msg, err := decodeMessage(body)
		if err != nil {
			return
		}
		re, ok := appendMessage(nil, msg)
		if !ok {
			t.Fatalf("decoded message not re-encodable: %#v", msg)
		}
		msg2, err := decodeMessage(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(msg, msg2) {
			t.Fatalf("round trip diverged:\nfirst  = %#v\nsecond = %#v", msg, msg2)
		}
	})
}
