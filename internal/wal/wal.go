// Package wal provides the write-ahead log that makes the paper's
// recovery story concrete. The protocol's graceful degradation ("instead
// of producing a wrong answer, the protocol simply fails to terminate...
// by not producing a wrong answer, we leave open the opportunity to
// recover", §1) is only useful if a crashed processor can come back,
// re-learn where it was, and find out the outcome. This package persists
// the protocol-relevant transitions — the vote, the shared coin list, the
// agreement input, and the decision — in an append-only, checksummed,
// torn-tail-tolerant log.
//
// There is one log: SegmentedLog (segment.go) is the only code that
// frames, checksums, fsyncs or replays a record; its file comment gives
// the on-disk layout. The journals built on it — NodeLog (protocol.go),
// DecisionLog (decision.go) and the cross-shard log in internal/shard —
// are record codecs: they encode a payload, hand it to the log, and fold
// replayed payloads back into state. This file holds the protocol
// journal's record type, its payload
//
//	[u8 type][u8 value][u16 coinCount][coinCount bytes of coin bits]
//
// and the fold from records to State.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/types"
)

// RecordType tags a logged transition.
type RecordType uint8

// The logged transition kinds.
const (
	// RecordVote logs the processor's (possibly demoted) vote.
	RecordVote RecordType = iota + 1
	// RecordCoins logs the shared coin list learned from GO.
	RecordCoins
	// RecordInput logs the input handed to Protocol 1.
	RecordInput
	// RecordDecision logs the final decision value. A log containing a
	// RecordDecision is terminal: recovery needs nothing else.
	RecordDecision
)

// String implements fmt.Stringer.
func (t RecordType) String() string {
	switch t {
	case RecordVote:
		return "vote"
	case RecordCoins:
		return "coins"
	case RecordInput:
		return "input"
	case RecordDecision:
		return "decision"
	default:
		return fmt.Sprintf("RecordType(%d)", uint8(t))
	}
}

// Record is one logged transition.
type Record struct {
	Type  RecordType
	Value types.Value
	Coins []types.Value
}

// ErrCorrupt is returned when a record fails its checksum or does not
// decode.
var ErrCorrupt = errors.New("wal: corrupt record")

// encodePayload serializes a record's payload (the bytes under the
// frame — the segmented log frames them itself).
func encodePayload(r Record) ([]byte, error) {
	if len(r.Coins) > 1<<16-1 {
		return nil, fmt.Errorf("wal: too many coins (%d)", len(r.Coins))
	}
	payload := make([]byte, 4+len(r.Coins))
	payload[0] = byte(r.Type)
	payload[1] = byte(r.Value)
	binary.LittleEndian.PutUint16(payload[2:4], uint16(len(r.Coins)))
	for i, c := range r.Coins {
		payload[4+i] = byte(c)
	}
	return payload, nil
}

// decodePayload parses a checksum-verified payload.
func decodePayload(payload []byte) (Record, error) {
	if len(payload) < 4 {
		return Record{}, ErrCorrupt
	}
	r := Record{Type: RecordType(payload[0]), Value: types.Value(payload[1])}
	count := int(binary.LittleEndian.Uint16(payload[2:4]))
	if len(payload) != 4+count {
		return Record{}, ErrCorrupt
	}
	if count > 0 {
		r.Coins = make([]types.Value, count)
		for i := 0; i < count; i++ {
			r.Coins[i] = types.Value(payload[4+i])
		}
	}
	return r, nil
}

// Records is the in-memory journal: a RecordAppender that keeps the
// records themselves, for the simulator and the chaos harness, where the
// journal only has to outlive a simulated crash inside one process. Fold
// it with Reconstruct. Not safe for concurrent use.
type Records []Record

// Append implements RecordAppender.
func (rs *Records) Append(r Record) error {
	*rs = append(*rs, r)
	return nil
}

// State is the protocol state reconstructed from a log.
type State struct {
	HasVote  bool
	Vote     types.Value
	Coins    []types.Value
	HasInput bool
	Input    types.Value
	Decided  bool
	Decision types.Value
}

// Apply folds one record into the state — the one place that says what
// a protocol record means, for replayed segments and in-memory journals
// alike.
func (s *State) Apply(r Record) {
	switch r.Type {
	case RecordVote:
		s.HasVote, s.Vote = true, r.Value
	case RecordCoins:
		s.Coins = r.Coins
	case RecordInput:
		s.HasInput, s.Input = true, r.Value
	case RecordDecision:
		s.Decided, s.Decision = true, r.Value
	}
}

// Reconstruct folds records into the latest state.
func Reconstruct(records []Record) State {
	var s State
	for _, r := range records {
		s.Apply(r)
	}
	return s
}
