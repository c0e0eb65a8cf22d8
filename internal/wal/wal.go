// Package wal provides the write-ahead log that makes the paper's
// recovery story concrete. The protocol's graceful degradation ("instead
// of producing a wrong answer, the protocol simply fails to terminate...
// by not producing a wrong answer, we leave open the opportunity to
// recover", §1) is only useful if a crashed processor can come back and
// find out the outcome.
//
// There is one log: SegmentedLog (segment.go) is the only code that
// frames, checksums, fsyncs or replays a record; its file comment gives
// the on-disk layout. The journals built on it — DecisionLog (decision.go),
// which every live node and the commit service keep, and the cross-shard
// log in internal/shard — are record codecs: they encode a payload, hand it
// to the log, and fold replayed payloads back into state.
//
// This file holds the formal machine's journal, which the simulator keeps
// in memory: the protocol-relevant transitions of a Protocol 2 processor —
// the vote, the shared coin list, the agreement input, and the decision —
// as Records that LoggedCommit appends, and their fold into a State.
package wal

import (
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

// Records is the in-memory journal LoggedCommit appends to, for the
// simulator, where the journal only has to outlive a simulated crash inside
// one process. Fold it with Reconstruct. Not safe for concurrent use.
type Records []Record

// Append journals one record.
func (rs *Records) Append(r Record) { *rs = append(*rs, r) }

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
