package wal

import (
	"repro/internal/core"
	"repro/internal/types"
)

// LoggedCommit wraps a Protocol 2 machine and journals its protocol-
// relevant transitions: vote changes (including the 2K-timeout demotion),
// the learned coin list, the Protocol 1 input, and the decision. Append
// errors are retained (inspect Err) rather than crashing the protocol —
// a processor whose disk died is indistinguishable from a crashed one
// only if it stops, which is the operator's call.
type LoggedCommit struct {
	inner *core.Commit
	log   RecordAppender

	lastVote   types.Value
	votedOnce  bool
	coinsSeen  bool
	inputSeen  bool
	decidedLog bool
	err        error
}

var _ types.Machine = (*LoggedCommit)(nil)

// RecordAppender journals protocol records: a *NodeLog over a segmented
// directory, or the in-memory *Records.
type RecordAppender interface {
	Append(Record) error
}

// NewLoggedCommit wraps m so its transitions are journaled to log.
func NewLoggedCommit(m *core.Commit, log RecordAppender) *LoggedCommit {
	return &LoggedCommit{inner: m, log: log}
}

// Err returns the first append error, if any.
func (l *LoggedCommit) Err() error { return l.err }

// Inner returns the wrapped machine.
func (l *LoggedCommit) Inner() *core.Commit { return l.inner }

// ID implements types.Machine.
func (l *LoggedCommit) ID() types.ProcID { return l.inner.ID() }

// Clock implements types.Machine.
func (l *LoggedCommit) Clock() int { return l.inner.Clock() }

// Decision implements types.Machine.
func (l *LoggedCommit) Decision() (types.Value, bool) { return l.inner.Decision() }

// Halted implements types.Machine.
func (l *LoggedCommit) Halted() bool { return l.inner.Halted() }

// Step implements types.Machine: it delegates and then journals any
// observed transition.
func (l *LoggedCommit) Step(received []types.Message, rnd types.Rand) []types.Message {
	out := l.inner.Step(received, rnd)

	if v := l.inner.CurrentVote(); !l.votedOnce || v != l.lastVote {
		l.votedOnce, l.lastVote = true, v
		l.append(Record{Type: RecordVote, Value: v})
	}
	if coins := l.inner.Coins(); coins != nil && !l.coinsSeen {
		l.coinsSeen = true
		l.append(Record{Type: RecordCoins, Coins: coins})
	}
	if ag := l.inner.Agreement(); ag != nil && !l.inputSeen {
		l.inputSeen = true
		l.append(Record{Type: RecordInput, Value: ag.LocalValue()})
	}
	if v, ok := l.inner.Decision(); ok && !l.decidedLog {
		l.decidedLog = true
		l.append(Record{Type: RecordDecision, Value: v})
	}
	return out
}

func (l *LoggedCommit) append(r Record) {
	if l.err != nil {
		return
	}
	if err := l.log.Append(r); err != nil {
		l.err = err
	}
}
