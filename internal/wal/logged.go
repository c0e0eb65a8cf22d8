package wal

import (
	"repro/internal/core"
	"repro/internal/types"
)

// LoggedCommit wraps a Protocol 2 machine and journals its protocol-
// relevant transitions: vote changes (including the 2K-timeout demotion),
// the learned coin list, the Protocol 1 input, and the decision.
type LoggedCommit struct {
	inner *core.Commit
	log   *Records

	lastVote   types.Value
	votedOnce  bool
	coinsSeen  bool
	inputSeen  bool
	decidedLog bool
}

var _ types.Machine = (*LoggedCommit)(nil)

// NewLoggedCommit wraps m so its transitions are journaled to log.
func NewLoggedCommit(m *core.Commit, log *Records) *LoggedCommit {
	return &LoggedCommit{inner: m, log: log}
}

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
		l.log.Append(Record{Type: RecordVote, Value: v})
	}
	if coins := l.inner.Coins(); coins != nil && !l.coinsSeen {
		l.coinsSeen = true
		l.log.Append(Record{Type: RecordCoins, Coins: coins})
	}
	if ag := l.inner.Agreement(); ag != nil && !l.inputSeen {
		l.inputSeen = true
		l.log.Append(Record{Type: RecordInput, Value: ag.LocalValue()})
	}
	if v, ok := l.inner.Decision(); ok && !l.decidedLog {
		l.decidedLog = true
		l.log.Append(Record{Type: RecordDecision, Value: v})
	}
	return out
}
