package wal

// OpenDecisionLogWindow opens a decision journal that keeps the newest
// window members instead of DecisionWindow, so a test can push members
// out of the window at sizes a crash sweep can visit.
func OpenDecisionLogWindow(opts SegmentedOptions, window int) (*DecisionLog, error) {
	return openDecisionLog(opts, window)
}

// QueueDepth is how many appends queue behind the writer before Append
// blocks.
const QueueDepth = queueDepth

// EncodeBatch is the batch record encoder, for seeds and round trips.
var EncodeBatch = encodeBatch
