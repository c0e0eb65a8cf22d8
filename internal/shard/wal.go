package shard

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"repro/internal/types"
	"repro/internal/wal"
)

// The cross-shard coordinator's write-ahead log is a record codec over
// wal.SegmentedLog — which frames, checksums, group-commits and replays
// the records — logging the commit-of-commits transitions:
//
//	RecBegin    txn + participating shard set (logged before any child
//	            submission, so a crashed coordinator knows which shards
//	            to ask)
//	RecVerdict  one shard's prepare verdict (its group's Protocol-2
//	            decision for the child transaction)
//	RecOutcome  the combined top-level outcome; terminal for the txn
//
// A log holding RecBegin without RecOutcome marks an in-doubt
// transaction; Coordinator.Recover resolves it by re-querying the shard
// groups, which keep answering because decisions are absorbing (the same
// property internal/recovery's outcome queries lean on).

// CrossRecordType tags one logged cross-shard transition.
type CrossRecordType uint8

// The logged transition kinds.
const (
	// RecBegin opens a cross-shard transaction.
	RecBegin CrossRecordType = iota + 1
	// RecVerdict logs one shard's prepare verdict.
	RecVerdict
	// RecOutcome logs the combined top-level outcome (terminal).
	RecOutcome
)

// String implements fmt.Stringer.
func (t CrossRecordType) String() string {
	switch t {
	case RecBegin:
		return "begin"
	case RecVerdict:
		return "verdict"
	case RecOutcome:
		return "outcome"
	default:
		return fmt.Sprintf("CrossRecordType(%d)", uint8(t))
	}
}

// CrossRecord is one logged cross-shard transition.
type CrossRecord struct {
	Type CrossRecordType
	Txn  string
	// Shards is the participating shard set (RecBegin only).
	Shards []int
	// Shard is the reporting shard (RecVerdict only).
	Shard int
	// Decision is the verdict or outcome (RecVerdict, RecOutcome).
	Decision types.Decision
}

// ErrCorruptCross is returned when a cross-log record fails validation.
// It wraps wal.ErrCorrupt, so one errors.Is covers a bad checksum and a
// bad record alike.
var ErrCorruptCross = fmt.Errorf("shard: corrupt cross-log record: %w", wal.ErrCorrupt)

// encodeCrossPayload serializes one record's payload (the bytes under
// the frame).
//
// payload: [u8 type][u8 decision][u16 shard][u16 nShards][nShards×u16]
//
//	[u16 idLen][idLen bytes]
func encodeCrossPayload(r CrossRecord) ([]byte, error) {
	if len(r.Shards) > 1<<16-1 {
		return nil, fmt.Errorf("shard: too many shards (%d)", len(r.Shards))
	}
	if len(r.Txn) > 1<<16-1 {
		return nil, fmt.Errorf("shard: txn id too long (%d bytes)", len(r.Txn))
	}
	payload := make([]byte, 8+2*len(r.Shards)+len(r.Txn))
	payload[0] = byte(r.Type)
	payload[1] = byte(r.Decision)
	binary.LittleEndian.PutUint16(payload[2:4], uint16(r.Shard))
	binary.LittleEndian.PutUint16(payload[4:6], uint16(len(r.Shards)))
	off := 6
	for _, s := range r.Shards {
		binary.LittleEndian.PutUint16(payload[off:off+2], uint16(s))
		off += 2
	}
	binary.LittleEndian.PutUint16(payload[off:off+2], uint16(len(r.Txn)))
	copy(payload[off+2:], r.Txn)
	return payload, nil
}

// decodeCrossPayload parses a checksum-verified payload. A checksum only
// proves the bytes are the ones written, so the type and decision are
// checked too: an unknown type, a verdict or outcome that is neither
// COMMIT nor ABORT, or a begin carrying a decision would otherwise fold
// into a phantom in-doubt transaction for Recover to chase.
func decodeCrossPayload(payload []byte) (CrossRecord, error) {
	if len(payload) < 8 {
		return CrossRecord{}, ErrCorruptCross
	}
	r := CrossRecord{
		Type:     CrossRecordType(payload[0]),
		Decision: types.Decision(payload[1]),
		Shard:    int(binary.LittleEndian.Uint16(payload[2:4])),
	}
	switch r.Type {
	case RecBegin:
		if r.Decision != types.DecisionNone {
			return CrossRecord{}, fmt.Errorf("%w: begin carries decision %d", ErrCorruptCross, r.Decision)
		}
	case RecVerdict, RecOutcome:
		if r.Decision != types.DecisionAbort && r.Decision != types.DecisionCommit {
			return CrossRecord{}, fmt.Errorf("%w: impossible %s decision %d", ErrCorruptCross, r.Type, r.Decision)
		}
	default:
		return CrossRecord{}, fmt.Errorf("%w: unknown record type %d", ErrCorruptCross, payload[0])
	}
	nShards := int(binary.LittleEndian.Uint16(payload[4:6]))
	off := 6
	if len(payload) < off+2*nShards+2 {
		return CrossRecord{}, ErrCorruptCross
	}
	if nShards > 0 {
		r.Shards = make([]int, nShards)
		for i := 0; i < nShards; i++ {
			r.Shards[i] = int(binary.LittleEndian.Uint16(payload[off : off+2]))
			off += 2
		}
	}
	idLen := int(binary.LittleEndian.Uint16(payload[off : off+2]))
	off += 2
	if len(payload) != off+idLen {
		return CrossRecord{}, ErrCorruptCross
	}
	r.Txn = string(payload[off:])
	return r, nil
}

// CrossAppender journals cross-shard records for a Coordinator: a
// *CrossLog over a segmented directory, or the in-memory *MemCrossLog.
type CrossAppender interface {
	Append(CrossRecord) error
}

// discardLog is the Coordinator's log when Config.Log is nil.
type discardLog struct{}

func (discardLog) Append(CrossRecord) error { return nil }

// CrossLog is the coordinator's handle on a segmented cross log (see
// OpenCrossSegmented, which owns it). Safe for concurrent use.
type CrossLog struct {
	seg *wal.SegmentedLog
}

// Append journals one record. An outcome append blocks until its
// covering group-commit fsync succeeds (concurrent outcomes share one
// flush); begin and verdict records ride along asynchronously.
func (l *CrossLog) Append(r CrossRecord) error {
	payload, err := encodeCrossPayload(r)
	if err != nil {
		return err
	}
	if r.Type == RecOutcome {
		return l.seg.AppendSync(payload)
	}
	return l.seg.Append(payload, nil)
}

// MemCrossLog is the in-memory cross log: a CrossAppender that keeps the
// records themselves, for the chaos harness and tests, where the log only
// has to outlive a simulated coordinator crash inside one process. Fold
// it with ReconstructCross or hand Records to Recover. Safe for
// concurrent use.
type MemCrossLog struct {
	mu   sync.Mutex
	recs []CrossRecord
}

// Append implements CrossAppender.
func (l *MemCrossLog) Append(r CrossRecord) error {
	l.mu.Lock()
	l.recs = append(l.recs, r)
	l.mu.Unlock()
	return nil
}

// Records returns a copy of everything appended so far, in order.
func (l *MemCrossLog) Records() []CrossRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]CrossRecord(nil), l.recs...)
}

// CrossState is one cross-shard transaction reconstructed from the log.
type CrossState struct {
	Txn    string
	Shards []int
	// Verdicts holds each shard's logged prepare verdict.
	Verdicts map[int]types.Decision
	// Decided and Outcome reflect a logged RecOutcome.
	Decided bool
	Outcome types.Decision
}

// InDoubt reports whether the transaction was opened but never closed —
// the state a coordinator crash leaves behind.
func (s *CrossState) InDoubt() bool { return !s.Decided }

// applyCross folds one record into the per-transaction states — the one
// place that says what a cross-log record means, for replayed segments
// and in-memory logs alike. Records for transactions without a RecBegin
// still accumulate.
func applyCross(states map[string]*CrossState, r CrossRecord) *CrossState {
	st, ok := states[r.Txn]
	if !ok {
		st = &CrossState{Txn: r.Txn, Verdicts: make(map[int]types.Decision)}
		states[r.Txn] = st
	}
	switch r.Type {
	case RecBegin:
		st.Shards = append([]int(nil), r.Shards...)
	case RecVerdict:
		st.Verdicts[r.Shard] = r.Decision
	case RecOutcome:
		st.Decided, st.Outcome = true, r.Decision
	}
	return st
}

// ReconstructCross folds records into per-transaction states, in log
// order.
func ReconstructCross(records []CrossRecord) map[string]*CrossState {
	out := make(map[string]*CrossState)
	for _, r := range records {
		applyCross(out, r)
	}
	return out
}

// crossCodec is the wal.SnapshotCodec for the segmented cross log. Its
// state is the map of OPEN (in-doubt) cross-shard transactions: an
// outcome record is terminal, so applying one retires the transaction
// from the state — which is what keeps snapshots, and therefore the
// compacted log, bounded by in-flight work instead of all history.
//
// Snapshot payload: a run of wal.Frame-framed record payloads that
// re-creates every open transaction — Begin then Verdicts, per
// transaction in sorted id order so identical states encode identically.
type crossCodec struct {
	open map[string]*CrossState
}

func (c *crossCodec) Apply(payload []byte) error {
	r, err := decodeCrossPayload(payload)
	if err != nil {
		return err
	}
	if applyCross(c.open, r).Decided {
		delete(c.open, r.Txn)
	}
	return nil
}

func (c *crossCodec) EncodeSnapshot() []byte {
	var buf bytes.Buffer
	for _, r := range c.records() {
		p, err := encodeCrossPayload(r)
		if err != nil {
			continue // unencodable states cannot have been appended
		}
		buf.Write(wal.Frame(p))
	}
	return buf.Bytes()
}

func (c *crossCodec) RestoreSnapshot(data []byte) error {
	restored := crossCodec{open: make(map[string]*CrossState)}
	n, err := wal.ScanFrames(bytes.NewReader(data), restored.Apply)
	if err != nil {
		return err
	}
	// The scanner stops quietly at a torn tail; a snapshot is
	// all-or-nothing, so anything short of the whole payload is corrupt.
	if rem := int64(len(data)) - n; rem != 0 {
		return fmt.Errorf("%w: %d trailing snapshot bytes", ErrCorruptCross, rem)
	}
	c.open = restored.open
	return nil
}

// records synthesizes the record stream re-creating the open set.
func (c *crossCodec) records() []CrossRecord {
	ids := make([]string, 0, len(c.open))
	for id := range c.open {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var out []CrossRecord
	for _, id := range ids {
		st := c.open[id]
		out = append(out, CrossRecord{Type: RecBegin, Txn: id, Shards: st.Shards})
		shards := make([]int, 0, len(st.Verdicts))
		for s := range st.Verdicts {
			shards = append(shards, s)
		}
		sort.Ints(shards)
		for _, s := range shards {
			out = append(out, CrossRecord{Type: RecVerdict, Txn: id, Shard: s, Decision: st.Verdicts[s]})
		}
	}
	return out
}

// CrossSegLog owns a segmented cross log: the embedded *CrossLog is what
// a Coordinator appends through (Config.Log); Stats and Close stay with
// whoever opened it.
type CrossSegLog struct {
	*CrossLog
}

// OpenCrossSegmented opens (creating if needed) the segmented cross log
// in opts.FS, or, when that is nil, in the directory dir, replaying
// snapshot + suffix. The returned records re-create the recovered state
// — exactly the still-in-doubt transactions (decided ones are retired
// during replay) — in a form Coordinator.Recover accepts. opts.Name
// defaults to "cross".
func OpenCrossSegmented(dir string, opts wal.SegmentedOptions) (*CrossSegLog, []CrossRecord, error) {
	if opts.FS == nil {
		fs, err := wal.NewDirFS(dir)
		if err != nil {
			return nil, nil, err
		}
		opts.FS = fs
	}
	if opts.Name == "" {
		opts.Name = "cross"
	}
	codec := &crossCodec{open: make(map[string]*CrossState)}
	seg, err := wal.OpenSegmented(codec, opts)
	if err != nil {
		return nil, nil, err
	}
	// codec is stable here: the writer only touches it once appends flow.
	records := codec.records()
	return &CrossSegLog{CrossLog: &CrossLog{seg: seg}}, records, nil
}

// Close drains, seals, and closes the segmented log.
func (l *CrossSegLog) Close() error { return l.seg.Close() }
