package shard

import (
	"testing"

	"repro/internal/types"
	"repro/internal/wal"
)

// FuzzCrossOpen throws arbitrary bytes at the cross codec behind the
// segmented open: a fuzzed segment file (the frame scanner, then
// decodeCrossPayload) plus a fuzzed-but-framed snapshot file (snapshot
// restore and its fallback). Opening must never panic; if it succeeds,
// every recovered record must be one Recover can act on, and the log must
// still be fully usable — a probe transaction left in doubt must come
// back from a clean restart, and one given an outcome must not.
func FuzzCrossOpen(f *testing.F) {
	payload := func(r CrossRecord) []byte {
		p, err := encodeCrossPayload(r)
		if err != nil {
			f.Fatal(err)
		}
		return p
	}
	begin := wal.Frame(payload(CrossRecord{Type: RecBegin, Txn: "t", Shards: []int{0, 1}}))
	verdict := wal.Frame(payload(CrossRecord{Type: RecVerdict, Txn: "t", Shard: 1, Decision: types.DecisionCommit}))
	outcome := wal.Frame(payload(CrossRecord{Type: RecOutcome, Txn: "t", Decision: types.DecisionCommit}))
	f.Add([]byte{}, []byte{})
	f.Add(append(begin[:len(begin):len(begin)], verdict...), []byte{})
	f.Add(append(begin[:len(begin):len(begin)], outcome...), begin)
	f.Add(wal.Frame(payload(CrossRecord{Type: 9, Txn: "t"})), []byte{})
	f.Add(wal.Frame(payload(CrossRecord{Type: RecOutcome, Txn: "t"})), verdict[:len(verdict)-1])
	f.Add([]byte{0xde, 0xad}, append(begin[:len(begin):len(begin)], 0xff))
	f.Fuzz(func(t *testing.T, seg, snap []byte) {
		files := map[string][]byte{firstSeg: seg}
		if len(snap) > 0 {
			files["snap-00000001.snap"] = wal.Frame(snap)
		}
		fs := memWith(t, files)
		l, recs, err := OpenCrossSegmented("", wal.SegmentedOptions{FS: fs})
		if err != nil {
			return // rejected cleanly
		}
		for _, r := range recs {
			switch {
			case r.Type == RecBegin && r.Decision == types.DecisionNone:
			case r.Type == RecVerdict && (r.Decision == types.DecisionCommit || r.Decision == types.DecisionAbort):
			default:
				t.Fatalf("recovered a record Recover cannot act on: %+v", r)
			}
		}
		for _, r := range []CrossRecord{
			{Type: RecBegin, Txn: "fuzz-open", Shards: []int{0, 1}},
			{Type: RecBegin, Txn: "fuzz-done", Shards: []int{0, 1}},
			{Type: RecOutcome, Txn: "fuzz-done", Decision: types.DecisionAbort},
		} {
			if err := l.Append(r); err != nil {
				t.Fatalf("opened log rejected append: %v", err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		recs, err = replayCross(t, fs, wal.SegmentedOptions{})
		if err != nil {
			t.Fatalf("log unrecoverable after successful open+append: %v", err)
		}
		states := ReconstructCross(recs)
		if st := states["fuzz-open"]; st == nil || len(st.Shards) != 2 {
			t.Fatalf("in-doubt probe lost across restart: %+v", st)
		}
		if st := states["fuzz-done"]; st != nil {
			t.Fatalf("decided probe came back in doubt: %+v", st)
		}
	})
}
