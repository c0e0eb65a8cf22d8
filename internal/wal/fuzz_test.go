package wal_test

import (
	"bytes"
	"testing"

	"repro/internal/types"
	"repro/internal/wal"
)

// FuzzReplay throws arbitrary bytes at the frame scanner and the decision
// record codec, as the one segment of a decision journal: opening must
// never panic and must either replay decisions or return a clean error, and
// bytes holding no whole frame replay nothing.
func FuzzReplay(f *testing.F) {
	// Seed with a valid log in the older per-member format (a decide and a
	// retire record), a truncated log, garbage, and batch records.
	valid := append(wal.Frame(perMemberDecide), wal.Frame(perMemberRetire)...)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef})
	f.Add([]byte{})
	for _, seed := range batchSeeds(f) {
		f.Add(wal.Frame(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := replaySegment(t, data)
		if err == nil && len(data) < 8 && len(got) > 0 {
			t.Fatalf("decisions %v replayed from %d bytes, less than a frame header", got, len(data))
		}
	})
}

// FuzzSegmentedOpen throws arbitrary bytes at the segmented decoders: a
// fuzzed segment file (exercising the frame scanner and the decision
// codec) plus a fuzzed-but-framed snapshot file (exercising snapshot
// restore and its older-snapshot fallback). Opening must never panic; if
// it succeeds, the log must still be fully usable — a probe decision
// appended to it must survive a clean restart.
func FuzzSegmentedOpen(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add(wal.Frame(perMemberDecide), []byte{})
	f.Add(wal.Frame(perMemberRetire), []byte{0, 0, 0, 0})
	// A one-entry snapshot: [u32 count=1][u8 decision][u16 len][id].
	f.Add([]byte{0xde, 0xad}, []byte{1, 0, 0, 0, 2, 5, 0, 't', 'x', 'n', '-', '1'})
	for _, seed := range batchSeeds(f) {
		f.Add(wal.Frame(seed), []byte{})
	}
	f.Fuzz(func(t *testing.T, seg, snap []byte) {
		fs := wal.NewMemFS()
		if sf, err := fs.Create("wal-00000001.seg"); err == nil {
			sf.Write(seg) //nolint:errcheck
			sf.Sync()     //nolint:errcheck
			sf.Close()    //nolint:errcheck
		}
		if len(snap) > 0 {
			if sf, err := fs.Create("snap-00000001.snap"); err == nil {
				sf.Write(wal.Frame(snap)) //nolint:errcheck
				sf.Sync()                 //nolint:errcheck
				sf.Close()                //nolint:errcheck
			}
		}
		dl, err := wal.OpenDecisionLog(wal.SegmentedOptions{FS: fs})
		if err != nil {
			return // rejected cleanly
		}
		for id, d := range dl.Recovered() {
			if d != types.DecisionCommit && d != types.DecisionAbort {
				t.Fatalf("recovered impossible decision %d for %q", d, id)
			}
		}
		if err := dl.AppendSync("fuzz-probe", types.DecisionCommit); err != nil {
			t.Fatalf("opened log rejected append: %v", err)
		}
		if err := dl.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		dl2, err := wal.OpenDecisionLog(wal.SegmentedOptions{FS: fs})
		if err != nil {
			t.Fatalf("log unrecoverable after successful open+append: %v", err)
		}
		defer dl2.Close() //nolint:errcheck
		if dl2.Recovered()["fuzz-probe"] != types.DecisionCommit {
			t.Fatal("probe decision lost across restart")
		}
	})
}

// perMemberDecide and perMemberRetire are the two record payloads of the older
// per-member format, byte for byte: [u8 1][u8 decision][id] decides txn-1
// COMMIT, [u8 2][id] retires it.
var (
	perMemberDecide = []byte{1, 2, 't', 'x', 'n', '-', '1'}
	perMemberRetire = []byte{2, 't', 'x', 'n', '-', '1'}
)

// batchSeeds are batch record payloads: width 1, width 64, and a header
// claiming more members than the payload can hold.
func batchSeeds(f *testing.F) [][]byte {
	one, err := wal.EncodeBatch([]string{"txn-1"}, []types.Decision{types.DecisionCommit})
	if err != nil {
		f.Fatal(err)
	}
	ids := make([]string, 64)
	decs := make([]types.Decision, 64)
	for i := range ids {
		ids[i], decs[i] = txnID(i), decisionFor(i)
	}
	wide, err := wal.EncodeBatch(ids, decs)
	if err != nil {
		f.Fatal(err)
	}
	// [u8 3][u16 count=1000] and one member.
	overclaimed := append([]byte{3, 0xe8, 0x03}, one[3:]...)
	return [][]byte{one, wide, overclaimed}
}

// FuzzAppendReplayRoundTrip: any decision record the encoder writes must
// survive a replay, even with trailing garbage after it: the frame scanner
// hands back its payload, and the decision codec folds that payload back
// into the decision.
func FuzzAppendReplayRoundTrip(f *testing.F) {
	f.Add("txn-1", true, []byte{0xff})
	f.Fuzz(func(t *testing.T, id string, commit bool, garbage []byte) {
		d := types.DecisionAbort
		if commit {
			d = types.DecisionCommit
		}
		record, err := wal.EncodeBatch([]string{id}, []types.Decision{d})
		if err != nil {
			return // an id longer than a record's u16 length: refused, not written
		}
		var first []byte
		//nolint:errcheck // the garbage may be corrupt; the record before it must still come back
		wal.ScanFrames(bytes.NewReader(append(wal.Frame(record), garbage...)), func(p []byte) error {
			if first == nil {
				first = append([]byte{}, p...)
			}
			return nil
		})
		if first == nil {
			t.Fatal("own record lost")
		}
		got, err := replaySegment(t, wal.Frame(first))
		if err != nil || len(got) != 1 || got[id] != d {
			t.Fatalf("round trip of (%q, %v) replayed %v, err %v", id, d, got, err)
		}
	})
}
