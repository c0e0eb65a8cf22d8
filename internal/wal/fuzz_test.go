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
	// Seed with a valid log, a truncated log, and garbage.
	valid := append(wal.Frame(wal.EncodeDecision("txn-1", types.DecisionCommit)), wal.Frame(wal.EncodeRetire("txn-1"))...)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef})
	f.Add([]byte{})
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
	f.Add(wal.Frame(wal.EncodeDecision("txn-1", types.DecisionCommit)), []byte{})
	f.Add(wal.Frame(wal.EncodeRetire("txn-1")), []byte{0, 0, 0, 0})
	// A one-entry snapshot: [u32 count=1][u8 decision][u16 len][id].
	f.Add([]byte{0xde, 0xad}, []byte{1, 0, 0, 0, 2, 5, 0, 't', 'x', 'n', '-', '1'})
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
		var first []byte
		//nolint:errcheck // the garbage may be corrupt; the record before it must still come back
		wal.ScanFrames(bytes.NewReader(append(wal.Frame(wal.EncodeDecision(id, d)), garbage...)), func(p []byte) error {
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
