package wal_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/types"
	"repro/internal/wal"
)

// FuzzReplay throws arbitrary bytes at the frame scanner and the protocol
// record codec, as the one segment of a node journal: opening must never
// panic and must either replay a state or return a clean error.
func FuzzReplay(f *testing.F) {
	// Seed with a valid log, a truncated log, and garbage.
	vote, _ := wal.EncodePayload(wal.Record{Type: wal.RecordVote, Value: 1})
	coins, _ := wal.EncodePayload(wal.Record{Type: wal.RecordCoins, Coins: []types.Value{1, 0, 1}})
	valid := append(wal.Frame(vote), wal.Frame(coins)...)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		st, had, err := replaySegment(t, data)
		if err == nil && !had && (st.HasVote || st.Decided) {
			t.Fatalf("state %+v replayed from no records", st)
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

// FuzzAppendReplayRoundTrip: any record the encoder accepts must survive
// a replay, even with trailing garbage after it.
func FuzzAppendReplayRoundTrip(f *testing.F) {
	f.Add(uint8(1), uint8(1), []byte{1, 0, 1}, []byte{0xff})
	f.Fuzz(func(t *testing.T, typRaw, valRaw uint8, coinsRaw, garbage []byte) {
		rec := wal.Record{
			Type:  wal.RecordType(typRaw%4 + 1),
			Value: 0,
		}
		if valRaw%2 == 1 {
			rec.Value = 1
		}
		for _, c := range coinsRaw {
			rec.Coins = append(rec.Coins, 0)
			if c%2 == 1 {
				rec.Coins[len(rec.Coins)-1] = 1
			}
		}
		payload, err := wal.EncodePayload(rec)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		var records []wal.Record
		//nolint:errcheck // the garbage may be corrupt; the record before it must still come back
		wal.ScanFrames(bytes.NewReader(append(wal.Frame(payload), garbage...)), func(p []byte) error {
			r, err := wal.DecodePayload(p)
			if err == nil {
				records = append(records, r)
			}
			return err
		})
		if len(records) < 1 {
			t.Fatal("own record lost")
		}
		if got := records[0]; !reflect.DeepEqual(got, rec) {
			t.Fatalf("round trip mismatch: %+v vs %+v", got, rec)
		}
	})
}
