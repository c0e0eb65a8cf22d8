package shard

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/types"
	"repro/internal/wal"
)

// firstSeg is the file a fresh segmented log appends to.
const firstSeg = "wal-00000001.seg"

// memWith is a MemFS holding the given files, synced.
func memWith(t testing.TB, files map[string][]byte) *wal.MemFS {
	t.Helper()
	fs := wal.NewMemFS()
	for name, data := range files {
		f, err := fs.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		f.Write(data) //nolint:errcheck // MemFS writes cannot fail
		f.Sync()      //nolint:errcheck
		f.Close()     //nolint:errcheck
	}
	return fs
}

// crossSegment journals records through a segmented cross log over a
// fresh MemFS and returns the bytes of its one segment — a valid log to
// truncate or corrupt.
func crossSegment(t *testing.T, recs ...CrossRecord) []byte {
	t.Helper()
	fs := wal.NewMemFS()
	l, _, err := OpenCrossSegmented("", wal.SegmentedOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open(firstSeg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() //nolint:errcheck // read-only
	raw, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// replayCross opens a cross log over fs and returns the records that
// re-create its in-doubt set.
func replayCross(t testing.TB, fs wal.FS, opts wal.SegmentedOptions) ([]CrossRecord, error) {
	t.Helper()
	opts.FS = fs
	l, recs, err := OpenCrossSegmented("", opts)
	if err != nil {
		return nil, err
	}
	return recs, l.Close()
}

func TestCrossLogRoundtrip(t *testing.T) {
	recs := []CrossRecord{
		{Type: RecBegin, Txn: "pay-1", Shards: []int{0, 2, 5}},
		{Type: RecVerdict, Txn: "pay-1", Shard: 2, Decision: types.DecisionCommit},
		{Type: RecVerdict, Txn: "pay-1", Shard: 0, Decision: types.DecisionCommit},
		{Type: RecVerdict, Txn: "pay-1", Shard: 5, Decision: types.DecisionAbort},
		{Type: RecOutcome, Txn: "pay-1", Decision: types.DecisionAbort},
	}
	for i, r := range recs {
		payload, err := encodeCrossPayload(r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeCrossPayload(payload)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Fatalf("record %d: got %+v, want %+v", i, got, r)
		}
	}

	// Through the log: a decided transaction is retired by replay, an
	// undecided one comes back as the records that re-create it — begin,
	// then verdicts in shard order.
	seg := crossSegment(t, append(recs[:len(recs):len(recs)],
		CrossRecord{Type: RecBegin, Txn: "pay-2", Shards: []int{1, 3}},
		CrossRecord{Type: RecVerdict, Txn: "pay-2", Shard: 3, Decision: types.DecisionCommit},
		CrossRecord{Type: RecVerdict, Txn: "pay-2", Shard: 1, Decision: types.DecisionCommit})...)
	got, err := replayCross(t, memWith(t, map[string][]byte{firstSeg: seg}), wal.SegmentedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := []CrossRecord{
		{Type: RecBegin, Txn: "pay-2", Shards: []int{1, 3}},
		{Type: RecVerdict, Txn: "pay-2", Shard: 1, Decision: types.DecisionCommit},
		{Type: RecVerdict, Txn: "pay-2", Shard: 3, Decision: types.DecisionCommit},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %+v, want %+v", got, want)
	}
}

func TestCrossLogTornTail(t *testing.T) {
	full := crossSegment(t,
		CrossRecord{Type: RecBegin, Txn: "t", Shards: []int{0, 1}},
		CrossRecord{Type: RecOutcome, Txn: "t", Decision: types.DecisionCommit})
	// Every torn prefix replays cleanly to a whole-record boundary: the
	// begin alone (in doubt) once it is whole, nothing before that.
	sawInDoubt := false
	for cut := len(full) - 1; cut > 0; cut-- {
		recs, err := replayCross(t, memWith(t, map[string][]byte{firstSeg: full[:cut]}), wal.SegmentedOptions{})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		switch {
		case len(recs) == 0:
		case len(recs) == 1 && recs[0].Type == RecBegin && recs[0].Txn == "t":
			sawInDoubt = true
		default:
			t.Fatalf("cut %d: torn log yielded %+v", cut, recs)
		}
	}
	if !sawInDoubt {
		t.Fatal("no cut left the begin record whole")
	}
}

func TestCrossLogCorruption(t *testing.T) {
	raw := crossSegment(t, CrossRecord{Type: RecBegin, Txn: "t", Shards: []int{0, 1}})
	raw[len(raw)-1] ^= 0xff // flip a payload byte
	if _, err := replayCross(t, memWith(t, map[string][]byte{firstSeg: raw}), wal.SegmentedOptions{}); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("corrupted replay error = %v, want wal.ErrCorrupt", err)
	}

	// A checksum proves the bytes are the ones written, not that they are
	// a record: each of these is CRC-valid and must still be refused.
	payload := func(r CrossRecord) []byte {
		p, err := encodeCrossPayload(r)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for name, p := range map[string][]byte{
		"type 0":             payload(CrossRecord{Type: 0, Txn: "t"}),
		"type 9":             payload(CrossRecord{Type: 9, Txn: "t"}),
		"verdict undecided":  payload(CrossRecord{Type: RecVerdict, Txn: "t", Shard: 1}),
		"outcome undecided":  payload(CrossRecord{Type: RecOutcome, Txn: "t"}),
		"outcome decision 7": payload(CrossRecord{Type: RecOutcome, Txn: "t", Decision: 7}),
		"begin decided":      payload(CrossRecord{Type: RecBegin, Txn: "t", Shards: []int{0, 1}, Decision: types.DecisionCommit}),
		"short":              {byte(RecBegin), 0, 0},
		"id overruns":        append(payload(CrossRecord{Type: RecBegin, Txn: "t", Shards: []int{0, 1}}), 'x'),
	} {
		if _, err := decodeCrossPayload(p); !errors.Is(err, ErrCorruptCross) {
			t.Errorf("%s: decode error = %v, want ErrCorruptCross", name, err)
		}
		_, err := replayCross(t, memWith(t, map[string][]byte{firstSeg: wal.Frame(p)}), wal.SegmentedOptions{})
		if !errors.Is(err, ErrCorruptCross) || !errors.Is(err, wal.ErrCorrupt) {
			t.Errorf("%s: open error = %v, want ErrCorruptCross", name, err)
		}
	}
}

// TestCrossSnapshotAllOrNothing: a snapshot payload is a run of frames
// read by the one frame scanner, which stops quietly at a torn tail — so
// restore must refuse anything short of the whole payload, and leave the
// state it had.
func TestCrossSnapshotAllOrNothing(t *testing.T) {
	src := &crossCodec{open: make(map[string]*CrossState)}
	for _, r := range []CrossRecord{
		{Type: RecBegin, Txn: "a", Shards: []int{0, 1}},
		{Type: RecVerdict, Txn: "a", Shard: 1, Decision: types.DecisionCommit},
		{Type: RecBegin, Txn: "b", Shards: []int{1, 2}},
	} {
		applyCross(src.open, r)
	}
	snap := src.EncodeSnapshot()

	// Frames delimit themselves, so a cut ON a frame boundary is a smaller
	// well-formed snapshot (the outer snapshot frame's checksum is what
	// rules it out on disk); every cut inside a frame must be refused.
	boundary := map[int]bool{}
	off := 0
	for _, r := range src.records() {
		p, err := encodeCrossPayload(r)
		if err != nil {
			t.Fatal(err)
		}
		off += len(wal.Frame(p))
		boundary[off] = true
	}
	fresh := func() *crossCodec {
		return &crossCodec{open: map[string]*CrossState{"keep": {Txn: "keep"}}}
	}
	for cut := 1; cut < len(snap); cut++ {
		if boundary[cut] {
			continue
		}
		dst := fresh()
		if err := dst.RestoreSnapshot(snap[:cut]); !errors.Is(err, ErrCorruptCross) {
			t.Fatalf("cut %d: err = %v, want ErrCorruptCross", cut, err)
		}
		if _, ok := dst.open["keep"]; !ok || len(dst.open) != 1 {
			t.Fatalf("cut %d: failed restore changed the state: %+v", cut, dst.open)
		}
	}
	dst := fresh()
	if err := dst.RestoreSnapshot(append(snap[:len(snap):len(snap)], 0xde, 0xad)); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("trailing bytes: err = %v, want ErrCorrupt", err)
	}
	if _, ok := dst.open["keep"]; !ok || len(dst.open) != 1 {
		t.Fatalf("failed restore changed the state: %+v", dst.open)
	}
	if err := dst.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dst.open, src.open) {
		t.Fatalf("restored %+v, want %+v", dst.open, src.open)
	}
}

// crossStream is a seeded cross-log workload: txns transactions over a
// few shards, begin → verdicts → outcome, with every fourth left without
// an outcome and every seventh without some verdicts — what a coordinator
// that crashed at various points leaves behind.
func crossStream(seed int64, txns int) []CrossRecord {
	rng := rand.New(rand.NewSource(seed))
	var out []CrossRecord
	for i := 0; i < txns; i++ {
		id := fmt.Sprintf("x-%04d", i)
		shards := []int{rng.Intn(3), 3 + rng.Intn(3)}
		out = append(out, CrossRecord{Type: RecBegin, Txn: id, Shards: shards})
		outcome := types.DecisionCommit
		for j, s := range shards {
			if i%7 == 6 && j == 1 {
				continue
			}
			d := types.DecisionCommit
			if rng.Intn(4) == 0 {
				d, outcome = types.DecisionAbort, types.DecisionAbort
			}
			out = append(out, CrossRecord{Type: RecVerdict, Txn: id, Shard: s, Decision: d})
		}
		if i%4 != 3 && i%7 != 6 {
			out = append(out, CrossRecord{Type: RecOutcome, Txn: id, Decision: outcome})
		}
	}
	return out
}

// openSet is the in-doubt subset of a reconstructed log.
func openSet(states map[string]*CrossState) map[string]*CrossState {
	open := make(map[string]*CrossState)
	for id, st := range states {
		if st.InDoubt() {
			open[id] = st
		}
	}
	return open
}

// TestDifferentialCrossSegmentedVsReconstruct: the same record stream
// kept in memory and journaled through the segmented cross log (rotation
// and snapshots forced) must leave the SAME in-doubt set — ReconstructCross
// over the in-memory records is the oracle for what a reopened directory
// hands Recover.
func TestDifferentialCrossSegmentedVsReconstruct(t *testing.T) {
	stream := crossStream(1, 200)
	var mem MemCrossLog
	fs := wal.NewMemFS()
	opts := wal.SegmentedOptions{FS: fs, SegmentBytes: 256, SnapshotEvery: 32}
	seg, recovered, err := OpenCrossSegmented("", opts)
	if err != nil || len(recovered) != 0 {
		t.Fatalf("fresh open: %d records, err %v", len(recovered), err)
	}
	for _, r := range stream {
		if err := mem.Append(r); err != nil {
			t.Fatal(err)
		}
		if err := seg.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	want := openSet(ReconstructCross(mem.Records()))
	if len(want) == 0 {
		t.Fatal("workload left nothing in doubt")
	}

	reg := obs.NewRegistry()
	reopen := opts
	reopen.Registry = reg
	seg2, recovered, err := OpenCrossSegmented("", reopen)
	if err != nil {
		t.Fatal(err)
	}
	defer seg2.Close() //nolint:errcheck
	if got := ReconstructCross(recovered); !reflect.DeepEqual(got, want) {
		t.Fatalf("segmented replay diverged from ReconstructCross:\n got %d open %v\nwant %d open %v", len(got), got, len(want), want)
	}
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	snaps := 0
	for _, name := range names {
		if strings.HasSuffix(name, ".snap") {
			snaps++
		}
	}
	replayed := reg.GaugeVec("wal_replay_records", "", "log").With("cross").Value()
	if snaps == 0 || replayed >= float64(len(stream)) {
		t.Errorf("differential run never exercised a snapshot (%d snapshot files, %v records replayed of %d)", snaps, replayed, len(stream))
	}
}

// TestSingleFileCrossLogRefused: a cross-log path naming a regular file
// — a log in the retired single-file format — must fail by name, never
// start an empty log.
func TestSingleFileCrossLogRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cross.wal")
	if err := os.WriteFile(path, []byte("old log"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := OpenCrossSegmented(path, wal.SegmentedOptions{})
	if err == nil || !strings.Contains(err.Error(), "single-file journals are no longer read: "+path) {
		t.Fatalf("err = %v, want the single-file refusal naming %s", err, path)
	}
}

func TestReconstructCross(t *testing.T) {
	states := ReconstructCross([]CrossRecord{
		{Type: RecBegin, Txn: "a", Shards: []int{0, 1}},
		{Type: RecBegin, Txn: "b", Shards: []int{1, 2}},
		{Type: RecVerdict, Txn: "a", Shard: 0, Decision: types.DecisionCommit},
		{Type: RecVerdict, Txn: "a", Shard: 1, Decision: types.DecisionCommit},
		{Type: RecOutcome, Txn: "a", Decision: types.DecisionCommit},
		{Type: RecVerdict, Txn: "b", Shard: 1, Decision: types.DecisionCommit},
	})
	a, b := states["a"], states["b"]
	if a == nil || b == nil {
		t.Fatalf("missing states: %v", states)
	}
	if a.InDoubt() || !a.Decided || a.Outcome != types.DecisionCommit {
		t.Errorf("txn a: %+v, want decided COMMIT", a)
	}
	if !b.InDoubt() {
		t.Errorf("txn b should be in doubt: %+v", b)
	}
	if b.Verdicts[1] != types.DecisionCommit || b.Verdicts[2] != types.DecisionNone {
		t.Errorf("txn b verdicts: %v", b.Verdicts)
	}
}

func TestCombine(t *testing.T) {
	mk := func(shards []int, vs map[int]types.Decision) *CrossState {
		return &CrossState{Txn: "t", Shards: shards, Verdicts: vs}
	}
	cases := []struct {
		name    string
		st      *CrossState
		want    types.Decision
		decided bool
	}{
		{"all commit", mk([]int{0, 1}, map[int]types.Decision{0: types.DecisionCommit, 1: types.DecisionCommit}), types.DecisionCommit, true},
		{"one abort", mk([]int{0, 1}, map[int]types.Decision{0: types.DecisionCommit, 1: types.DecisionAbort}), types.DecisionAbort, true},
		{"abort with unknown", mk([]int{0, 1, 2}, map[int]types.Decision{1: types.DecisionAbort}), types.DecisionAbort, true},
		{"commit with unknown", mk([]int{0, 1}, map[int]types.Decision{0: types.DecisionCommit}), types.DecisionNone, false},
		{"nothing known", mk([]int{0, 1}, map[int]types.Decision{}), types.DecisionNone, false},
	}
	for _, c := range cases {
		got, decided := combine(c.st)
		if got != c.want || decided != c.decided {
			t.Errorf("%s: combine = (%v, %v), want (%v, %v)", c.name, got, decided, c.want, c.decided)
		}
	}
}
