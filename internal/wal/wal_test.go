package wal_test

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/types"
	"repro/internal/wal"
)

// firstSeg is the file a fresh segmented log appends to.
const firstSeg = "wal-00000001.seg"

// decision is one journaled transaction outcome.
type decision struct {
	id string
	d  types.Decision
}

// decisionSegment journals decisions through a DecisionLog over a fresh
// MemFS and returns the bytes of its one segment — a valid log to
// truncate or corrupt.
func decisionSegment(t *testing.T, ds ...decision) []byte {
	t.Helper()
	fs := wal.NewMemFS()
	dl, err := wal.OpenDecisionLog(wal.SegmentedOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range ds {
		if err := dl.AppendSync(x.id, x.d); err != nil {
			t.Fatal(err)
		}
	}
	if err := dl.Close(); err != nil {
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

// replaySegment opens a decision journal whose one segment holds seg — the
// way every on-disk byte reaches a decoder: through the segmented open
// and its one frame scanner.
func replaySegment(t testing.TB, seg []byte) (map[string]types.Decision, error) {
	t.Helper()
	dl, err := wal.OpenDecisionLog(wal.SegmentedOptions{FS: memWith(t, map[string][]byte{firstSeg: seg})})
	if err != nil {
		return nil, err
	}
	return dl.Recovered(), dl.Close()
}

// TestRoundTrip: decide and retire records replay to their fold, the
// last decide of an id winning until a retire drops it.
func TestRoundTrip(t *testing.T) {
	fs := wal.NewMemFS()
	dl, err := wal.OpenDecisionLog(wal.SegmentedOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []decision{{"a", types.DecisionCommit}, {"b", types.DecisionAbort}, {"", types.DecisionCommit}, {"c", types.DecisionCommit}} {
		if err := dl.AppendSync(x.id, x.d); err != nil {
			t.Fatal(err)
		}
	}
	if err := dl.Retire("c"); err != nil {
		t.Fatal(err)
	}
	if err := dl.Close(); err != nil {
		t.Fatal(err)
	}
	dl, err = wal.OpenDecisionLog(wal.SegmentedOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer dl.Close() //nolint:errcheck
	want := map[string]types.Decision{"a": types.DecisionCommit, "b": types.DecisionAbort, "": types.DecisionCommit}
	if got := dl.Recovered(); !reflect.DeepEqual(got, want) {
		t.Errorf("replayed %v, want %v", got, want)
	}
}

func TestTornTailIsTolerated(t *testing.T) {
	full := decisionSegment(t, decision{"first", types.DecisionCommit}, decision{"second", types.DecisionAbort})
	// Chop bytes off the end: replay must never error, and must return
	// the first record intact once the second is incomplete.
	for cut := 1; cut < 12; cut++ {
		got, err := replaySegment(t, full[:len(full)-cut])
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if want := map[string]types.Decision{"first": types.DecisionCommit}; !reflect.DeepEqual(got, want) {
			t.Fatalf("cut=%d: replayed %v, want the first decision alone", cut, got)
		}
	}
}

func TestCorruptionDetected(t *testing.T) {
	raw := decisionSegment(t, decision{"txn", types.DecisionCommit})
	raw[len(raw)-1] ^= 0xFF // flip a payload bit
	if _, err := replaySegment(t, raw); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestImplausibleLengthRejected(t *testing.T) {
	raw := []byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0, 1, 2, 3}
	if _, err := replaySegment(t, raw); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// TestSingleFileJournalRefused: a journal path naming a regular file — a
// journal in the retired single-file format — must fail by name, never
// start an empty log.
func TestSingleFileJournalRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "proc3.wal")
	if err := os.WriteFile(path, []byte("old journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := wal.NewDirFS(path)
	if err == nil || !strings.Contains(err.Error(), "single-file journals are no longer read: "+path) {
		t.Fatalf("err = %v, want the single-file refusal naming %s", err, path)
	}
	if got, _ := os.ReadFile(path); string(got) != "old journal" {
		t.Fatalf("refused journal was modified: %q", got)
	}
}

func TestReconstruct(t *testing.T) {
	s := wal.Reconstruct([]wal.Record{
		{Type: wal.RecordVote, Value: types.V1},
		{Type: wal.RecordCoins, Coins: []types.Value{1, 0}},
		{Type: wal.RecordVote, Value: types.V0}, // demotion overwrites
		{Type: wal.RecordInput, Value: types.V0},
		{Type: wal.RecordDecision, Value: types.V0},
	})
	if !s.HasVote || s.Vote != types.V0 {
		t.Errorf("vote = %+v", s)
	}
	if len(s.Coins) != 2 {
		t.Errorf("coins = %v", s.Coins)
	}
	if !s.HasInput || s.Input != types.V0 {
		t.Errorf("input = %+v", s)
	}
	if !s.Decided || s.Decision != types.V0 {
		t.Errorf("decision = %+v", s)
	}
	if empty := wal.Reconstruct(nil); empty.Decided || empty.HasVote {
		t.Errorf("empty state = %+v", empty)
	}
}

func TestRecordTypeString(t *testing.T) {
	for rt, want := range map[wal.RecordType]string{
		wal.RecordVote: "vote", wal.RecordCoins: "coins",
		wal.RecordInput: "input", wal.RecordDecision: "decision",
		wal.RecordType(99): "RecordType(99)",
	} {
		if rt.String() != want {
			t.Errorf("%d -> %q, want %q", rt, rt.String(), want)
		}
	}
}

// TestQuickRoundTrip: any id and decision survive a journal round trip.
func TestQuickRoundTrip(t *testing.T) {
	f := func(id string, commit bool) bool {
		d := types.DecisionAbort
		if commit {
			d = types.DecisionCommit
		}
		got, err := replaySegment(t, decisionSegment(t, decision{id, d}))
		return err == nil && len(got) == 1 && got[id] == d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestLoggedCommitJournal runs a full simulated commit with every machine
// journaled and confirms the logs reconstruct to the protocol outcome.
func TestLoggedCommitJournal(t *testing.T) {
	n := 5
	journals := make([]wal.Records, n)
	machines := make([]types.Machine, n)
	logged := make([]*wal.LoggedCommit, n)
	for i := 0; i < n; i++ {
		m, err := core.New(core.Config{
			ID: types.ProcID(i), N: n, T: 2, K: 4, Vote: types.V1, Gadget: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		logged[i] = wal.NewLoggedCommit(m, &journals[i])
		machines[i] = logged[i]
	}
	res, err := sim.Run(sim.Config{
		K: 4, Machines: machines, Adversary: &adversary.RoundRobin{},
		Seeds: rng.NewCollection(7, n),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllNonfaultyDecided() {
		t.Fatal("run undecided")
	}
	for p := 0; p < n; p++ {
		s := wal.Reconstruct(journals[p])
		if !s.Decided || s.Decision != res.Values[p] {
			t.Errorf("proc %d reconstructed %+v, run decided %v", p, s, res.Values[p])
		}
		if !s.HasVote || s.Vote != types.V1 {
			t.Errorf("proc %d vote not journaled: %+v", p, s)
		}
		if len(s.Coins) != n {
			t.Errorf("proc %d coins not journaled: %v", p, s.Coins)
		}
		if !s.HasInput || s.Input != types.V1 {
			t.Errorf("proc %d input not journaled: %+v", p, s)
		}
	}
}

// TestLoggedCommitJournalsDemotion confirms the 2K-timeout vote demotion
// is captured (the record a recovering processor needs to know it already
// promised nothing).
func TestLoggedCommitJournalsDemotion(t *testing.T) {
	n := 3
	var records wal.Records
	m, err := core.New(core.Config{ID: 1, N: n, T: 1, K: 2, Vote: types.V1, Gadget: true})
	if err != nil {
		t.Fatal(err)
	}
	lm := wal.NewLoggedCommit(m, &records)
	st := rng.NewStream(1)
	// Wake with a bare GO, then starve through the 2K timeout.
	lm.Step([]types.Message{{From: 0, To: 1, Payload: core.GoMsg{Coins: []types.Value{0, 1, 0}}}}, st)
	for i := 0; i < 6; i++ {
		lm.Step(nil, st)
	}
	votes := 0
	for _, r := range records {
		if r.Type == wal.RecordVote {
			votes++
		}
	}
	if votes < 2 {
		t.Fatalf("expected initial vote + demotion, got %d vote records", votes)
	}
	s := wal.Reconstruct(records)
	if s.Vote != types.V0 {
		t.Fatalf("final journaled vote = %v, want demoted 0", s.Vote)
	}
}
