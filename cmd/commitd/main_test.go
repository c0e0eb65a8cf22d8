package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/trace"
	"repro/internal/wal"
)

// startDaemon runs the daemon in-process on an ephemeral port and returns
// its base URL plus a stop function that delivers SIGTERM and waits for
// the drained exit.
func startDaemon(t *testing.T, extraArgs ...string) (string, func()) {
	t.Helper()
	args := append([]string{
		"-addr", "127.0.0.1:0", "-n", "3", "-k", "3", "-seed", "42",
	}, extraArgs...)
	var out bytes.Buffer
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- run(args, &out, ready) }()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited early: %v\n%s", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	stop := func() {
		if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("daemon exit: %v\n%s", err, out.String())
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("daemon never drained\n%s", out.String())
		}
		if !strings.Contains(out.String(), "drained") {
			t.Fatalf("no drain summary in output:\n%s", out.String())
		}
	}
	return "http://" + addr, stop
}

func commitOne(t *testing.T, base, id string, votes []bool) service.CommitResponseJSON {
	t.Helper()
	code, out := postCommit(t, base, service.CommitRequestJSON{ID: id, Votes: votes})
	if code != http.StatusOK {
		t.Fatalf("POST /commit status = %d", code)
	}
	return out
}

// postCommit submits one request and returns the HTTP status and, on 200,
// the decoded answer.
func postCommit(t *testing.T, base string, req service.CommitRequestJSON) (int, service.CommitResponseJSON) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/commit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out service.CommitResponseJSON
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, out
}

// getStatus is an id's /status answer, ok false on 404.
func getStatus(t *testing.T, base, id string) (shard.TxnStatus, bool) {
	t.Helper()
	resp, err := http.Get(base + "/status/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st shard.TxnStatus
	if resp.StatusCode != http.StatusOK {
		return st, false
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st, true
}

func TestDaemonChannelBackend(t *testing.T) {
	base, stop := startDaemon(t)

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h service.HealthJSON
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "ok" || h.N != 3 {
		t.Fatalf("healthz = %+v", h)
	}

	if out := commitOne(t, base, "d1", nil); out.State != service.StateCommit {
		t.Fatalf("commit = %+v", out)
	}
	if out := commitOne(t, base, "d2", []bool{true, false, true}); out.State != service.StateAbort {
		t.Fatalf("abort = %+v", out)
	}

	stop()
}

// keyOn returns a key the router of a deployment of shards groups places
// on group k.
func keyOn(t *testing.T, shards, k int) string {
	t.Helper()
	router, err := shard.NewRouter(shards)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		if key := fmt.Sprintf("key-%d", i); router.Route(key) == k {
			return key
		}
	}
}

func TestDaemonTCPBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp backend round trip in -short mode")
	}
	base, stop := startDaemon(t, "-backend", "tcp", "-tick", "2ms")
	for i := 0; i < 3; i++ {
		votes := []bool(nil)
		if i == 1 {
			votes = []bool{false, true, true}
		}
		out := commitOne(t, base, fmt.Sprintf("tcp-%d", i), votes)
		want := service.StateCommit
		if i == 1 {
			want = service.StateAbort
		}
		if out.State != want {
			t.Fatalf("txn %d over tcp = %+v", i, out)
		}
	}
	stop()

	// Each group runs over its own peered loopback nodes, so a cross-shard
	// transaction crosses sockets in both groups and no group builds a hub.
	base, stop = startDaemon(t, "-backend", "tcp", "-tick", "2ms", "-shards", "2")
	defer stop()
	code, out := postCommit(t, base, service.CommitRequestJSON{ID: "tcp-x", Keys: []string{keyOn(t, 2, 0), keyOn(t, 2, 1)}})
	if code != http.StatusOK || out.State != service.StateCommit || len(out.Shards) != 2 {
		t.Fatalf("cross-shard commit over tcp = %d %+v", code, out)
	}
	resp, err := http.Get(base + "/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	prom, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(prom), `transport_messages_delivered_total{transport="tcp"}`) ||
		strings.Contains(string(prom), `transport="channel"`) {
		t.Fatalf("a group did not run over tcp:\n%s", prom)
	}
}

func TestDaemonBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-backend", "carrier-pigeon"}, &out, nil); err == nil {
		t.Fatal("bad backend accepted")
	}
	if err := run([]string{"-n", "4", "-t", "2"}, &out, nil); err == nil {
		t.Fatal("bad cluster shape accepted")
	}
}

func TestDaemonSharded(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "cross")
	base, stop := startDaemon(t, "-shards", "3", "-tick", "500us", "-wal-dir", dir)

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h service.HealthJSON
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "ok" || h.N != 3 || h.Shards != 3 {
		t.Fatalf("healthz = %+v", h)
	}

	// Single-shard commit.
	if out := commitOne(t, base, "sd1", nil); out.State != service.StateCommit || len(out.Shards) != 1 {
		t.Fatalf("single commit = %+v", out)
	}

	// Cross-shard commit: enough distinct keys span >= 2 shards with
	// near-certainty over 3 shards; assert on the reported shard set.
	code, out := postCommit(t, base, service.CommitRequestJSON{
		ID: "sdx", Keys: []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot"},
	})
	if code != http.StatusOK || out.State != service.StateCommit || len(out.Shards) < 2 {
		t.Fatalf("cross commit = %d %+v", code, out)
	}

	stop()

	// A coordinator that died after logging a begin: the next daemon must
	// find it in the directory and settle it before serving.
	log, recs, err := shard.OpenCrossSegmented(walPath, wal.SegmentedOptions{})
	if err != nil || len(recs) != 0 {
		t.Fatalf("reopening the daemon's cross WAL: %d in-doubt records, err %v", len(recs), err)
	}
	if err := log.Append(shard.CrossRecord{Type: shard.RecBegin, Txn: "lost-1", Shards: []int{0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	// The WAL survived the daemon: a second daemon replays it, settles the
	// in-doubt transaction (an unprepared participant aborts) and keeps
	// serving.
	base2, stop2 := startDaemon(t, "-shards", "3", "-tick", "500us", "-wal-dir", dir)
	if st, _ := getStatus(t, base2, "lost-1"); st.State != service.StateAbort {
		t.Fatalf("recovered in-doubt transaction: %+v, want ABORT", st)
	}
	if out := commitOne(t, base2, "sd2", nil); !out.State.Terminal() {
		t.Fatalf("post-restart commit = %+v", out)
	}
	stop2()
}

// layoutDir makes a journal directory holding the given files and
// directories (names ending in "/").
func layoutDir(t *testing.T, names ...string) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range names {
		p := filepath.Join(dir, name)
		var err error
		if strings.HasSuffix(name, "/") {
			err = os.MkdirAll(p, 0o755)
		} else {
			err = os.WriteFile(p, []byte("journal bytes"), 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// listing is every path under dir, relative and sorted.
func listing(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(dir, func(p string, _ os.DirEntry, err error) error {
		if rel, _ := filepath.Rel(dir, p); rel != "." {
			out = append(out, rel)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestDaemonShardedBadFlags(t *testing.T) {
	dir := t.TempDir()
	oldJournal := filepath.Join(dir, "cross.wal")
	if err := os.WriteFile(oldJournal, []byte("single-file journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Refused start-ups with -wal-dir on a fresh path each: none may create it.
	unused, negK, negTick := filepath.Join(dir, "unused"), filepath.Join(dir, "neg-k"), filepath.Join(dir, "neg-tick")
	// Journal directories laid out for another shard count.
	flat := layoutDir(t, "wal-00000001.seg", "snap-00000001.snap")
	wider := layoutDir(t, "shard-0/", "shard-1/", "shard-2/", "cross/")
	narrower := layoutDir(t, "shard-0/")
	for _, c := range []struct {
		name string
		args []string
		want string // substring of the start-up error
	}{
		{"zero shards", []string{"-shards", "0"}, "-shards"},
		// A shape the groups refuse is refused before -wal-dir is created.
		{"cluster shape", []string{"-n", "4", "-t", "2", "-wal-dir", unused}, "need N > 2T"},
		// A negative value is refused, never read as the default.
		{"negative K", []string{"-k", "-1", "-n", "3", "-wal-dir", negK}, "K must be >= 1, got -1"},
		{"negative tick", []string{"-tick", "-1ms", "-n", "3", "-wal-dir", negTick}, "must not be negative, got -1ms"},
		// A journal in the retired single-file format is refused by name,
		// never shadowed by an empty log.
		{"single-file journal, one shard", []string{"-wal-dir", oldJournal}, "single-file journals are no longer read: " + oldJournal},
		{"single-file journal, three shards", []string{"-shards", "3", "-wal-dir", oldJournal}, "single-file journals are no longer read: " + oldJournal},
		// The router maps ids to groups by shard count, so a journal
		// written at another count is refused, never reinterpreted.
		{"segments directly in the journal directory", []string{"-wal-dir", flat}, "move its files into " + filepath.Join(flat, "shard-0")},
		{"a group beyond -shards", []string{"-shards", "2", "-wal-dir", wider}, "holds shard-2"},
		{"a group missing", []string{"-shards", "3", "-wal-dir", narrower}, "holds 1 of the journals shard-0 to shard-2"},
	} {
		var out bytes.Buffer
		ready, done := make(chan string, 1), make(chan error, 1)
		go func() { done <- run(append([]string{"-addr", "127.0.0.1:0"}, c.args...), &out, ready) }()
		var err error
		select {
		case err = <-done:
		case <-ready: // it serves: stop it, and the row fails
			if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
			<-done
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one naming %q", c.name, err, c.want)
		}
	}
	for _, p := range []string{unused, negK, negTick} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("a refused start-up still created %s (stat err %v)", p, err)
		}
	}
	if got, _ := os.ReadFile(oldJournal); string(got) != "single-file journal" {
		t.Errorf("refused journal was modified: %q", got)
	}
	for dir, want := range map[string][]string{
		flat:     {"snap-00000001.snap", "wal-00000001.seg"},
		wider:    {"cross", "shard-0", "shard-1", "shard-2"},
		narrower: {"shard-0"},
	} {
		if got := listing(t, dir); !reflect.DeepEqual(got, want) {
			t.Errorf("refused journal directory was modified: %v, want %v", got, want)
		}
	}
}

// TestDaemonShardedJournalSurvivesRestart: with -shards 3 -wal-dir D every
// acked answer, single-shard and cross-shard, reads the same from /status
// after the daemon stops and a new one starts on D, and an acked
// single-shard id cannot be decided afresh by a client retry.
func TestDaemonShardedJournalSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-shards", "3", "-tick", "500us", "-wal-dir", dir}
	base, stop := startDaemon(t, args...)

	keys := []string{keyOn(t, 3, 0), keyOn(t, 3, 1), keyOn(t, 3, 2)}
	no := []bool{true, false, true}
	var singles []string
	reqs := []service.CommitRequestJSON{
		{ID: "x-commit", Keys: keys[:2]},
		{ID: "x-abort", Keys: keys[1:], Votes: no},
		{ID: "x-wide", Keys: keys},
	}
	for i := 0; i < 6; i++ {
		req := service.CommitRequestJSON{ID: fmt.Sprintf("s-%d", i)}
		if i%2 == 1 {
			req.Votes = no
		}
		reqs = append(reqs, req)
		singles = append(singles, req.ID)
	}
	h := trace.NewHistory()
	status := func(id string) {
		st, _ := getStatus(t, base, id)
		h.Status(id, trace.Answer(st.State))
		if st.Decision != "" {
			h.Status(id, trace.Answer(st.Decision))
		}
	}
	for _, req := range reqs {
		code, res := postCommit(t, base, req)
		if code != http.StatusOK || !res.State.Terminal() {
			t.Fatalf("%s: status %d, answer %+v", req.ID, code, res)
		}
		if wantCross := len(req.Keys) > 0; (len(res.Shards) > 1) != wantCross {
			t.Fatalf("%s ran on shards %v", req.ID, res.Shards)
		}
		h.Votes(req.ID, req.Votes...)
		h.Ack(req.ID, trace.Answer(res.State))
		if res.Decision != "" {
			h.Ack(req.ID, trace.Answer(res.Decision))
		}
		status(req.ID)
	}
	stop()

	h.Restart()
	base, stop = startDaemon(t, args...)
	defer stop()
	for _, req := range reqs {
		status(req.ID)
	}
	for _, v := range h.Check() {
		t.Error(v)
	}
	for _, id := range singles {
		if code, res := postCommit(t, base, service.CommitRequestJSON{ID: id}); code != http.StatusConflict {
			t.Errorf("retry of acked %s: status %d, answer %+v, want 409", id, code, res)
		}
	}
}

// TestJournalsPerGroupMetrics: each group's journal is its own "log"
// series, so the watchdog's fsync sample of an idle group reads nothing
// however busy its neighbour is.
func TestJournalsPerGroupMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	logs, err := openJournals(t.TempDir(), 2, wal.SegmentedOptions{Registry: reg}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := shard.New(shard.Config{
		Shards: 2,
		Group: service.Config{
			N: 3, K: 3, Seed: 5, TickEvery: 500 * time.Microsecond,
			DefaultTimeout: 10 * time.Second, Registry: reg,
		},
		ConfigureGroup: func(k int, g *service.Config) { g.Journal = logs.groups[k] },
		Log:            logs.cross.CrossLog,
	})
	if err != nil {
		logs.close() //nolint:errcheck // already failing
		t.Fatal(err)
	}
	defer func() {
		if err := coord.Close(context.Background()); err != nil {
			t.Error(err)
		}
		if err := logs.close(); err != nil {
			t.Error(err)
		}
	}()
	for i, n := 0, 0; n < 5; i++ {
		id := fmt.Sprintf("busy-%d", i)
		if coord.Router().Route(id) != 0 {
			continue
		}
		if res, err := coord.Submit(context.Background(), shard.Request{ID: id}); err != nil || res.State != service.StateCommit {
			t.Fatalf("%s: %+v, %v", id, res, err)
		}
		n++
	}

	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	var series []string
	for _, line := range strings.Split(prom.String(), "\n") {
		if strings.HasPrefix(line, "wal_fsyncs_total{") {
			series = append(series, strings.Fields(line)[0])
		}
	}
	want := []string{`wal_fsyncs_total{log="cross"}`, `wal_fsyncs_total{log="shard-0"}`, `wal_fsyncs_total{log="shard-1"}`}
	if sort.Strings(series); !reflect.DeepEqual(series, want) {
		t.Fatalf("fsync series = %v, want %v", series, want)
	}

	fsyncs := func(b []obs.Bucket) uint64 {
		if len(b) == 0 {
			return 0
		}
		return b[len(b)-1].Count
	}
	st := coord.WatchStats(time.Hour)
	if busy, idle := fsyncs(st.Shards[0].Fsync), fsyncs(st.Shards[1].Fsync); busy == 0 || idle != 0 {
		t.Fatalf("watch samples read %d fsyncs on the busy group and %d on the idle one", busy, idle)
	}
}

// TestStallAgeDefaultsToAbandonmentAge: at -timeout 50ms a request is
// capped at the abandonment age, the 1000-tick floor (1 s), and -stall-age
// defaults to that age, so a request still inside its deadline is no
// stall: beside two crashed processors of three, a 30 s request answers
// TIMEOUT after about 1 s, and no txn-stall anomaly names a younger age.
func TestStallAgeDefaultsToAbandonmentAge(t *testing.T) {
	base, stop := startDaemon(t, "-timeout", "50ms", "-watch-interval", "50ms")
	defer stop()
	for _, node := range []string{"1", "2"} {
		resp, err := http.Post(base+"/crash/0/"+node, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("POST /crash/0/%s: %d", node, resp.StatusCode)
		}
	}
	start := time.Now()
	code, out := postCommit(t, base, service.CommitRequestJSON{ID: "patient", TimeoutMs: 30_000})
	if took := time.Since(start); code != http.StatusOK || out.State != service.StateTimeout ||
		took < 900*time.Millisecond || took > 5*time.Second {
		t.Fatalf("a 30 s request beside two crashed nodes answered %d %+v after %v, want TIMEOUT after about 1 s", code, out, took)
	}
	resp, err := http.Get(base + "/debug/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Recent []struct{ Rule, Txn, Detail string }
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	for _, a := range health.Recent {
		var state string
		var ageMs int64
		if a.Rule != "txn-stall" {
			continue
		}
		if _, err := fmt.Sscanf(a.Detail, "in state %s for %dms", &state, &ageMs); err != nil {
			t.Fatalf("txn-stall detail %q: %v", a.Detail, err)
		}
		if ageMs < 1000 {
			t.Errorf("txn-stall for %s at %d ms, inside the 1 s abandonment age", a.Txn, ageMs)
		}
	}
}
