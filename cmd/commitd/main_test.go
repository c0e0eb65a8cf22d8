package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/shard"
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
	body, err := json.Marshal(service.CommitRequestJSON{ID: id, Votes: votes})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/commit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /commit status = %d", resp.StatusCode)
	}
	var out service.CommitResponseJSON
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
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
	walPath := dir + "/cross"
	base, stop := startDaemon(t, "-shards", "3", "-tick", "500us", "-cross-wal", walPath)

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
	body, err := json.Marshal(service.CommitRequestJSON{
		ID: "sdx", Keys: []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot"},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(base+"/commit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out service.CommitResponseJSON
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if out.State != service.StateCommit || len(out.Shards) < 2 {
		t.Fatalf("cross commit = %+v", out)
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
	base2, stop2 := startDaemon(t, "-shards", "3", "-tick", "500us", "-cross-wal", walPath)
	resp, err = http.Get(base2 + "/status/lost-1")
	if err != nil {
		t.Fatal(err)
	}
	var st shard.TxnStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.State != service.StateAbort {
		t.Fatalf("recovered in-doubt transaction: %+v, want ABORT", st)
	}
	if out := commitOne(t, base2, "sd2", nil); !out.State.Terminal() {
		t.Fatalf("post-restart commit = %+v", out)
	}
	stop2()
}

func TestDaemonShardedBadFlags(t *testing.T) {
	dir := t.TempDir()
	oldJournal := filepath.Join(dir, "cross.wal")
	if err := os.WriteFile(oldJournal, []byte("single-file journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	unused := filepath.Join(dir, "unused")
	for _, c := range []struct {
		name string
		args []string
		want string // substring of the start-up error
	}{
		{"zero shards", []string{"-shards", "0"}, "-shards"},
		{"tcp backend with multiple shards", []string{"-shards", "2", "-backend", "tcp"}, "-backend tcp"},
		// A journal flag the mode never reads must not parse silently: the
		// operator would believe acks are durable while nothing is logged.
		{"decision journal on a sharded daemon", []string{"-shards", "4", "-wal-dir", unused}, "-wal-dir"},
		{"cross WAL on a single-shard daemon", []string{"-shards", "1", "-cross-wal", unused}, "-cross-wal"},
		// A journal in the retired single-file format is refused by name,
		// never shadowed by an empty log.
		{"single-file cross WAL", []string{"-shards", "3", "-cross-wal", oldJournal}, "single-file journals are no longer read: " + oldJournal},
		{"single-file decision journal", []string{"-wal-dir", oldJournal}, "single-file journals are no longer read: " + oldJournal},
	} {
		var out bytes.Buffer
		err := run(append([]string{"-addr", "127.0.0.1:0"}, c.args...), &out, nil)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one naming %q", c.name, err, c.want)
		}
	}
	if _, err := os.Stat(unused); !os.IsNotExist(err) {
		t.Errorf("a rejected journal flag still created %s (stat err %v)", unused, err)
	}
	if got, _ := os.ReadFile(oldJournal); string(got) != "single-file journal" {
		t.Errorf("refused journal was modified: %q", got)
	}
}
