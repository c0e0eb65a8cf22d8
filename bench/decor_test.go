package main

import (
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/wal"
)

func TestLinkTimerPairsEachArrivalWithItsSend(t *testing.T) {
	p := newProbe()
	hub := transport.NewHub(3, transport.HubOptions{})
	lt := newLinkTimer(p, 3)
	nodes := make([]transport.Transport, 3)
	for i := range nodes {
		nodes[i] = lt.wrap(types.ProcID(i), hub.Endpoint(types.ProcID(i)))
	}
	from := p.mark()
	// Two links into node 2, interleaved.
	send := func(src int, id string) {
		if err := nodes[src].Send(types.Message{To: 2, Payload: txn.Envelope{Txn: txn.ID(id)}}); err != nil {
			t.Fatal(err)
		}
	}
	send(0, "a1")
	send(1, "b1")
	send(1, "b2")
	send(0, "a2")
	var got []string
	for len(got) < 4 {
		select {
		case m := <-nodes[2].Recv():
			got = append(got, string(m.Payload.(txn.Envelope).Txn))
			if m.To != 2 {
				t.Errorf("message for %d arrived at 2", m.To)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("only %v arrived", got)
		}
	}
	to := p.mark()
	if links := p.linkTimes(from, to); len(links) != 4 {
		t.Errorf("%d link times for 4 messages", len(links))
	} else {
		for _, us := range links {
			if us < 0 || us > 1e6 {
				t.Errorf("link time %v us is not a plausible hub hop", us)
			}
		}
	}
	if n := to.msgs - from.msgs; n != 4 {
		t.Errorf("%d messages counted, want 4", n)
	}
	if to.msgBytes <= from.msgBytes || to.sendBusyNs <= from.sendBusyNs {
		t.Error("bytes or send-busy time did not advance")
	}
	for i := range lt.fifos {
		if n := len(lt.fifos[i].stamps); n != 0 {
			t.Errorf("fifo %d still holds %d stamps after every arrival", i, n)
		}
	}
	if to.busyTicks == from.busyTicks {
		t.Error("no busy tick counted at the receiving node")
	}
	hub.Close() //nolint:errcheck // always nil
	if _, open := <-nodes[2].Recv(); open {
		t.Error("the decorated channel stayed open after the hub closed")
	}
}

func readAll(t *testing.T, fs wal.FS, name string) string {
	t.Helper()
	r, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close() //nolint:errcheck // read side
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestSyncFSCrashCopyKeepsOnlySyncedPrefixes(t *testing.T) {
	p := newProbe()
	fs, err := newSyncFS(wal.NewMemFS(), p)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := fs.OpenAppend("wal-1.seg")
	if err != nil {
		t.Fatal(err)
	}
	write := func(f wal.File, s string) {
		t.Helper()
		if _, err := f.Write([]byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	write(seg, "durable|")
	if err := seg.Sync(); err != nil {
		t.Fatal(err)
	}
	write(seg, "volatile")

	// A snapshot is written under a temporary name, synced, then renamed:
	// the synced length must follow the rename.
	tmp, err := fs.Create("snap-1.tmp")
	if err != nil {
		t.Fatal(err)
	}
	write(tmp, "snapshot")
	if err := tmp.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("snap-1.tmp", "snap-1.snap"); err != nil {
		t.Fatal(err)
	}
	// A file never synced survives as an empty file; a removed one not at all.
	unsynced, err := fs.Create("wal-2.seg")
	if err != nil {
		t.Fatal(err)
	}
	write(unsynced, "lost")
	gone, err := fs.Create("wal-0.seg")
	if err != nil {
		t.Fatal(err)
	}
	write(gone, "old")
	if err := gone.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("wal-0.seg"); err != nil {
		t.Fatal(err)
	}

	fs.cut()
	if _, err := seg.Write([]byte("x")); !errors.Is(err, errCut) {
		t.Errorf("write after the cut: %v, want errCut", err)
	}
	if err := seg.Sync(); !errors.Is(err, errCut) {
		t.Errorf("sync after the cut: %v, want errCut (no ack may follow it)", err)
	}
	if _, err := fs.Create("late"); !errors.Is(err, errCut) {
		t.Errorf("create after the cut: %v, want errCut", err)
	}

	dst := wal.NewMemFS()
	discarded, err := fs.crashCopy(dst)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len("volatile") + len("lost")); discarded != want {
		t.Errorf("discarded %d unsynced bytes, want %d", discarded, want)
	}
	names, _ := dst.List()
	if want := []string{"snap-1.snap", "wal-1.seg", "wal-2.seg"}; len(names) != 3 || names[0] != want[0] || names[1] != want[1] || names[2] != want[2] {
		t.Fatalf("crash copy holds %v, want %v", names, want)
	}
	if got := readAll(t, dst, "wal-1.seg"); got != "durable|" {
		t.Errorf("wal-1.seg = %q, want the synced prefix only", got)
	}
	if got := readAll(t, dst, "snap-1.snap"); got != "snapshot" {
		t.Errorf("snap-1.snap = %q", got)
	}
	if got := readAll(t, dst, "wal-2.seg"); got != "" {
		t.Errorf("wal-2.seg = %q, want empty", got)
	}
	if n := p.mark(); n.fsyncs != 3 || n.walBytes != int64(len("durable|volatilesnapshotlostold")) {
		t.Errorf("probe saw %d fsyncs and %d bytes", n.fsyncs, n.walBytes)
	}

	// Reopening the copy treats what it holds as durable.
	again, err := newSyncFS(dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.synced["wal-1.seg"] != int64(len("durable|")) {
		t.Errorf("reopened synced length %d", again.synced["wal-1.seg"])
	}
}
