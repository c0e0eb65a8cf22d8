package service

// The service hosts its nodes one way — a runtime.Cluster over a
// transport set — so every hosting behaviour is checked on both sets it
// runs over: the hub the cluster builds for itself and supplied loopback
// TCP nodes.

import (
	"context"
	"strconv"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/types"
)

// onBothTransportSets runs body once with nil transports (the cluster's
// own hub) and once with n peered loopback TCP nodes. The service under
// test owns the transports it is given.
func onBothTransportSets(t *testing.T, n int, body func(t *testing.T, trs []transport.Transport)) {
	t.Run("hub", func(t *testing.T) { body(t, nil) })
	t.Run("tcp", func(t *testing.T) {
		nodes := make([]*transport.TCPNode, n)
		peers := make(map[types.ProcID]string, n)
		for p := range nodes {
			tn, err := transport.ListenTCP(types.ProcID(p), "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { tn.Close() }) //nolint:errcheck // idempotent; the service closes it first
			nodes[p], peers[types.ProcID(p)] = tn, tn.Addr()
		}
		trs := make([]transport.Transport, n)
		for p, tn := range nodes {
			tn.SetPeers(peers)
			trs[p] = tn
		}
		body(t, trs)
	})
}

// crashCount reads runtime_node_crashes_total for one node.
func crashCount(s *Service, p types.ProcID) uint64 {
	return s.Registry().CounterVec("runtime_node_crashes_total", "", "node").
		With(strconv.Itoa(int(p))).Value()
}

// TestCrashRescueDecideThenClose: a coordinator fail-stopped before its
// GO reached anybody strands its batch; the rescue re-begins it on a live
// node and the survivors decide it. A second Crash of the same node changes
// nothing, the crash is counted once, and Close returns nil although the
// crashed node died mid-run.
func TestCrashRescueDecideThenClose(t *testing.T) {
	onBothTransportSets(t, 3, func(t *testing.T, trs []transport.Transport) {
		// The gate holds the GO flood: the batch stays known to its
		// coordinator alone until the crash, and the rescuer's flood leaves
		// only once the gate opens.
		gate, trs := NewGate(3, trs)
		s, err := New(Config{N: 3, K: 3, Seed: 31, TickEvery: time.Millisecond,
			DefaultTimeout: 20 * time.Second, Transports: trs})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan Result, 1)
		go func() {
			res, err := s.Submit(context.Background(), Request{ID: "stranded"})
			if err != nil {
				t.Error(err)
			}
			done <- res
		}()
		var coord types.ProcID
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(200 * time.Microsecond) {
			if st, ok := s.Status("stranded"); ok && st.State == StateRunning {
				coord = st.Coordinator
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("never dispatched")
			}
		}
		if got := liveInstances(s, coord); got != 0 {
			t.Fatalf("pre-crash: %d instances off the coordinator through a held gate", got)
		}
		if err := s.Crash(coord); err != nil {
			t.Fatal(err)
		}
		if got := s.met.rescues.Value(); got != 1 {
			t.Fatalf("rescues = %d, want 1: the stranded batch was not re-begun", got)
		}
		if err := s.Crash(coord); err != nil {
			t.Fatalf("second crash of the same node: %v", err)
		}
		gate.Release()
		select {
		case res := <-done:
			if res.State != StateCommit && res.State != StateAbort {
				t.Fatalf("stranded transaction resolved %+v, want a decision", res)
			}
			if st, _ := s.Status("stranded"); st.Coordinator == coord {
				t.Fatalf("status still names the crashed coordinator %d", coord)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("stranded transaction never decided")
		}
		m := s.Metrics()
		if len(m.Crashed) != 1 || m.Crashed[0] != int(coord) || m.SafetyViolations != 0 {
			t.Fatalf("metrics = %+v", m)
		}
		if got := crashCount(s, coord); got != 1 {
			t.Fatalf("runtime_node_crashes_total{node=%d} = %d, want 1", coord, got)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Fatalf("Close with a crashed node: %v", err)
		}
	})
}

// TestDrainUnderDeadline: with two of three nodes crashed nothing can
// decide; Close under a short deadline still resolves every admitted
// submission as TIMEOUT and returns nil.
func TestDrainUnderDeadline(t *testing.T) {
	onBothTransportSets(t, 3, func(t *testing.T, trs []transport.Transport) {
		s, err := New(Config{N: 3, K: 3, Seed: 37, TickEvery: time.Millisecond,
			DefaultTimeout: time.Hour, Transports: trs})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []types.ProcID{1, 2} {
			if err := s.Crash(p); err != nil {
				t.Fatal(err)
			}
		}
		const load = 6
		results := make(chan Result, load)
		for i := 0; i < load; i++ {
			go func() {
				res, err := s.Submit(context.Background(), Request{})
				if err != nil {
					t.Error(err)
				}
				results <- res
			}()
		}
		for deadline := time.Now().Add(5 * time.Second); s.Metrics().Submitted < load; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("submissions never admitted")
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Fatalf("Close past its deadline: %v", err)
		}
		for i := 0; i < load; i++ {
			select {
			case res := <-results:
				if res.State != StateTimeout {
					t.Fatalf("stalled submission resolved %+v", res)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("submission hung through the drain deadline")
			}
		}
	})
}
