package transport_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/types"
)

func recvWithTimeout(t *testing.T, tr transport.Transport, d time.Duration) (types.Message, bool) {
	t.Helper()
	select {
	case m, ok := <-tr.Recv():
		return m, ok
	case <-time.After(d):
		return types.Message{}, false
	}
}

func TestHubBasicDelivery(t *testing.T) {
	hub := transport.NewHub(3, transport.HubOptions{})
	defer hub.Close() //nolint:errcheck
	a, b := hub.Endpoint(0), hub.Endpoint(1)
	if err := a.Send(types.Message{To: 1, Payload: core.VoteMsg{Val: types.V1}}); err != nil {
		t.Fatal(err)
	}
	m, ok := recvWithTimeout(t, b, time.Second)
	if !ok {
		t.Fatal("message not delivered")
	}
	if m.From != 0 || m.To != 1 {
		t.Errorf("message meta = from %d to %d", m.From, m.To)
	}
	if v, okType := m.Payload.(core.VoteMsg); !okType || v.Val != types.V1 {
		t.Errorf("payload = %#v", m.Payload)
	}
}

func TestHubDelayInjection(t *testing.T) {
	hub := transport.NewHub(2, transport.HubOptions{
		Inject: func(types.Message) transport.Fault { return transport.Fault{Delay: 30 * time.Millisecond} },
	})
	defer hub.Close() //nolint:errcheck
	a, b := hub.Endpoint(0), hub.Endpoint(1)
	start := time.Now()
	if err := a.Send(types.Message{To: 1, Payload: core.VoteMsg{}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvWithTimeout(t, b, 2*time.Second); !ok {
		t.Fatal("delayed message never arrived")
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Errorf("message arrived after %v, want >= 30ms", elapsed)
	}
}

func TestHubDropInjection(t *testing.T) {
	hub := transport.NewHub(2, transport.HubOptions{
		Inject: func(m types.Message) transport.Fault { return transport.Fault{Drop: m.To == 1} },
	})
	defer hub.Close() //nolint:errcheck
	a, b := hub.Endpoint(0), hub.Endpoint(1)
	if err := a.Send(types.Message{To: 1}); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvWithTimeout(t, b, 50*time.Millisecond); ok {
		t.Fatal("dropped message delivered")
	}
}

func TestHubCrashStopsTraffic(t *testing.T) {
	hub := transport.NewHub(2, transport.HubOptions{})
	defer hub.Close() //nolint:errcheck
	a, b := hub.Endpoint(0), hub.Endpoint(1)
	hub.Crash(1)
	if err := a.Send(types.Message{To: 1}); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvWithTimeout(t, b, 50*time.Millisecond); ok {
		t.Fatal("crashed node received a message")
	}
	// Outbound from a crashed node is dropped too.
	if err := b.Send(types.Message{To: 0}); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvWithTimeout(t, a, 50*time.Millisecond); ok {
		t.Fatal("message from crashed node delivered")
	}
}

func TestHubCloseRejectsSends(t *testing.T) {
	hub := transport.NewHub(2, transport.HubOptions{})
	a := hub.Endpoint(0)
	if err := hub.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(types.Message{To: 1}); err != transport.ErrClosed {
		t.Errorf("send after close: %v, want ErrClosed", err)
	}
	// Recv channel must be closed.
	if _, ok := <-hub.Endpoint(1).Recv(); ok {
		t.Error("recv channel not closed")
	}
	// Double close is fine.
	if err := hub.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	n0, err := transport.ListenTCP(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n0.Close() //nolint:errcheck
	n1, err := transport.ListenTCP(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close() //nolint:errcheck
	peers := map[types.ProcID]string{0: n0.Addr(), 1: n1.Addr()}
	n0.SetPeers(peers)
	n1.SetPeers(peers)

	payload := core.Piggyback{
		Inner: core.BatchVoteMsg{Vals: []types.Value{types.V1}},
		Coins: []types.Value{1, 0, 1},
	}
	if err := n0.Send(types.Message{To: 1, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	m, ok := recvWithTimeout(t, n1, 2*time.Second)
	if !ok {
		t.Fatal("TCP message not delivered")
	}
	pb, okType := m.Payload.(core.Piggyback)
	if !okType {
		t.Fatalf("payload type %T", m.Payload)
	}
	inner, coins := core.Unwrap(pb)
	if v, okInner := inner.(core.BatchVoteMsg); !okInner || len(v.Vals) != 1 || v.Vals[0] != types.V1 {
		t.Errorf("inner = %#v", inner)
	}
	if len(coins) != 3 || coins[0] != types.V1 {
		t.Errorf("coins = %v", coins)
	}

	// Reply over the reverse direction (separate dial).
	if err := n1.Send(types.Message{To: 0, Payload: core.GoMsg{Coins: coins}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvWithTimeout(t, n0, 2*time.Second); !ok {
		t.Fatal("reverse TCP message not delivered")
	}
}

func TestTCPUnknownAndDeadPeerDropsSilently(t *testing.T) {
	n0, err := transport.ListenTCP(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n0.Close() //nolint:errcheck
	// Unknown peer: no directory entry.
	if err := n0.Send(types.Message{To: 5, Payload: core.GoMsg{}}); err != nil {
		t.Errorf("send to unknown peer errored: %v", err)
	}
	// Dead peer: directory entry pointing nowhere.
	n0.SetPeers(map[types.ProcID]string{1: "127.0.0.1:1"})
	if err := n0.Send(types.Message{To: 1, Payload: core.GoMsg{}}); err != nil {
		t.Errorf("send to dead peer errored: %v", err)
	}
}

func TestTCPCloseIsIdempotentAndRejectsSends(t *testing.T) {
	n0, err := transport.ListenTCP(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := n0.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n0.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	if err := n0.Send(types.Message{To: 0}); err != transport.ErrClosed {
		t.Errorf("send after close = %v, want ErrClosed", err)
	}
}

func TestHubInjectFaults(t *testing.T) {
	// Drop everything to node 1, duplicate everything to node 2 once,
	// delay everything else.
	hub := transport.NewHub(4, transport.HubOptions{
		Inject: func(m types.Message) transport.Fault {
			switch m.To {
			case 1:
				return transport.Fault{Drop: true}
			case 2:
				return transport.Fault{Duplicates: 1}
			default:
				return transport.Fault{Delay: 20 * time.Millisecond}
			}
		},
	})
	defer hub.Close() //nolint:errcheck
	a := hub.Endpoint(0)
	for to := 1; to <= 3; to++ {
		if err := a.Send(types.Message{To: types.ProcID(to), Payload: core.VoteMsg{}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := recvWithTimeout(t, hub.Endpoint(1), 50*time.Millisecond); ok {
		t.Error("dropped message was delivered")
	}
	for i := 0; i < 2; i++ {
		if _, ok := recvWithTimeout(t, hub.Endpoint(2), time.Second); !ok {
			t.Fatalf("duplicate copy %d never arrived", i)
		}
	}
	start := time.Now()
	if _, ok := recvWithTimeout(t, hub.Endpoint(3), 2*time.Second); !ok {
		t.Fatal("delayed message never arrived")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("delayed message took %v", elapsed)
	}
}

func TestHubRestartRestoresTraffic(t *testing.T) {
	hub := transport.NewHub(2, transport.HubOptions{})
	defer hub.Close() //nolint:errcheck
	a, b := hub.Endpoint(0), hub.Endpoint(1)
	hub.Crash(1)
	if err := a.Send(types.Message{To: 1, Payload: core.VoteMsg{}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvWithTimeout(t, b, 30*time.Millisecond); ok {
		t.Fatal("crashed node received a message")
	}
	hub.Restart(1)
	if err := a.Send(types.Message{To: 1, Payload: core.VoteMsg{}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvWithTimeout(t, b, time.Second); !ok {
		t.Fatal("restarted node never received a message")
	}
}

func TestHubCrashAfterCloseIsNoop(t *testing.T) {
	hub := transport.NewHub(2, transport.HubOptions{})
	if err := hub.Close(); err != nil {
		t.Fatal(err)
	}
	hub.Crash(1)   // must not panic or resurrect state
	hub.Restart(1) // likewise
}
