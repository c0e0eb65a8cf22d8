package transport_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/types"
)

// BenchmarkHubSendRecv measures the in-memory hub's message path.
func BenchmarkHubSendRecv(b *testing.B) {
	hub := transport.NewHub(2, transport.HubOptions{QueueSize: 1 << 16})
	defer hub.Close() //nolint:errcheck
	a, c := hub.Endpoint(0), hub.Endpoint(1)
	msg := types.Message{To: 1, Payload: core.VoteMsg{Val: types.V1}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Send(msg); err != nil {
			b.Fatal(err)
		}
		<-c.Recv()
	}
}

// BenchmarkTCPSendRecv measures the TCP transport round path over
// loopback with binary framing (one persistent connection).
func BenchmarkTCPSendRecv(b *testing.B) {
	n0, err := transport.ListenTCP(0, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer n0.Close() //nolint:errcheck
	n1, err := transport.ListenTCP(1, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer n1.Close() //nolint:errcheck
	peers := map[types.ProcID]string{0: n0.Addr(), 1: n1.Addr()}
	n0.SetPeers(peers)
	n1.SetPeers(peers)
	msg := types.Message{To: 1, Payload: core.Piggyback{
		Inner: core.BatchVoteMsg{Vals: []types.Value{types.V1}},
		Coins: make([]types.Value, 16),
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n0.Send(msg); err != nil {
			b.Fatal(err)
		}
		<-n1.Recv()
	}
}
