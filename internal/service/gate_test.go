package service

import (
	"sync"

	"repro/internal/transport"
	"repro/internal/types"
)

// Gate freezes a service's network for a test: every Send on the
// transports it wraps is held, in order, until Release. Nodes act on a
// message the moment it arrives, so a protocol window — a batch begun
// whose GO has not left its coordinator — stays open only while nothing
// can arrive. Exported so the external test package shares it.
type Gate struct {
	mu   sync.Mutex
	open bool
	held []heldSend
}

type heldSend struct {
	tr  transport.Transport
	msg types.Message
}

// NewGate wraps trs for Config.Transports; nil trs wraps the endpoints of
// a fresh n-node hub, so hub and TCP arms gate alike.
func NewGate(n int, trs []transport.Transport) (*Gate, []transport.Transport) {
	if trs == nil {
		hub := transport.NewHub(n, transport.HubOptions{})
		trs = make([]transport.Transport, n)
		for p := range trs {
			trs[p] = hub.Endpoint(types.ProcID(p))
		}
	}
	g := &Gate{}
	out := make([]transport.Transport, len(trs))
	for p, tr := range trs {
		out[p] = gatedTransport{tr, g}
	}
	return g, out
}

// Release sends everything held, in the order it was sent, and lets later
// sends straight through. What a node crashed meanwhile had sent is lost
// with its closed transport, as a crash loses it.
func (g *Gate) Release() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.open = true
	for _, h := range g.held {
		h.tr.Send(h.msg) //nolint:errcheck // a crashed sender's transport is closed
	}
	g.held = nil
}

type gatedTransport struct {
	transport.Transport
	g *Gate
}

func (t gatedTransport) Send(msg types.Message) error {
	t.g.mu.Lock()
	if !t.g.open {
		t.g.held = append(t.g.held, heldSend{t.Transport, msg})
		t.g.mu.Unlock()
		return nil
	}
	t.g.mu.Unlock()
	return t.Transport.Send(msg)
}
