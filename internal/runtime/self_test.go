package runtime_test

// Self-delivery: a node hands its machine's messages to itself straight
// back, so the transport carries only real links. The schedules are wall
// time, a wake and a tick; nothing reads a payload: content-oblivious.

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/runtime"
	"repro/internal/service"
	"repro/internal/transport"
	"repro/internal/types"
)

// countingTransport counts the sends that reach the transport, and those
// among them addressed to the node itself.
type countingTransport struct {
	transport.Transport
	id        types.ProcID
	sent, own atomic.Int64
}

func (c *countingTransport) Send(msg types.Message) error {
	c.sent.Add(1)
	if msg.To == c.id {
		c.own.Add(1)
	}
	return c.Transport.Send(msg)
}

// hello broadcasts once and counts what comes back from itself and from
// its peers. It comes in two kinds: one speaks at its first delivery (a
// wake), the other at its first tick (onTick).
type hello struct {
	id       types.ProcID
	n        int
	onTick   bool
	said     bool
	ticks    atomic.Int64
	fromSelf atomic.Int64
	fromPeer atomic.Int64
}

func (h *hello) ID() types.ProcID              { return h.id }
func (h *hello) Clock() int                    { return int(h.ticks.Load()) }
func (h *hello) Decision() (types.Value, bool) { return 0, false }
func (h *hello) Halted() bool                  { return false }

func (h *hello) Step(received []types.Message, _ types.Rand) []types.Message {
	h.ticks.Add(1)
	return h.run(received, h.onTick)
}

func (h *hello) Deliver(received []types.Message, _ types.Rand) []types.Message {
	return h.run(received, !h.onTick)
}

func (h *hello) run(received []types.Message, speak bool) []types.Message {
	for _, m := range received {
		if m.From == h.id {
			h.fromSelf.Add(1)
		} else {
			h.fromPeer.Add(1)
		}
	}
	if h.said || !speak {
		return nil
	}
	h.said = true
	return types.Broadcast(h.id, h.n, core.GoMsg{}) // a payload the wire carries
}

// chatter answers itself on every run, Step or Deliver: left alone, a node
// hosting it is never idle.
type chatter struct {
	counter
	runs atomic.Int64
}

func (c *chatter) Step(received []types.Message, rnd types.Rand) []types.Message {
	c.ticks.Add(1)
	return c.Deliver(received, rnd)
}

func (c *chatter) Deliver([]types.Message, types.Rand) []types.Message {
	c.runs.Add(1)
	return []types.Message{{From: c.id, To: c.id, Payload: ping{}}}
}

// startNode runs m as a standalone node over tr until the test ends (or
// the caller stops it first).
func startNode(t *testing.T, ctx context.Context, m types.Machine, tr transport.Transport, tick time.Duration) *runtime.Node {
	t.Helper()
	node, err := runtime.NewNode(runtime.NodeConfig{
		Machine: m, Transport: tr, Rand: rng.NewStream(uint64(m.ID()) + 1),
		TickEvery: tick, Persistent: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	node.Start(ctx)
	t.Cleanup(func() {
		node.Stop()
		<-node.Done()
	})
	return node
}

// pair returns two connected transports of the backend, counting sends.
func pair(t *testing.T, backend string) []*countingTransport {
	t.Helper()
	inner := make([]transport.Transport, 2)
	if backend == "hub" {
		hub := transport.NewHub(2, transport.HubOptions{})
		t.Cleanup(func() { hub.Close() }) //nolint:errcheck
		inner[0], inner[1] = hub.Endpoint(0), hub.Endpoint(1)
	} else {
		peers := map[types.ProcID]string{}
		for p := range inner {
			tn, err := transport.ListenTCP(types.ProcID(p), "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { tn.Close() }) //nolint:errcheck
			peers[types.ProcID(p)] = tn.Addr()
			inner[p] = tn
		}
		for _, tr := range inner {
			tr.(*transport.TCPNode).SetPeers(peers)
		}
	}
	return []*countingTransport{{Transport: inner[0], id: 0}, {Transport: inner[1], id: 1}}
}

func TestSelfDeliveryBypassesTransportContentOblivious(t *testing.T) {
	for _, backend := range []string{"hub", "tcp"} {
		t.Run("both kinds of machine hear themselves, the transport never carries it/"+backend, func(t *testing.T) {
			trs := pair(t, backend)
			// Node 0 speaks when woken, its clock an hour away; node 1 speaks
			// at its first tick, its next a long way off. Either way its own
			// message comes back in a re-delivery, not at a later tick.
			d := &hello{id: 0, n: 2}
			s := &hello{id: 1, n: 2, onTick: true}
			dn := startNode(t, context.Background(), d, trs[0], time.Hour)
			startNode(t, context.Background(), s, trs[1], 100*time.Millisecond)
			dn.Wake()
			waitFor(t, "both machines to hear from themselves and each other", func() bool {
				return d.fromSelf.Load() == 1 && d.fromPeer.Load() == 1 && s.fromSelf.Load() == 1 && s.fromPeer.Load() == 1
			})
			if d.ticks.Load() != 0 {
				t.Errorf("the woken node ticked %d times an hour early", d.ticks.Load())
			}
			if s.ticks.Load() != 1 {
				t.Errorf("the ticked node heard itself after %d ticks, want within the tick it spoke in", s.ticks.Load())
			}
			for p, tr := range trs {
				if own, sent := tr.own.Load(), tr.sent.Load(); own != 0 || sent != 1 {
					t.Errorf("node %d: the transport saw %d sends, %d of them to itself; want the one to its peer", p, sent, own)
				}
			}
		})
	}

	t.Run("a one-node service decides without a tick and sends nothing", func(t *testing.T) {
		hub := transport.NewHub(1, transport.HubOptions{})
		tr := &countingTransport{Transport: hub.Endpoint(0), id: 0}
		svc, err := service.New(service.Config{N: 1, TickEvery: time.Hour, Transports: []transport.Transport{tr}})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close(context.Background()) //nolint:errcheck
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		for i := 0; i < 3; i++ {
			res, err := svc.Submit(ctx, service.Request{})
			if err != nil || res.State != service.StateCommit {
				t.Fatalf("submission %d: %+v %v, want COMMIT long before the first tick", i, res, err)
			}
		}
		if sent := tr.sent.Load(); sent != 0 {
			t.Errorf("a one-node service sent %d messages over its transport", sent)
		}
	})

	t.Run("a machine that answers itself forever cannot starve a tick, a stop or a cancellation", func(t *testing.T) {
		hub := transport.NewHub(2, transport.HubOptions{})
		defer hub.Close() //nolint:errcheck
		loud := &chatter{counter: counter{id: 0}}
		node := startNode(t, context.Background(), loud, hub.Endpoint(0), time.Millisecond)
		node.Wake()
		waitFor(t, "ticks beside the self-deliveries", func() bool { return loud.ticks.Load() >= 5 })
		if loud.runs.Load() <= loud.ticks.Load() {
			t.Fatalf("%d runs in %d ticks: the machine is not answering itself between ticks", loud.runs.Load(), loud.ticks.Load())
		}
		node.Stop()
		select {
		case <-node.Done():
		case <-time.After(2 * time.Second):
			t.Fatal("Stop did not end a node busy with its own messages")
		}

		ctx, cancel := context.WithCancel(context.Background())
		loud2 := &chatter{counter: counter{id: 1}}
		node2 := startNode(t, ctx, loud2, hub.Endpoint(1), time.Hour)
		node2.Wake()
		waitFor(t, "self-deliveries", func() bool { return loud2.runs.Load() >= 100 })
		cancel()
		done := make(chan error, 1)
		go func() { done <- node2.Wait() }()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Errorf("cancelled node ended with %v", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("cancellation did not end a node busy with its own messages")
		}
	})
}
