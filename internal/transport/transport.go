// Package transport provides message transports for the live (goroutine)
// runtime: an in-memory hub with latency, loss, and crash injection, and a
// TCP transport over stdlib net with length-prefixed binary framing.
//
// Transports are intentionally weaker than the simulator's adversary: they
// model the paper's network (messages usually arrive promptly, sometimes
// late, never corrupted) rather than a worst-case scheduler. The protocol
// machines are identical in both environments.
package transport

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/types"
)

// ErrClosed is returned by operations on a closed transport.
var ErrClosed = errors.New("transport: closed")

// Transport moves messages for one node.
type Transport interface {
	// Send dispatches one message toward its To processor. Send never
	// blocks on slow receivers; messages to unreachable nodes are
	// dropped, matching crash semantics.
	Send(msg types.Message) error
	// Recv returns the channel of inbound messages. It is closed when
	// the transport closes.
	Recv() <-chan types.Message
	// Close releases resources; subsequent Sends fail with ErrClosed.
	Close() error
}

// Fault is an injector's verdict for one message: drop it, deliver extra
// copies, and/or hold it back. The zero value is "deliver normally".
// Faults model the paper's adversary at the network layer — loss,
// duplication, and arbitrary-but-finite delay; payloads are never
// corrupted.
type Fault struct {
	// Drop discards the message (and any duplicates).
	Drop bool
	// Duplicates delivers that many extra copies of the message.
	Duplicates int
	// Delay postpones delivery of the message and its copies.
	Delay time.Duration
}

// HubQueueSize is every hub's per-node inbound bound.
const HubQueueSize = 4096

// HubOptions configures an in-memory hub's fault injection and
// instrumentation; its inbound bound is HubQueueSize.
type HubOptions struct {
	// Inject, if non-nil, is consulted once per message with the full
	// fault vocabulary (drop, duplicate, delay). A runtime node's messages
	// to itself never reach the hub (DESIGN §13), so faults act on real
	// links only.
	Inject func(msg types.Message) Fault
	// Registry, if non-nil, receives the hub's transport metrics
	// (messages/bytes sent, delivered, dropped, per-link delay).
	Registry *obs.Registry
	// Spans, if non-nil, receives one link span per non-dropped message
	// of a traced transaction (send time to scheduled delivery). Payloads
	// carrying a transaction id (anything with a TxnID() string method,
	// e.g. txn.BatchEnvelope) are attributed to that transaction; one
	// whose Untraced() bool method reports true, a frame of an instance
	// the collector does not trace (span.Collector.Traced), gets no span,
	// so the hub neither hashes nor reads the clock for it.
	Spans *span.Collector
}

// Hub is an in-memory message switch connecting n endpoints.
//
// Crash and close state is kept in atomics so the deliver fast path reads
// them without taking the hub lock; the mutex only serializes enqueue
// against channel close (sending on a closed channel panics, so the
// authoritative closed check stays under the lock).
type Hub struct {
	opts HubOptions
	m    metrics

	crashed []atomic.Bool
	closing atomic.Bool

	// sink, once set, takes every message instead of the per-node queues
	// (Divert).
	sink atomic.Pointer[func(types.Message) bool]

	mu     sync.Mutex
	queues []chan types.Message
	closed bool
	timers sync.WaitGroup
}

// NewHub creates a hub for n nodes.
func NewHub(n int, opts HubOptions) *Hub {
	h := &Hub{opts: opts, m: newMetrics(opts.Registry, "channel"),
		queues: make([]chan types.Message, n), crashed: make([]atomic.Bool, n)}
	for i := range h.queues {
		h.queues[i] = make(chan types.Message, HubQueueSize)
	}
	return h
}

// Divert hands every message delivered from now on to sink, once per
// copy, instead of to the per-node queues: the runtime's group driver,
// which steps every node on one goroutine, takes them into its own queue.
// The crash, drop, duplicate and delay rules stay the hub's. Call it before
// any message is sent: a message that races it may still land in a per-node
// queue nobody reads. sink runs on the sender's goroutine, or on a timer's
// for a delayed message; it must not block, and reports false for a message
// it dropped (an overflow).
func (h *Hub) Divert(sink func(types.Message) bool) {
	h.sink.Store(&sink)
}

// Endpoint returns node p's transport.
func (h *Hub) Endpoint(p types.ProcID) Transport {
	return &hubEndpoint{hub: h, id: p}
}

// Crash disconnects node p: all of its future inbound and outbound
// messages are dropped. Crashing a closed (or closing) hub is a no-op —
// fault injectors firing from timers may race shutdown.
func (h *Hub) Crash(p types.ProcID) {
	if h.closing.Load() {
		return
	}
	h.crashed[p].Store(true)
}

// Restart reconnects a crashed node p: its traffic flows again. The
// paper's crash-restart story — a recovered processor rejoins the network
// and re-learns the outcome. Restarting on a closed hub is a no-op.
func (h *Hub) Restart(p types.ProcID) {
	if h.closing.Load() {
		return
	}
	h.crashed[p].Store(false)
}

// Close shuts the hub down, closing all inbound channels after in-flight
// delayed messages settle.
func (h *Hub) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	h.closing.Store(true)
	h.mu.Unlock()
	h.timers.Wait()
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, q := range h.queues {
		close(q)
	}
	return nil
}

// deliver enqueues a message subject to crash/drop/delay rules.
func (h *Hub) deliver(msg types.Message) error {
	h.m.sent.Inc()
	h.m.bytesSent.Add(payloadBytes(msg))
	if h.closing.Load() {
		return ErrClosed
	}
	if h.crashed[msg.From].Load() || h.crashed[msg.To].Load() {
		h.m.dropped.Inc()
		return nil
	}

	var fault Fault
	if h.opts.Inject != nil {
		fault = h.opts.Inject(msg)
	}
	if fault.Drop {
		h.m.dropped.Inc()
		return nil
	}
	delay := fault.Delay
	if delay > 0 {
		h.m.observeDelay(msg.From, msg.To, delay.Seconds())
	}
	if h.opts.Spans != nil {
		if u, ok := msg.Payload.(interface{ Untraced() bool }); !ok || !u.Untraced() {
			h.linkSpan(msg, delay)
		}
	}
	copies := 1 + fault.Duplicates
	if delay <= 0 {
		for i := 0; i < copies; i++ {
			h.enqueue(msg)
		}
		return nil
	}
	h.timers.Add(1)
	time.AfterFunc(delay, func() {
		defer h.timers.Done()
		for i := 0; i < copies; i++ {
			h.enqueue(msg)
		}
	})
	return nil
}

// linkSpan records msg's flight, from now to its scheduled delivery,
// under the transaction its payload names (a TxnID() string method).
func (h *Hub) linkSpan(msg types.Message, delay time.Duration) {
	txnID := ""
	if tp, ok := msg.Payload.(interface{ TxnID() string }); ok {
		txnID = tp.TxnID()
	}
	name := "msg"
	if msg.Payload != nil {
		name = msg.Payload.Kind()
	}
	now := h.opts.Spans.Now()
	h.opts.Spans.Add(span.Span{
		Txn: txnID, Track: span.NetTrack, Name: name, Kind: span.KindLink,
		Start: now, End: now + delay.Microseconds(),
		From: int(msg.From), To: int(msg.To),
	})
}

func (h *Hub) enqueue(msg types.Message) {
	// A diverted hub's sink needs no lock: no channel is sent on, and a
	// message that races Close lands in a queue nobody reads any more.
	if sink := h.sink.Load(); sink != nil {
		h.divert(*sink, msg)
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed || h.crashed[msg.To].Load() {
		h.m.dropped.Inc()
		return
	}
	select {
	case h.queues[msg.To] <- msg:
		h.m.delivered.Inc()
	default:
		// Queue overflow: drop, as a lossy network would. The protocols
		// tolerate loss exactly like lateness (timeout then abort).
		h.m.dropped.Inc()
	}
}

func (h *Hub) divert(sink func(types.Message) bool, msg types.Message) {
	if h.closing.Load() || h.crashed[msg.To].Load() || !sink(msg) {
		h.m.dropped.Inc()
		return
	}
	h.m.delivered.Inc()
}

type hubEndpoint struct {
	hub *Hub
	id  types.ProcID
}

var _ Transport = (*hubEndpoint)(nil)

// Send implements Transport.
func (e *hubEndpoint) Send(msg types.Message) error {
	msg.From = e.id
	return e.hub.deliver(msg)
}

// Recv implements Transport. Nothing arrives on it once the hub is
// diverted.
func (e *hubEndpoint) Recv() <-chan types.Message { return e.hub.queues[e.id] }

// Close implements Transport. Hub endpoints are closed collectively via
// Hub.Close; closing one endpoint only marks it crashed.
func (e *hubEndpoint) Close() error {
	e.hub.Crash(e.id)
	return nil
}
