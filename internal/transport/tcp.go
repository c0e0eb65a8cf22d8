package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/types"
)

// errUnencodable reports a payload with no tag in the binary codec. The
// message is dropped; nothing was written, so the connection stays up.
var errUnencodable = errors.New("transport: payload has no wire encoding")

// TCPNode is a Transport backed by stdlib TCP with length-prefixed binary
// framing (see wire.go). Every node listens on one address and lazily
// dials its peers. Connection failures and encode errors drop the message
// (crash semantics: an unreachable peer is indistinguishable from a
// crashed one, which is exactly the model). The node's own id is a peer
// like any other: a runtime node hands its machine's messages to itself
// back without sending them.
type TCPNode struct {
	id types.ProcID
	ln net.Listener
	m  metrics

	mu       sync.Mutex
	peers    map[types.ProcID]string
	conns    map[types.ProcID]*outConn
	accepted map[net.Conn]bool
	closed   bool

	recv chan types.Message
	wg   sync.WaitGroup
}

// outConn is one outbound connection. Writes go through a bufio.Writer;
// flushes coalesce: each sender registers in waiters before taking the
// write lock, and only the sender that drops waiters back to zero flushes.
// Under contention a burst of messages rides one syscall; a lone sender
// flushes immediately, so latency never waits on a timer.
type outConn struct {
	c net.Conn

	mu      sync.Mutex
	w       *bufio.Writer
	scratch []byte // frame assembly buffer, reused across sends
	waiters atomic.Int32
}

func newOutConn(c net.Conn) *outConn {
	return &outConn{c: c, w: bufio.NewWriterSize(c, 1<<15)}
}

// send frames, writes, and (when last in line) flushes one message. An
// unencodable message writes nothing but still takes its turn flushing:
// earlier senders may have left their frames in the buffer for it.
func (oc *outConn) send(msg types.Message) error {
	oc.waiters.Add(1)
	oc.mu.Lock()
	defer oc.mu.Unlock()
	err := oc.writeLocked(msg)
	if oc.waiters.Add(-1) == 0 && (err == nil || err == errUnencodable) {
		if ferr := oc.w.Flush(); ferr != nil {
			return ferr
		}
	}
	return err
}

func (oc *outConn) writeLocked(msg types.Message) error {
	// Reserve the 4-byte length and format byte, then append the body.
	out, ok := appendMessage(append(oc.scratch[:0], 0, 0, 0, 0, fmtBinary), msg)
	oc.scratch = out[:0]
	if !ok {
		return errUnencodable
	}
	binary.BigEndian.PutUint32(out[:4], uint32(len(out)-4))
	_, err := oc.w.Write(out)
	return err
}

var _ Transport = (*TCPNode)(nil)

// ListenTCP starts a node listening on addr ("127.0.0.1:0" for an
// ephemeral port). Call Addr to learn the bound address and SetPeers to
// install the peer directory before sending.
func ListenTCP(id types.ProcID, addr string) (*TCPNode, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	n := &TCPNode{
		id:       id,
		ln:       ln,
		peers:    make(map[types.ProcID]string),
		conns:    make(map[types.ProcID]*outConn),
		accepted: make(map[net.Conn]bool),
		recv:     make(chan types.Message, 4096),
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Instrument wires the node's transport metrics into reg (messages and
// bytes sent, delivered, dropped, and a per-link send-path duration
// histogram). Call before the node starts carrying traffic; handles are
// installed under the node's lock.
func (n *TCPNode) Instrument(reg *obs.Registry) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.m = newMetrics(reg, "tcp")
}

// Addr returns the bound listen address.
func (n *TCPNode) Addr() string { return n.ln.Addr().String() }

// ID returns the node's processor id.
func (n *TCPNode) ID() types.ProcID { return n.id }

// SetPeers installs the directory mapping processor ids to addresses.
func (n *TCPNode) SetPeers(peers map[types.ProcID]string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for p, a := range peers {
		n.peers[p] = a
	}
}

func (n *TCPNode) acceptLoop() {
	defer n.wg.Done()
	for {
		c, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			c.Close() //nolint:errcheck
			return
		}
		n.accepted[c] = true
		n.mu.Unlock()
		n.wg.Add(1)
		go n.readLoop(c)
	}
}

func (n *TCPNode) readLoop(c net.Conn) {
	defer n.wg.Done()
	defer func() {
		n.mu.Lock()
		delete(n.accepted, c)
		n.mu.Unlock()
		c.Close() //nolint:errcheck // best-effort close on a read path
	}()
	br := bufio.NewReaderSize(c, 1<<15)
	var hdr [4]byte
	var body []byte // reused across frames; decoded messages never alias it
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		size := binary.BigEndian.Uint32(hdr[:])
		if size == 0 || size > maxFrameBytes {
			return // corrupt stream
		}
		if cap(body) < int(size) {
			body = make([]byte, size)
		}
		body = body[:size]
		if _, err := io.ReadFull(br, body); err != nil {
			return
		}
		if body[0] != fmtBinary {
			return // foreign frame format: corrupt stream
		}
		msg, err := decodeMessage(body[1:])
		if err != nil {
			return
		}
		n.mu.Lock()
		closed := n.closed
		m := n.m
		n.mu.Unlock()
		if closed {
			return
		}
		select {
		case n.recv <- msg:
			m.delivered.Inc()
		default:
			// Inbound overflow: drop (lossy network semantics).
			m.dropped.Inc()
		}
	}
}

// Send implements Transport.
func (n *TCPNode) Send(msg types.Message) error {
	msg.From = n.id
	start := time.Now()
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	m := n.m
	oc := n.conns[msg.To]
	addr, known := n.peers[msg.To]
	n.mu.Unlock()
	m.sent.Inc()
	m.bytesSent.Add(payloadBytes(msg))
	if oc == nil {
		if !known {
			m.dropped.Inc()
			return nil // unknown peer: drop
		}
		c, err := net.Dial("tcp", addr)
		if err != nil {
			m.dropped.Inc()
			return nil // unreachable peer: drop (crash semantics)
		}
		oc = newOutConn(c)
		n.mu.Lock()
		if existing := n.conns[msg.To]; existing != nil {
			// Lost the race; keep the existing connection.
			c.Close() //nolint:errcheck
			oc = existing
		} else {
			n.conns[msg.To] = oc
		}
		n.mu.Unlock()
	}
	if err := oc.send(msg); err != nil {
		m.dropped.Inc()
		if err == errUnencodable {
			return nil // the connection is healthy; only this message is lost
		}
		// Broken pipe: forget the connection; the next send re-dials.
		n.mu.Lock()
		if n.conns[msg.To] == oc {
			delete(n.conns, msg.To)
		}
		n.mu.Unlock()
		oc.c.Close() //nolint:errcheck
		return nil
	}
	m.observeDelay(n.id, msg.To, time.Since(start).Seconds())
	return nil
}

// Recv implements Transport.
func (n *TCPNode) Recv() <-chan types.Message { return n.recv }

// Close implements Transport.
func (n *TCPNode) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	conns := n.conns
	n.conns = map[types.ProcID]*outConn{}
	inbound := make([]net.Conn, 0, len(n.accepted))
	for c := range n.accepted {
		inbound = append(inbound, c)
	}
	n.mu.Unlock()

	err := n.ln.Close()
	for _, oc := range conns {
		oc.c.Close() //nolint:errcheck
	}
	for _, c := range inbound {
		c.Close() //nolint:errcheck
	}
	n.wg.Wait()
	close(n.recv)
	return err
}
