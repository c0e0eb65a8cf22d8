package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wal"
)

// probe is the traced run's recorder: timing decorators on the layers'
// public seams write spans and per-layer samples into it, all from the
// benchmark's side of the seam — nothing inside the program is touched.
// Spans stay in memory and are written out when the run ends.
type probe struct {
	t0 time.Time

	mu      sync.Mutex
	spans   []spanRec
	dropped int
	fsyncMs []float64         // wal.File.Sync wall time
	nodes   []*timedTransport // every decorated transport; each keeps its own link samples

	msgs       atomic.Int64
	msgBytes   atomic.Int64
	sendBusyNs atomic.Int64
	walBytes   atomic.Int64
	// busyTicks counts, over all nodes, tick-long intervals in which a
	// node had at least one arrival: the estimate of steps that received
	// something (idle steps are the rest of runtime_node_steps_total).
	busyTicks atomic.Int64

	handled sync.Map // txn id -> [2]int64: server-side handler span (µs since t0)
}

// spanRec is one span of spans.json. Spans of one request share Trace
// (the transaction id); Parent is the id of the span that caused this
// one, 0 for a root. A layer's self time is its span minus the part of
// it its children cover.
type spanRec struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Trace   string `json:"trace,omitempty"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartUs int64  `json:"start_us"`
	EndUs   int64  `json:"end_us"`
}

// maxSpans bounds the in-memory span buffer (about 15 MB of JSON); what
// does not fit is counted, not silently lost.
const maxSpans = 120_000

func newProbe() *probe { return &probe{t0: time.Now()} }

// probeMark is the probe's counters at one instant; two marks bracket a
// measured window.
type probeMark struct {
	atUs                                            int64 // probe clock
	msgs, msgBytes, sendBusyNs, walBytes, busyTicks int64
	fsyncs                                          int // length of fsyncMs
}

func (p *probe) mark() probeMark {
	if p == nil {
		return probeMark{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return probeMark{atUs: p.us(time.Now()), msgs: p.msgs.Load(), msgBytes: p.msgBytes.Load(),
		sendBusyNs: p.sendBusyNs.Load(), walBytes: p.walBytes.Load(), busyTicks: p.busyTicks.Load(), fsyncs: len(p.fsyncMs)}
}

// linkTimes returns the link time, in µs, of every message that arrived
// between two marks.
func (p *probe) linkTimes(from, to probeMark) []float64 {
	p.mu.Lock()
	nodes := append([]*timedTransport(nil), p.nodes...)
	p.mu.Unlock()
	var out []float64
	for _, t := range nodes {
		t.mu.Lock()
		for _, a := range t.arrivals {
			if a.atUs >= from.atUs && a.atUs < to.atUs {
				out = append(out, a.linkUs)
			}
		}
		t.mu.Unlock()
	}
	return out
}

func (p *probe) us(t time.Time) int64 { return t.Sub(p.t0).Microseconds() }

// span records one span and returns its id (0 when the buffer is full).
func (p *probe) span(parent int, trace, layer, name string, start, end time.Time) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.spans) >= maxSpans {
		p.dropped++
		return 0
	}
	id := len(p.spans) + 1
	p.spans = append(p.spans, spanRec{ID: id, Parent: parent, Trace: trace, Layer: layer, Name: name,
		StartUs: p.us(start), EndUs: p.us(end)})
	return id
}

func (p *probe) writeSpans(path string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(struct {
		Unit    string    `json:"unit"`
		Dropped int       `json:"dropped"`
		Spans   []spanRec `json:"spans"`
	}{"us since run start", p.dropped, p.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ---- transport.Transport decorator -----------------------------------

// linkTimer times every directed link of one cluster. Both backends
// deliver a link's messages in order, so the sender pushes a stamp on
// the link's FIFO before the send and the receiver pops one per arrival:
// the difference is the link time, with no field added to the message.
type linkTimer struct {
	p     *probe
	n     int
	fifos []stampFIFO // n*n, indexed from*n+to
}

type stampFIFO struct {
	mu     sync.Mutex
	stamps []time.Time
}

func (f *stampFIFO) push(t time.Time) {
	f.mu.Lock()
	f.stamps = append(f.stamps, t)
	f.mu.Unlock()
}

func (f *stampFIFO) pop() (time.Time, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.stamps) == 0 {
		return time.Time{}, false
	}
	t := f.stamps[0]
	f.stamps = f.stamps[1:]
	return t, true
}

func newLinkTimer(p *probe, n int) *linkTimer {
	return &linkTimer{p: p, n: n, fifos: make([]stampFIFO, n*n)}
}

// wrap decorates node id's transport.
func (lt *linkTimer) wrap(id types.ProcID, inner transport.Transport) transport.Transport {
	t := &timedTransport{lt: lt, id: id, inner: inner,
		// Same depth as the hub's per-node queue, so the forwarding hop
		// never becomes the place where messages are dropped.
		out: make(chan types.Message, 4096)}
	lt.p.mu.Lock()
	lt.p.nodes = append(lt.p.nodes, t)
	lt.p.mu.Unlock()
	go t.forward()
	return t
}

type timedTransport struct {
	lt    *linkTimer
	id    types.ProcID
	inner transport.Transport
	out   chan types.Message

	mu       sync.Mutex // held by forward per arrival and by the reader afterwards: uncontended
	arrivals []arrival
}

// arrival is one timed message: when it reached this node and how long
// its link held it.
type arrival struct {
	atUs   int64
	linkUs float64
}

// linkSpanEvery thins the link spans written to spans.json (every
// message is still timed): at forty messages a transaction the span
// buffer would otherwise hold little else.
const linkSpanEvery = 16

func (t *timedTransport) Send(msg types.Message) error {
	p := t.lt.p
	start := time.Now()
	t.lt.fifos[int(t.id)*t.lt.n+int(msg.To)].push(start)
	err := t.inner.Send(msg)
	p.sendBusyNs.Add(int64(time.Since(start)))
	p.msgs.Add(1)
	p.msgBytes.Add(int64((types.SizeOf(msg.Payload) + 7) / 8))
	return err
}

func (t *timedTransport) Recv() <-chan types.Message { return t.out }

func (t *timedTransport) Close() error { return t.inner.Close() }

// forward moves arrivals from the inner transport to the node, stamping
// each; it ends when the inner transport closes its channel.
func (t *timedTransport) forward() {
	defer close(t.out)
	p := t.lt.p
	lastTick := int64(-1)
	for n := 0; ; n++ {
		msg, ok := <-t.inner.Recv()
		if !ok {
			return
		}
		now := time.Now()
		if sent, ok := t.lt.fifos[int(msg.From)*t.lt.n+int(t.id)].pop(); ok {
			t.mu.Lock()
			t.arrivals = append(t.arrivals, arrival{atUs: p.us(now), linkUs: float64(now.Sub(sent)) / 1e3})
			t.mu.Unlock()
			if n%linkSpanEvery == 0 {
				trace := ""
				if tp, ok := msg.Payload.(interface{ TxnID() string }); ok {
					trace = tp.TxnID()
				}
				p.span(0, trace, "transport", fmt.Sprintf("link %d->%d", msg.From, t.id), sent, now)
			}
		}
		if tick := int64(now.Sub(p.t0) / tickEvery); tick != lastTick {
			lastTick = tick
			p.busyTicks.Add(1)
		}
		t.out <- msg
	}
}

// ---- wal.FS / wal.File decorator -------------------------------------

// syncFS decorates a wal.FS: it times every File.Sync, counts bytes, and
// tracks per file how many bytes a Sync has covered. cut "kills" the
// process the way a power loss would: from that instant nothing more
// becomes durable, and crashCopy writes only each file's synced prefix
// into a new directory. A SIGKILL alone cannot test this — the page
// cache survives it.
type syncFS struct {
	inner wal.FS
	p     *probe // nil: track lengths only

	mu     sync.Mutex
	frozen bool
	size   map[string]int64 // bytes written
	synced map[string]int64 // bytes covered by a Sync
}

var errCut = errors.New("bench: filesystem cut (simulated power loss)")

func newSyncFS(inner wal.FS, p *probe) (*syncFS, error) {
	fs := &syncFS{inner: inner, p: p, size: map[string]int64{}, synced: map[string]int64{}}
	names, err := inner.List()
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		n, err := inner.Size(name)
		if err != nil {
			return nil, err
		}
		// What the directory holds at open is what survived before.
		fs.size[name], fs.synced[name] = n, n
	}
	return fs, nil
}

func (fs *syncFS) open(name string, truncate bool, open func(string) (wal.File, error)) (wal.File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.frozen {
		return nil, errCut
	}
	f, err := open(name)
	if err != nil {
		return nil, err
	}
	if truncate {
		fs.size[name], fs.synced[name] = 0, 0
	}
	return &syncFile{fs: fs, name: name, inner: f}, nil
}

func (fs *syncFS) OpenAppend(name string) (wal.File, error) {
	return fs.open(name, false, fs.inner.OpenAppend)
}
func (fs *syncFS) Create(name string) (wal.File, error)    { return fs.open(name, true, fs.inner.Create) }
func (fs *syncFS) Open(name string) (io.ReadCloser, error) { return fs.inner.Open(name) }
func (fs *syncFS) List() ([]string, error)                 { return fs.inner.List() }
func (fs *syncFS) Size(name string) (int64, error)         { return fs.inner.Size(name) }

// Rename, Remove and Truncate model journaled metadata, as wal.MemFS
// does: atomic and durable at once.
func (fs *syncFS) Rename(oldname, newname string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.frozen {
		return errCut
	}
	if err := fs.inner.Rename(oldname, newname); err != nil {
		return err
	}
	fs.size[newname], fs.synced[newname] = fs.size[oldname], fs.synced[oldname]
	delete(fs.size, oldname)
	delete(fs.synced, oldname)
	return nil
}

func (fs *syncFS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.frozen {
		return errCut
	}
	if err := fs.inner.Remove(name); err != nil {
		return err
	}
	delete(fs.size, name)
	delete(fs.synced, name)
	return nil
}

func (fs *syncFS) Truncate(name string, size int64) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.frozen {
		return errCut
	}
	if err := fs.inner.Truncate(name, size); err != nil {
		return err
	}
	fs.size[name] = size
	if fs.synced[name] > size {
		fs.synced[name] = size
	}
	return nil
}

// cut freezes the filesystem: every later write, sync or metadata change
// fails, so no decision can be acknowledged on bytes the copy will lack.
func (fs *syncFS) cut() {
	fs.mu.Lock()
	fs.frozen = true
	fs.mu.Unlock()
}

// crashCopy writes each file's synced prefix into dst and reports how
// many written-but-unsynced bytes were discarded. Call after cut.
func (fs *syncFS) crashCopy(dst wal.FS) (discarded int64, err error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for name, synced := range fs.synced {
		discarded += fs.size[name] - synced
		src, err := fs.inner.Open(name)
		if err != nil {
			return discarded, err
		}
		out, err := dst.Create(name)
		if err != nil {
			src.Close() //nolint:errcheck // read side
			return discarded, err
		}
		_, err = io.CopyN(out, src, synced)
		src.Close() //nolint:errcheck // read side
		if err == nil {
			err = out.Sync()
		}
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return discarded, fmt.Errorf("bench: crash copy %s: %w", name, err)
		}
	}
	return discarded, nil
}

type syncFile struct {
	fs    *syncFS
	name  string
	inner wal.File
}

func (f *syncFile) Write(b []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.frozen {
		return 0, errCut
	}
	n, err := f.inner.Write(b)
	f.fs.size[f.name] += int64(n)
	if f.fs.p != nil {
		f.fs.p.walBytes.Add(int64(n))
	}
	return n, err
}

func (f *syncFile) Sync() error {
	// The length is read before the flush and published after it: bytes
	// written while the flush runs are not covered by it.
	f.fs.mu.Lock()
	if f.fs.frozen {
		f.fs.mu.Unlock()
		return errCut
	}
	covered := f.fs.size[f.name]
	f.fs.mu.Unlock()

	start := time.Now()
	err := f.inner.Sync()
	end := time.Now()

	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.frozen {
		return errCut // the cut landed mid-flush: report it as not durable
	}
	if err == nil && covered > f.fs.synced[f.name] {
		f.fs.synced[f.name] = covered
	}
	if p := f.fs.p; p != nil {
		p.mu.Lock()
		p.fsyncMs = append(p.fsyncMs, float64(end.Sub(start))/1e6)
		p.mu.Unlock()
		p.span(0, "", "wal", "fsync "+f.name, start, end)
	}
	return err
}

func (f *syncFile) Close() error { return f.inner.Close() }

// ---- HTTP handler decorator ------------------------------------------

// txnHeader carries the transaction id to timedHandler, which cannot see
// it before the body is decoded; the real daemon ignores it.
const txnHeader = "X-Bench-Txn"

// timedHandler times the server side of POST /commit (decode + Submit +
// encode): the Submit span of an HTTP-fronted twin. The client subtracts
// it from its own round trip to get the HTTP hop's overhead.
func (p *probe) timedHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(txnHeader)
		if id == "" {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		p.handled.Store(id, [2]int64{p.us(start), p.us(time.Now())})
	})
}
