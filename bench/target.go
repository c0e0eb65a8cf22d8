package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wal"
)

// answer is the system's reply to one request.
type answer struct {
	state      service.State
	svcLatency time.Duration // the service's own submission-to-decision time
}

// stack is one running deployment of the system under test, hosted
// either as a spawned commitd or in this process.
type stack interface {
	// submit runs one transaction to its answer; an error means no
	// answer (transport failure, 429, 5xx).
	submit(ctx context.Context, r request) (answer, error)
	status(id string) (service.State, bool, error)
	crash(node int) error
	scrape() (promSnapshot, error)
	// cpuTime is the user+sys CPU the process under test has used.
	cpuTime() (time.Duration, error)
	// kill stops the deployment abruptly (SIGKILL or its in-process
	// equivalent); close drains it.
	kill() error
	close() error
}

// ---- HTTP front door --------------------------------------------------

// httpFront is the client side of the daemon's HTTP API, shared by the
// spawned daemon and the in-process HTTP twins.
type httpFront struct {
	base   string
	client *http.Client // POST /commit: exactly the workload's connections
	// ctl carries status, crash and scrape calls, so they never take a
	// load connection; it is idle while a window is measured.
	ctl *http.Client
}

func newHTTPFront(addr string, conns int) *httpFront {
	return &httpFront{
		base: "http://" + addr,
		client: &http.Client{
			Timeout: reqTimeout + 3*time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
		ctl: &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{}},
	}
}

func (h *httpFront) closeConns() {
	h.client.CloseIdleConnections()
	h.ctl.CloseIdleConnections()
}

// httpError is a non-200 reply.
type httpError struct{ code int }

func (e *httpError) Error() string { return "http status " + strconv.Itoa(e.code) }

func (h *httpFront) submit(ctx context.Context, r request) (answer, error) {
	body, err := json.Marshal(service.CommitRequestJSON{ID: r.ID, Votes: r.Votes, Keys: r.Keys})
	if err != nil {
		return answer{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.base+"/commit", bytes.NewReader(body))
	if err != nil {
		return answer{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(txnHeader, r.ID)
	resp, err := h.client.Do(req)
	if err != nil {
		return answer{}, err
	}
	defer resp.Body.Close() //nolint:errcheck // read side
	if resp.StatusCode == http.StatusConflict {
		// The id is already known: an earlier attempt reached the service
		// before its connection died. The status table has the answer.
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
		return h.awaitStatus(ctx, r.ID)
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
		return answer{}, &httpError{resp.StatusCode}
	}
	var out service.CommitResponseJSON
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return answer{}, err
	}
	return answer{state: out.State, svcLatency: time.Duration(out.LatencyMs * float64(time.Millisecond))}, nil
}

// awaitStatus polls GET /status until the transaction is terminal.
func (h *httpFront) awaitStatus(ctx context.Context, id string) (answer, error) {
	for {
		st, ok, err := h.status(id)
		if err != nil {
			return answer{}, err
		}
		if ok && st.Terminal() {
			return answer{state: st}, nil
		}
		select {
		case <-ctx.Done():
			return answer{}, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func (h *httpFront) get(path string) (int, []byte, error) {
	resp, err := h.ctl.Get(h.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close() //nolint:errcheck // read side
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (h *httpFront) status(id string) (service.State, bool, error) {
	code, body, err := h.get("/status/" + id)
	if err != nil {
		return "", false, err
	}
	if code == http.StatusNotFound {
		return "", false, nil
	}
	if code != http.StatusOK {
		return "", false, &httpError{code}
	}
	var st struct {
		State service.State `json:"state"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return "", false, err
	}
	return st.State, true, nil
}

func (h *httpFront) crash(node int) error {
	resp, err := h.ctl.Post(h.base+"/crash/"+strconv.Itoa(node), "", nil)
	if err != nil {
		return err
	}
	resp.Body.Close() //nolint:errcheck // nothing to read
	if resp.StatusCode != http.StatusNoContent {
		return &httpError{resp.StatusCode}
	}
	return nil
}

func (h *httpFront) scrape() (promSnapshot, error) {
	code, body, err := h.get("/metrics.prom")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, &httpError{code}
	}
	return parseProm(string(body)), nil
}

func (h *httpFront) ready() bool {
	code, _, err := h.get("/readyz")
	return err == nil && code == http.StatusOK
}

// ---- spawned daemon ---------------------------------------------------

// daemon is a real commitd process.
type daemon struct {
	*httpFront
	cmd    *exec.Cmd
	log    *os.File
	port   int
	waited bool // the process has ended and been reaped
}

// freePort asks the kernel for an unused loopback port. The daemon binds
// it a moment later; keeping one port across restarts lets the clients
// of the faults workload keep their URL through every outage.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close() //nolint:errcheck // only the number is wanted
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// spawnDaemon starts commitd for workload w on port with its journal in
// walDir, and returns without waiting for readiness.
func spawnDaemon(bin string, w workload, seed int64, port int, walDir, logPath string) (*daemon, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin,
		"-addr", addr, "-n", strconv.Itoa(clusterN), "-k", strconv.Itoa(clusterK),
		"-tick", tickEvery.String(), "-seed", strconv.FormatInt(seed+1, 10),
		"-backend", w.backend, "-batch-agreement", "-wal-dir", walDir,
		"-timeout", reqTimeout.String(), "-log-level", "warn")
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close() //nolint:errcheck // already failing
		return nil, err
	}
	return &daemon{httpFront: newHTTPFront(addr, w.callers), cmd: cmd, log: logf, port: port}, nil
}

// awaitReady polls /readyz until the daemon serves or the deadline passes.
func (d *daemon) awaitReady(deadline time.Duration) error {
	stop := time.Now().Add(deadline)
	for !d.ready() {
		if time.Now().After(stop) {
			return fmt.Errorf("daemon not ready after %v", deadline)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// cpuTime reads utime+stime from /proc/<pid>/stat (Linux clock ticks of
// 10 ms: fine over a window of seconds).
func (d *daemon) cpuTime() (time.Duration, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(d.cmd.Process.Pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the whole line.
	s := string(raw)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad /proc stat line")
	}
	return time.Duration(utime+stime) * 10 * time.Millisecond, nil
}

func (d *daemon) kill() error {
	if d.waited {
		return nil
	}
	d.cmd.Process.Kill() //nolint:errcheck // already gone is fine
	d.cmd.Wait()         //nolint:errcheck // killed: the exit status is the signal
	d.waited = true
	d.closeConns()
	return d.log.Close()
}

func (d *daemon) close() error {
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already gone is fine
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck // drain overran
		err = <-done
	}
	d.waited = true
	d.closeConns()
	if cerr := d.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// ---- in-process deployment -------------------------------------------

// inproc hosts the same stack inside this process: one service (or a
// sharded coordinator), its journal on a real directory, optionally an
// HTTP listener in front, and — when a probe is given — the timing
// decorators on transport, filesystem and handler.
type inproc struct {
	w     workload
	svc   *service.Service
	coord *shard.Coordinator
	reg   *obs.Registry

	journal  *wal.DecisionLog
	crossLog *shard.CrossSegLog
	fs       *syncFS // nil unless probed
	hubs     []*transport.Hub
	front    *httpFront
	srv      *http.Server
	probe    *probe
}

func startInproc(w workload, seed int64, dir string, p *probe) (_ *inproc, err error) {
	s := &inproc{w: w, reg: obs.NewRegistry(), probe: p}
	defer func() {
		if err != nil {
			s.kill() //nolint:errcheck // already failing
		}
	}()
	cfg := service.Config{
		N: clusterN, K: clusterK, TickEvery: tickEvery, Seed: uint64(seed) + 1,
		BatchAgreement: true, DefaultTimeout: reqTimeout, Registry: s.reg,
	}
	if p != nil {
		// The service stamps its pipeline stages with the span collector's
		// clock, microseconds by default: too coarse for the admit, batch
		// and dispatch stages, whose medians would read 0 or the same few
		// integers every run. A twin under the probe gets a nanosecond
		// clock instead; stageP50 scales what the service then reports.
		epoch := time.Now()
		cfg.Spans = span.NewCollectorClock(0, func() int64 { return int64(time.Since(epoch)) })
	}
	// The snapshot cadence is commitd's default, so both hostings replay
	// and compact alike.
	segOpts := wal.SegmentedOptions{SnapshotEvery: 4096, Registry: s.reg}

	var handler http.Handler
	if w.sharded {
		log, recs, err := shard.OpenCrossSegmented(dir, segOpts)
		if err != nil {
			return nil, err
		}
		s.crossLog = log
		scfg := shard.Config{Shards: shardCount, Group: cfg, Log: log.CrossLog}
		if p != nil {
			scfg.ConfigureGroup = func(_ int, g *service.Config) {
				g.Transports, _ = s.transports(cfg.N) // the channel backend cannot fail
			}
		}
		if s.coord, err = shard.New(scfg); err != nil {
			return nil, err
		}
		if len(recs) > 0 {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			_, err := s.coord.Recover(ctx, recs)
			cancel()
			if err != nil {
				return nil, err
			}
		}
		handler = shard.NewHTTPHandler(s.coord)
	} else {
		dirFS, err := wal.NewDirFS(dir)
		if err != nil {
			return nil, err
		}
		segOpts.FS = dirFS
		if p != nil {
			if s.fs, err = newSyncFS(dirFS, p); err != nil {
				return nil, err
			}
			segOpts.FS = s.fs
		}
		if s.journal, err = wal.OpenDecisionLog(segOpts); err != nil {
			return nil, err
		}
		cfg.Journal = s.journal
		if p != nil || w.backend == "tcp" {
			if cfg.Transports, err = s.transports(cfg.N); err != nil {
				return nil, err
			}
		}
		if s.svc, err = service.New(cfg); err != nil {
			return nil, err
		}
		handler = service.NewHTTPHandler(s.svc)
	}

	if w.http {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		if p != nil {
			handler = p.timedHandler(handler)
		}
		s.srv = &http.Server{Handler: handler}
		go s.srv.Serve(ln) //nolint:errcheck // ends with ErrServerClosed on kill/close
		s.front = newHTTPFront(ln.Addr().String(), w.callers)
	}
	return s, nil
}

// transports builds one group's transports for the workload's backend —
// peered loopback TCP nodes, as commitd -backend tcp does, or hub
// endpoints — each behind the link timer when probed.
func (s *inproc) transports(n int) ([]transport.Transport, error) {
	out := make([]transport.Transport, n)
	if s.w.backend == "tcp" {
		transport.RegisterWirePayloads()
		nodes := make([]*transport.TCPNode, n)
		peers := make(map[types.ProcID]string, n)
		for i := range nodes {
			tn, err := transport.ListenTCP(types.ProcID(i), "127.0.0.1:0")
			if err != nil {
				for _, prev := range nodes[:i] {
					prev.Close() //nolint:errcheck // unwinding
				}
				return nil, err
			}
			tn.Instrument(s.reg)
			nodes[i], peers[types.ProcID(i)] = tn, tn.Addr()
		}
		for i, tn := range nodes {
			tn.SetPeers(peers)
			out[i] = tn
		}
	} else {
		hub := transport.NewHub(n, transport.HubOptions{Registry: s.reg})
		s.hubs = append(s.hubs, hub)
		for i := range out {
			out[i] = hub.Endpoint(types.ProcID(i))
		}
	}
	if s.probe != nil {
		lt := newLinkTimer(s.probe, n)
		for i := range out {
			out[i] = lt.wrap(types.ProcID(i), out[i])
		}
	}
	return out, nil
}

func (s *inproc) submit(ctx context.Context, r request) (answer, error) {
	if s.front != nil {
		return s.front.submit(ctx, r)
	}
	if s.coord != nil {
		res, err := s.coord.Submit(ctx, shard.Request{ID: r.ID, Keys: r.Keys, Votes: r.Votes})
		return answer{state: res.State, svcLatency: res.Latency}, err
	}
	res, err := s.svc.Submit(ctx, service.Request{ID: r.ID, Votes: r.Votes})
	return answer{state: res.State, svcLatency: res.Latency}, err
}

func (s *inproc) status(id string) (service.State, bool, error) {
	if s.coord != nil {
		st, ok := s.coord.Status(id)
		return st.State, ok, nil
	}
	st, ok := s.svc.Status(id)
	return st.State, ok, nil
}

func (s *inproc) crash(node int) error {
	if s.coord != nil {
		return s.coord.CrashEverywhere(types.ProcID(node))
	}
	return s.svc.Crash(types.ProcID(node))
}

func (s *inproc) scrape() (promSnapshot, error) {
	var buf bytes.Buffer
	if err := s.reg.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	return parseProm(buf.String()), nil
}

// cpuTime is this whole process: the load generator shares it with the
// system under test, which is what hosting in-process means.
func (s *inproc) cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// groupMetrics is the service-layer snapshot of every group.
func (s *inproc) groupMetrics() []service.Metrics {
	if s.coord != nil {
		return s.coord.Metrics().PerShard
	}
	return []service.Metrics{s.svc.Metrics()}
}

// kill is the in-process SIGKILL: the filesystem is cut first, so no
// decision is acknowledged on bytes a crash copy will lack, the journal
// is abandoned unflushed, and whatever is in flight is aborted.
func (s *inproc) kill() error {
	if s.fs != nil {
		s.fs.cut()
	}
	if s.journal != nil {
		s.journal.Kill()
	}
	return s.stop(0)
}

func (s *inproc) close() error {
	err := s.stop(5 * time.Second)
	if s.journal != nil {
		if jerr := s.journal.Close(); err == nil {
			err = jerr
		}
	}
	return err
}

// stop tears the deployment down, giving in-flight work up to drain.
func (s *inproc) stop(drain time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	var err error
	if s.srv != nil {
		if drain == 0 {
			s.srv.Close() //nolint:errcheck // abrupt by design
		} else {
			err = s.srv.Shutdown(ctx)
		}
		s.front.closeConns()
	}
	if s.coord != nil {
		if cerr := s.coord.Close(ctx); err == nil {
			err = cerr
		}
	}
	if s.svc != nil {
		if cerr := s.svc.Close(ctx); err == nil {
			err = cerr
		}
	}
	if s.crossLog != nil {
		if cerr := s.crossLog.Close(); err == nil {
			err = cerr
		}
	}
	for _, h := range s.hubs {
		h.Close() //nolint:errcheck // always nil
	}
	return err
}
