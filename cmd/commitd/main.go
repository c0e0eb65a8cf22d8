// Command commitd is the transaction-commit daemon: it fronts one or
// more live clusters of transaction managers with an HTTP/JSON API
// (stdlib net/http only) so clients can submit transactions and observe
// outcomes.
//
//	commitd -addr 127.0.0.1:8080 -n 5
//	commitd -addr 127.0.0.1:8080 -n 3 -shards 4 -wal-dir state
//
//	POST /commit        {"id":"t1","votes":[true,true,false,true,true]}
//	                    sharded: {"id":"t1","keys":["user:7","user:9"]}
//	GET  /status/{txn}  state of a known transaction
//	GET  /metrics       counters + latency percentiles (JSON)
//	GET  /metrics.prom  every layer's metrics, Prometheus text format
//	GET  /debug/spans   the span ring as a causal graph: stages, rounds,
//	                    links and protocol milestones (?txn=<id> filters
//	                    to the txn and its batch; sharded deployments
//	                    include the txn's per-shard children). The ring
//	                    records 1 transaction id in 64 and every crash
//	                    and restart; ?txn= of another id is a 404
//	GET  /debug/health  watchdog anomaly report (stalls, crashes, SLO burn)
//	GET  /debug/flight  on-demand flight-recorder dump (render with
//	                    `tracedump flight`)
//	GET  /healthz       liveness + cluster size (+ shard count)
//	GET  /readyz        readiness: 503 while starting, draining or a group's journal has failed
//	POST /crash/{node}  fault injection: fail-stop one processor in
//	                    EVERY group (the correlated case)
//	POST /crash/{shard}/{node}  fail-stop one processor in one group
//
// The daemon hosts -shards independent commit groups (default 1) behind
// one consistent-hash router, built by shard.New and served by
// shard.NewHTTPHandler at every shard count; transactions whose key sets
// span several groups run as a cross-shard commit-of-commits
// (internal/shard). -wal-dir D journals every group's decisions, group k
// in D/shard-<k>, and with several groups the coordinator's cross log in
// D/cross, so a restarted daemon answers every acked id and settles
// in-doubt cross-shard transactions before serving. Start-up refuses a D
// laid out for another shard count, because the router would send ids to
// the wrong group's journal, and it checks the cluster shape before it
// creates anything in D.
//
// A journaled decision is acked once the fsync covering it returns; each
// journal's writer forces whatever has queued when it gets to the queue,
// so the journal's only settings are -wal-segment-bytes and
// -snapshot-every.
//
// Each group holds at most n batches in flight, one per round-robin
// coordinator, and each batch takes at most -batch queued submissions.
// Overload rejections carry a fixed 25 ms Retry-After, and a request's
// timeout_ms is capped at its instance's abandonment age (twice -timeout,
// and at least 1000 ticks).
//
// The cluster backend is either the in-process channel hub (default) or
// real TCP nodes on loopback (-backend tcp, n peered nodes per group) —
// same machines, same protocol, heavier transport. -pprof additionally
// mounts net/http/pprof under /debug/pprof/ (off by default).
//
// Live ops: an anomaly watchdog (internal/obs/watch) samples the
// deployment every -watch-interval, detecting stalled transactions
// (-stall-age), in-doubt cross-shard verdicts, decision-latency SLO
// burn (-slo-p99), WAL fsync spikes (-fsync-p99), rescue storms, and
// shard imbalance; results are served at /debug/health. Each anomaly
// triggers an atomic flight-recorder dump into -flight-dir (cooldown
// -flight-cooldown). Structured operational logs go to stderr
// (-log-format json|text, -log-level).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/olog"
	"repro/internal/obs/watch"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wal"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "commitd:", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until SIGINT/SIGTERM, then drains the
// service before returning. If ready is non-nil it receives the bound
// address once the server is listening (used by tests, which then signal
// the process to stop).
func run(args []string, out io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("commitd", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:8080", "HTTP listen address")
		n         = fs.Int("n", 5, "number of processors per commit group")
		tFaults   = fs.Int("t", 0, "crash tolerance (default (n-1)/2)")
		k         = fs.Int("k", 4, "protocol timing constant in ticks")
		tick      = fs.Duration("tick", time.Millisecond, "period of the timeout clock (nodes act on messages as they arrive)")
		seed      = fs.Uint64("seed", 0, "randomness seed (0: derived from time)")
		queue     = fs.Int("queue", 1024, "admission queue depth (per shard)")
		batch     = fs.Int("batch", 64, "max submissions coalesced per dispatch")
		timeout   = fs.Duration("timeout", 10*time.Second, "default per-request deadline")
		backend   = fs.String("backend", "channel", "cluster transport: channel or tcp")
		shards    = fs.Int("shards", 1, "independent commit groups behind the consistent-hash router")
		_         = fs.Bool("batch-agreement", false, "ignored: every dispatch batch is decided by one vector-outcome agreement instance (accepted because bench/ passes it)")
		walDir    = fs.String("wal-dir", "", "journal directory: group k's decisions in shard-<k>, the cross log in cross (replayed on start, client acks wait for group-commit fsync)")
		walSeg    = fs.Int("wal-segment-bytes", 1<<20, "WAL segment rotation threshold in bytes")
		snapEvery = fs.Int("snapshot-every", 4096, "at least this many WAL records between state snapshots; one also waits until the log has grown by as much as the last weighed (0: never snapshot; replay covers the whole log)")
		withPprof = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")

		logFormat = fs.String("log-format", "text", "structured log format: text or json")
		logLevel  = fs.String("log-level", "info", "minimum log level: debug, info, warn, error")
		watchInt  = fs.Duration("watch-interval", time.Second, "anomaly watchdog sampling period")
		stallAge  = fs.Duration("stall-age", 0, "age past which an in-flight transaction is a stall anomaly (default the abandonment age: 2x -timeout, at least 1000 ticks)")
		sloP99    = fs.Duration("slo-p99", 0, "decision-latency p99 SLO target; a windowed p99 above it is an anomaly (0: disabled)")
		fsyncP99  = fs.Duration("fsync-p99", 0, "WAL fsync p99 ceiling; a windowed p99 above it is an anomaly (0: disabled)")
		flightDir = fs.String("flight-dir", "", "directory for anomaly-triggered flight-recorder dumps (empty: /debug/flight only)")
		flightCD  = fs.Duration("flight-cooldown", 30*time.Second, "minimum spacing between persisted flight dumps")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seed == 0 {
		*seed = uint64(time.Now().UnixNano())
	}
	if *shards < 1 {
		return fmt.Errorf("-shards must be >= 1, got %d", *shards)
	}

	logger, err := olog.New(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	obs.RegisterProcessMetrics(reg)
	sampler := obs.RegisterRuntimeMetrics(reg)
	cfg := service.Config{
		N: *n, T: *tFaults, K: *k,
		TickEvery:      *tick,
		Seed:           *seed,
		QueueDepth:     *queue,
		BatchMax:       *batch,
		DefaultTimeout: *timeout,
		Registry:       reg,
		Logger:         logger,
	}
	// A shape the groups would refuse is refused before anything exists.
	if err := cfg.Validate(); err != nil {
		return err
	}
	tcp := make([][]transport.Transport, *shards) // group k's transports; nil runs it on a hub
	closeTCP := func() {
		for _, nodes := range tcp {
			for _, tr := range nodes {
				tr.Close() //nolint:errcheck // already failing
			}
		}
	}
	switch *backend {
	case "channel":
	case "tcp":
		for k := range tcp {
			if tcp[k], err = loopbackTCP(*n, reg); err != nil {
				closeTCP()
				return err
			}
		}
	default:
		return fmt.Errorf("unknown backend %q (want channel or tcp)", *backend)
	}

	var logs journals
	if *walDir != "" {
		logs, err = openJournals(*walDir, *shards, wal.SegmentedOptions{
			SegmentBytes:  *walSeg,
			SnapshotEvery: *snapEvery,
			Registry:      reg,
		}, out)
		if err != nil {
			closeTCP()
			return err
		}
	}
	scfg := shard.Config{Shards: *shards, Group: cfg, ConfigureGroup: func(k int, g *service.Config) {
		if logs.groups != nil {
			g.Journal = logs.groups[k]
		}
		g.Transports = tcp[k]
	}}
	if logs.cross != nil {
		scfg.Log = logs.cross.CrossLog
	}
	coord, err := shard.New(scfg)
	if err != nil {
		closeTCP()
		logs.close() //nolint:errcheck // already failing
		return err
	}
	closeFn := func(ctx context.Context) error { return errors.Join(coord.Close(ctx), logs.close()) }
	if len(logs.replayed) > 0 {
		recCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		settled, err := coord.Recover(recCtx, logs.replayed)
		cancel()
		if err != nil {
			closeFn(context.Background()) //nolint:errcheck // already failing
			return fmt.Errorf("recovering in-doubt cross-shard transactions: %w", err)
		}
		fmt.Fprintf(out, "commitd: cross log replayed (%d records, %d in-doubt settled)\n", len(logs.replayed), settled)
	}

	// A request lives at most the abandonment age, so only one older than
	// that is stalled.
	if *stallAge <= 0 {
		*stallAge = coord.Group(0).MaxAge()
	}

	// Watchdog + flight recorder. The recorder pointer is closed over
	// before the watchdog goroutine starts, so the hook never races.
	var rec *flight.Recorder
	wd := watch.New(coord, watch.Config{
		Interval:     *watchInt,
		StallAge:     *stallAge,
		SLOTargetP99: *sloP99,
		FsyncP99Max:  *fsyncP99,
		Registry:     reg,
		OnTick:       sampler.Sample,
		OnAnomaly: func(a watch.Anomaly) {
			logger.Warn("anomaly detected", "rule", a.Rule,
				olog.Txn(a.Txn), olog.Shard(a.Shard), olog.Node(a.Node),
				"detail", a.Detail)
			path, derr := rec.TriggerDump(a.Rule)
			if derr != nil {
				logger.Error("flight dump failed", "err", derr.Error())
			} else if path != "" {
				logger.Info("flight dump written", "path", path)
			}
		},
	})
	rec = flight.New(flight.Config{
		Spans: coord.Spans(), Watchdog: wd,
		Dir: *flightDir, Cooldown: *flightCD, Registry: reg,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		closeFn(context.Background()) //nolint:errcheck // already failing
		return err
	}
	outer := http.NewServeMux()
	if *withPprof {
		outer.HandleFunc("/debug/pprof/", pprof.Index)
		outer.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		outer.HandleFunc("/debug/pprof/profile", pprof.Profile)
		outer.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		outer.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	outer.Handle("/debug/health", wd.Handler())
	outer.Handle("/debug/flight", rec.Handler())
	outer.Handle("/", shard.NewHTTPHandler(coord))
	wd.Start()
	server := &http.Server{Handler: outer}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	fmt.Fprintf(out, "commitd: serving n=%d shards=%d backend=%s on http://%s\n", *n, *shards, *backend, ln.Addr())
	logger.Info("serving", "addr", ln.Addr().String(), "n", *n, "shards", *shards,
		"backend", *backend, "watch_interval", watchInt.String(), "stall_age", stallAge.String())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	errCh := make(chan error, 1)
	go func() { errCh <- server.Serve(ln) }()

	var serveErr error
	select {
	case s := <-sig:
		fmt.Fprintf(out, "commitd: %v, draining\n", s)
	case serveErr = <-errCh:
		if errors.Is(serveErr, http.ErrServerClosed) {
			serveErr = nil
		}
	}

	wd.Stop()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := closeFn(shutdownCtx); err != nil && serveErr == nil {
		serveErr = err
	}
	if err := server.Shutdown(shutdownCtx); err != nil && serveErr == nil && !errors.Is(err, http.ErrServerClosed) {
		serveErr = err
	}
	m := coord.Metrics()
	fmt.Fprintf(out, "commitd: drained (shards=%d submitted=%d committed=%d aborted=%d timed_out=%d cross=%d cross_committed=%d violations=%d)\n",
		m.Shards, m.Aggregate.Submitted, m.Aggregate.Committed, m.Aggregate.Aborted,
		m.Aggregate.TimedOut, m.Cross.Submitted, m.Cross.Committed, m.Aggregate.SafetyViolations)
	return serveErr
}

// journals are the logs under -wal-dir: one decision journal per group
// and, with several groups, the cross log plus the in-doubt records it
// replayed.
type journals struct {
	groups   []*wal.DecisionLog
	cross    *shard.CrossSegLog
	replayed []shard.CrossRecord
}

// openJournals opens dir's logs for a deployment of shards groups: group
// k's decision journal in dir/shard-<k>, labelled "shard-<k>" in the
// registry, and with several groups the cross log in dir/cross.
func openJournals(dir string, shards int, opts wal.SegmentedOptions, out io.Writer) (j journals, err error) {
	// NewDirFS refuses a single-file journal by name; a layout written for
	// another shard count is refused before anything is created in it.
	if _, err := wal.NewDirFS(dir); err != nil {
		return j, err
	}
	if err := checkLayout(dir, shards); err != nil {
		return j, err
	}
	defer func() {
		if err != nil {
			j.close() //nolint:errcheck // already failing
		}
	}()
	for k := 0; k < shards; k++ {
		o := opts
		o.Name = "shard-" + strconv.Itoa(k)
		if o.FS, err = wal.NewDirFS(filepath.Join(dir, o.Name)); err != nil {
			return j, err
		}
		var g *wal.DecisionLog
		if g, err = wal.OpenDecisionLog(o); err != nil {
			return j, fmt.Errorf("opening decision journal %s: %w", o.Name, err)
		}
		j.groups = append(j.groups, g)
		rs := g.ReplayStats()
		fmt.Fprintf(out, "commitd: decision journal %s replayed (%d records past snap-%08d, %d recovered, %v)\n",
			o.Name, rs.Records, rs.SnapshotSeq, len(g.Recovered()), rs.Duration.Round(time.Microsecond))
	}
	if shards > 1 {
		if j.cross, j.replayed, err = shard.OpenCrossSegmented(filepath.Join(dir, "cross"), opts); err != nil {
			return j, fmt.Errorf("opening cross log: %w", err)
		}
	}
	return j, nil
}

// checkLayout refuses a journal directory laid out for another shard
// count. The router maps ids to groups by the count, so a journal reopened
// under another one would answer /status from the wrong group, and a
// cross log written with more groups would name groups that are gone.
func checkLayout(dir string, shards int) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	found := 0
	for _, e := range entries {
		name := e.Name()
		k, _ := strconv.Atoi(strings.TrimPrefix(name, "shard-"))
		switch {
		case !e.IsDir() && (strings.HasSuffix(name, ".seg") || strings.HasSuffix(name, ".snap")):
			return fmt.Errorf("%s holds %s, a journal from before per-shard directories: move its files into %s",
				dir, name, filepath.Join(dir, "shard-0"))
		case !e.IsDir() || k < 0 || name != "shard-"+strconv.Itoa(k):
		case k >= shards:
			return fmt.Errorf("%s holds %s, a journal for a group beyond -shards %d", dir, name, shards)
		default:
			found++
		}
	}
	if found > 0 && found < shards {
		return fmt.Errorf("%s holds %d of the journals shard-0 to shard-%d: it was written with another -shards", dir, found, shards-1)
	}
	return nil
}

func (j journals) close() error {
	var errs []error
	for _, g := range j.groups {
		errs = append(errs, g.Close())
	}
	if j.cross != nil {
		errs = append(errs, j.cross.Close())
	}
	return errors.Join(errs...)
}

// loopbackTCP boots n peered TCP nodes on ephemeral loopback ports — the
// real-sockets cluster backend — instrumented against reg.
func loopbackTCP(n int, reg *obs.Registry) ([]transport.Transport, error) {
	nodes := make([]*transport.TCPNode, n)
	peers := make(map[types.ProcID]string, n)
	for p := 0; p < n; p++ {
		tn, err := transport.ListenTCP(types.ProcID(p), "127.0.0.1:0")
		if err != nil {
			for _, prev := range nodes[:p] {
				prev.Close() //nolint:errcheck
			}
			return nil, err
		}
		tn.Instrument(reg)
		nodes[p] = tn
		peers[types.ProcID(p)] = tn.Addr()
	}
	out := make([]transport.Transport, n)
	for p, tn := range nodes {
		tn.SetPeers(peers)
		out[p] = tn
	}
	return out, nil
}
