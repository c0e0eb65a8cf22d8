// Command commitd is the transaction-commit daemon: it fronts one or
// more live clusters of transaction managers with an HTTP/JSON API
// (stdlib net/http only) so clients can submit transactions and observe
// outcomes.
//
//	commitd -addr 127.0.0.1:8080 -n 5
//	commitd -addr 127.0.0.1:8080 -n 3 -shards 4 -cross-wal state/cross
//
//	POST /commit        {"id":"t1","votes":[true,true,false,true,true]}
//	                    sharded: {"id":"t1","keys":["user:7","user:9"]}
//	GET  /status/{txn}  state of a known transaction
//	GET  /metrics       counters + latency percentiles (JSON)
//	GET  /metrics.prom  every layer's metrics, Prometheus text format
//	GET  /debug/spans   the span ring as a causal graph: stages, rounds,
//	                    links and protocol milestones (?txn=<id> filters
//	                    to the txn and its batch; sharded deployments
//	                    include the txn's per-shard children)
//	GET  /debug/health  watchdog anomaly report (stalls, crashes, SLO burn)
//	GET  /debug/flight  on-demand flight-recorder dump (render with
//	                    `tracedump flight`)
//	GET  /healthz       liveness + cluster size (+ shard count)
//	GET  /readyz        readiness: 503 while starting or draining
//	POST /crash/{node}  fault injection: fail-stop one processor
//	                    (sharded: in EVERY group — the correlated case;
//	                    POST /crash/{shard}/{node} targets one group)
//
// With -shards N > 1 the daemon hosts N independent commit groups behind
// one consistent-hash router; transactions whose key sets span several
// groups run as a cross-shard commit-of-commits (internal/shard), and
// -cross-wal names the directory that persists the coordinator's
// two-layer protocol state so a restarted daemon settles in-doubt
// cross-shard transactions before serving. Each journal flag belongs to
// one mode (-wal-dir to -shards 1, -cross-wal to -shards N > 1); the
// other combination is refused at start-up, because it would log nothing.
//
// The cluster backend is either the in-process channel hub (default) or
// real TCP nodes on loopback (-backend tcp, single-shard only) — same
// machines, same protocol, heavier transport. -pprof additionally mounts
// net/http/pprof under /debug/pprof/ (off by default).
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
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/olog"
	"repro/internal/obs/span"
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
		inflight  = fs.Int("inflight", 128, "max concurrent commit instances (per shard)")
		batch     = fs.Int("batch", 64, "max submissions coalesced per dispatch (clamped to -inflight)")
		timeout   = fs.Duration("timeout", 10*time.Second, "default per-request deadline")
		backend   = fs.String("backend", "channel", "cluster transport: channel or tcp")
		shards    = fs.Int("shards", 1, "independent commit groups behind the consistent-hash router")
		crossWAL  = fs.String("cross-wal", "", "cross-shard coordinator WAL directory (sharded mode only; replayed on start, cross outcomes wait for group-commit fsync)")
		_         = fs.Bool("batch-agreement", false, "ignored: every dispatch batch is decided by one vector-outcome agreement instance (accepted because bench/ passes it)")
		walDir    = fs.String("wal-dir", "", "decision-journal directory (single-shard mode only; replayed on start, client acks wait for group-commit fsync)")
		walSeg    = fs.Int("wal-segment-bytes", 1<<20, "WAL segment rotation threshold in bytes")
		walGroup  = fs.Duration("wal-group-commit", 0, "max extra latency the WAL writer waits to coalesce decision fsyncs (0: flush whatever has queued)")
		snapEvery = fs.Int("snapshot-every", 4096, "at least this many WAL records between state snapshots; one also waits until the log has grown by as much as the last weighed (0: never snapshot; replay covers the whole log)")
		withPprof = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")

		logFormat = fs.String("log-format", "text", "structured log format: text or json")
		logLevel  = fs.String("log-level", "info", "minimum log level: debug, info, warn, error")
		watchInt  = fs.Duration("watch-interval", time.Second, "anomaly watchdog sampling period")
		stallAge  = fs.Duration("stall-age", 0, "age past which an in-flight transaction is a stall anomaly (default 2x -timeout)")
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
	// Each mode reads one journal flag; accepting the other would run a
	// daemon whose operator believes its acks are durable.
	if *shards > 1 && *walDir != "" {
		return fmt.Errorf("-wal-dir journals single-shard decisions and is not used with -shards %d; use -cross-wal", *shards)
	}
	if *shards == 1 && *crossWAL != "" {
		return errors.New("-cross-wal journals cross-shard outcomes and is not used with -shards 1; use -wal-dir")
	}

	logger, err := olog.New(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		return err
	}
	if *stallAge <= 0 {
		*stallAge = 2 * *timeout
	}

	reg := obs.NewRegistry()
	obs.RegisterProcessMetrics(reg)
	sampler := obs.RegisterRuntimeMetrics(reg)
	cfg := service.Config{
		N: *n, T: *tFaults, K: *k,
		TickEvery:      *tick,
		Seed:           *seed,
		QueueDepth:     *queue,
		MaxInFlight:    *inflight,
		BatchMax:       *batch,
		DefaultTimeout: *timeout,
		Registry:       reg,
		Logger:         logger,
	}
	switch *backend {
	case "channel":
	case "tcp":
		if *shards != 1 {
			return errors.New("-backend tcp supports -shards 1 only (each group needs its own peered listeners)")
		}
		transports, err := loopbackTCP(*n, reg)
		if err != nil {
			return err
		}
		cfg.Transports = transports
	default:
		return fmt.Errorf("unknown backend %q (want channel or tcp)", *backend)
	}

	// One group: serve the plain service (byte-identical surface to every
	// earlier release). Several groups: serve the sharded coordinator.
	var handler http.Handler
	var closeFn func(context.Context) error
	var report func()
	var src watch.Source
	var spans *span.Collector
	if *shards == 1 {
		var journal *wal.DecisionLog
		if *walDir != "" {
			dirFS, err := wal.NewDirFS(*walDir)
			if err != nil {
				return err
			}
			journal, err = wal.OpenDecisionLog(wal.SegmentedOptions{
				FS:            dirFS,
				SegmentBytes:  *walSeg,
				GroupCommit:   *walGroup,
				SnapshotEvery: *snapEvery,
				Registry:      reg,
			})
			if err != nil {
				return fmt.Errorf("opening decision journal: %w", err)
			}
			rs := journal.ReplayStats()
			fmt.Fprintf(out, "commitd: decision journal replayed (%d records past snap-%08d, %d recovered, %v)\n",
				rs.Records, rs.SnapshotSeq, len(journal.Recovered()), rs.Duration.Round(time.Microsecond))
			cfg.Journal = journal
		}
		svc, err := service.New(cfg)
		if err != nil {
			if journal != nil {
				journal.Close() //nolint:errcheck // already failing
			}
			return err
		}
		handler = service.NewHTTPHandler(svc)
		src, spans = svc, svc.Spans()
		closeFn = func(ctx context.Context) error {
			err := svc.Close(ctx)
			if journal != nil {
				if jerr := journal.Close(); jerr != nil && err == nil {
					err = jerr
				}
			}
			return err
		}
		report = func() {
			m := svc.Metrics()
			fmt.Fprintf(out, "commitd: drained (submitted=%d committed=%d aborted=%d timed_out=%d violations=%d)\n",
				m.Submitted, m.Committed, m.Aborted, m.TimedOut, m.SafetyViolations)
			if m.Journal != nil {
				decided := m.Committed + m.Aborted
				amort := float64(0)
				if m.Journal.Fsyncs > 0 {
					amort = float64(decided) / float64(m.Journal.Fsyncs)
				}
				fmt.Fprintf(out, "commitd: journal (appends=%d fsyncs=%d decisions/fsync=%.1f snapshots=%d segments=%d compacted=%d)\n",
					m.Journal.Appends, m.Journal.Fsyncs, amort,
					m.Journal.Snapshots, m.Journal.SegmentsCreated, m.Journal.SegmentsCompacted)
			}
		}
	} else {
		scfg := shard.Config{Shards: *shards, Group: cfg}
		var crossLog *shard.CrossSegLog
		var replayed []shard.CrossRecord
		if *crossWAL != "" {
			var err error
			crossLog, replayed, err = shard.OpenCrossSegmented(*crossWAL, wal.SegmentedOptions{
				SegmentBytes:  *walSeg,
				GroupCommit:   *walGroup,
				SnapshotEvery: *snapEvery,
				Registry:      reg,
			})
			if err != nil {
				return fmt.Errorf("opening cross WAL: %w", err)
			}
			scfg.Log = crossLog.CrossLog
		}
		coord, err := shard.New(scfg)
		if err != nil {
			if crossLog != nil {
				crossLog.Close() //nolint:errcheck // already failing
			}
			return err
		}
		if len(replayed) > 0 {
			recCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			settled, err := coord.Recover(recCtx, replayed)
			cancel()
			if err != nil {
				coord.Close(context.Background()) //nolint:errcheck // already failing
				crossLog.Close()                  //nolint:errcheck // already failing
				return fmt.Errorf("recovering in-doubt cross-shard transactions: %w", err)
			}
			fmt.Fprintf(out, "commitd: cross WAL replayed (%d records, %d in-doubt settled)\n", len(replayed), settled)
		}
		handler = shard.NewHTTPHandler(coord)
		src, spans = coord, coord.Spans()
		closeFn = func(ctx context.Context) error {
			err := coord.Close(ctx)
			if crossLog != nil {
				if cerr := crossLog.Close(); cerr != nil && err == nil {
					err = cerr
				}
			}
			return err
		}
		report = func() {
			m := coord.Metrics()
			fmt.Fprintf(out, "commitd: drained (shards=%d submitted=%d committed=%d aborted=%d timed_out=%d cross=%d cross_committed=%d violations=%d)\n",
				m.Shards, m.Aggregate.Submitted, m.Aggregate.Committed, m.Aggregate.Aborted,
				m.Aggregate.TimedOut, m.Cross.Submitted, m.Cross.Committed, m.Aggregate.SafetyViolations)
		}
	}

	// Watchdog + flight recorder. The recorder pointer is closed over
	// before the watchdog goroutine starts, so the hook never races.
	var rec *flight.Recorder
	wd := watch.New(src, watch.Config{
		Interval:     *watchInt,
		StallAge:     *stallAge,
		SLOTargetP99: *sloP99,
		FsyncP99Max:  *fsyncP99,
		// Storm/imbalance thresholds are fixed: bursts this size within
		// one sampling interval indicate injected faults or a routing
		// pathology, not normal load.
		RescueBurst:     8,
		ImbalanceFactor: 8,
		ImbalanceMin:    256,
		Registry:        reg,
		OnTick:          sampler.Sample,
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
		Spans: spans, Source: src, Watchdog: wd,
		StallAge: *stallAge, Dir: *flightDir, Cooldown: *flightCD,
		Registry: reg,
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
	outer.Handle("/", handler)
	handler = outer
	wd.Start()
	server := &http.Server{Handler: handler}
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
	report()
	return serveErr
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
