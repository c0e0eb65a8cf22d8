// Command loadgen drives a commitd daemon with synthetic transaction
// load and reports throughput and latency percentiles per outcome.
//
//	loadgen -addr 127.0.0.1:8080 -mode closed -concurrency 16 -total 2000
//	loadgen -addr 127.0.0.1:8080 -mode open -rate 500 -duration 10s
//	loadgen -addr 127.0.0.1:8080 -total 2000 -json | jq .throughput_tps
//
// Against a sharded daemon (commitd -shards N) the generator speaks the
// keyed workload dialect: -tenants picks transaction key owners under a
// zipfian popularity skew (-tenant-skew), -cross-fraction makes that
// share of transactions carry key sets spanning at least two shards (the
// cross-shard commit-of-commits path), and -hot-shard pins every key to
// one shard to model a load hot spot. The report then breaks latency
// down per shard and cross-vs-single:
//
//	loadgen -addr 127.0.0.1:8080 -total 5000 -tenants 64 -cross-fraction 0.2
//
// A fraction of transactions carry one dissenting vote (-abort-fraction)
// and must resolve ABORT — a COMMIT on such a transaction is counted as
// a client-observed safety violation. Optionally one node is fail-stopped
// partway through the run (-crash-node/-crash-after). The exit status is
// nonzero if either the client or the daemon observed a violation, or if
// the daemon never became reachable within -ready-wait.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs/watch"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// genConfig is the parsed flag set.
type genConfig struct {
	addr          string
	mode          string
	concurrency   int
	rate          float64
	total         int
	duration      time.Duration
	abortFraction float64
	timeout       time.Duration
	readyWait     time.Duration
	crashNode     int
	crashAfter    int
	seed          int64
	jsonOut       bool

	// Keyed multi-tenant workload (sharded daemons).
	tenants       int
	tenantSkew    float64
	keysPerTxn    int
	crossFraction float64
	hotShard      int
}

// genStats accumulates results across workers.
type genStats struct {
	mu         sync.Mutex
	byState    map[service.State]*stats.Recorder
	byShard    map[int]*stats.Recorder
	cross      *stats.Recorder
	single     *stats.Recorder
	violations int
	errors     int
	retried429 int
}

// record books one completed transaction: by outcome, by participating
// shard (a cross transaction counts on every shard it touched), and into
// the cross-vs-single split.
func (g *genStats) record(st service.State, latencyMs float64, violation bool, shards []int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	rec := g.byState[st]
	if rec == nil {
		rec = stats.NewRecorder(1 << 16)
		g.byState[st] = rec
	}
	rec.Add(latencyMs)
	for _, s := range shards {
		sr := g.byShard[s]
		if sr == nil {
			sr = stats.NewRecorder(1 << 16)
			g.byShard[s] = sr
		}
		sr.Add(latencyMs)
	}
	if len(shards) > 1 {
		g.cross.Add(latencyMs)
	} else {
		g.single.Add(latencyMs)
	}
	if violation {
		g.violations++
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	cfg := genConfig{}
	fs.StringVar(&cfg.addr, "addr", "127.0.0.1:8080", "commitd address (host:port)")
	fs.StringVar(&cfg.mode, "mode", "closed", "load mode: closed (fixed workers) or open (fixed rate)")
	fs.IntVar(&cfg.concurrency, "concurrency", 8, "closed-loop worker count")
	fs.Float64Var(&cfg.rate, "rate", 200, "open-loop target submissions/sec")
	fs.IntVar(&cfg.total, "total", 1000, "stop after this many transactions (0: duration only)")
	fs.DurationVar(&cfg.duration, "duration", 0, "stop after this long (0: total only)")
	fs.Float64Var(&cfg.abortFraction, "abort-fraction", 0.2, "fraction of txns with one dissenting vote")
	fs.DurationVar(&cfg.timeout, "timeout", 30*time.Second, "per-request client timeout")
	fs.DurationVar(&cfg.readyWait, "ready-wait", 5*time.Second, "how long to wait for the daemon to answer /readyz")
	fs.IntVar(&cfg.crashNode, "crash-node", -1, "node to fail-stop mid-run (-1: none)")
	fs.IntVar(&cfg.crashAfter, "crash-after", 0, "crash after this many completed txns")
	fs.Int64Var(&cfg.seed, "seed", 1, "client randomness seed")
	fs.BoolVar(&cfg.jsonOut, "json", false, "emit the end-of-run summary as one JSON object")
	fs.IntVar(&cfg.tenants, "tenants", 0, "tenant count for the keyed workload (0: id-only txns, no keys)")
	fs.Float64Var(&cfg.tenantSkew, "tenant-skew", 1.2, "zipf exponent for tenant popularity (<=1: uniform)")
	fs.IntVar(&cfg.keysPerTxn, "keys-per-txn", 2, "keys per transaction in the keyed workload")
	fs.Float64Var(&cfg.crossFraction, "cross-fraction", 0, "fraction of keyed txns forced to span >=2 shards")
	fs.IntVar(&cfg.hotShard, "hot-shard", -1, "pin every key to this shard (-1: off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if cfg.total <= 0 && cfg.duration <= 0 {
		return errors.New("need -total or -duration")
	}
	if cfg.abortFraction < 0 || cfg.abortFraction > 1 {
		return errors.New("-abort-fraction must be in [0,1]")
	}
	if cfg.crossFraction < 0 || cfg.crossFraction > 1 {
		return errors.New("-cross-fraction must be in [0,1]")
	}
	if cfg.tenants == 0 && (cfg.crossFraction > 0 || cfg.hotShard >= 0) {
		return errors.New("-cross-fraction and -hot-shard need the keyed workload: set -tenants > 0")
	}
	if cfg.tenants > 0 && cfg.keysPerTxn < 1 {
		return errors.New("-keys-per-txn must be >= 1")
	}
	if cfg.tenants > 0 && cfg.keysPerTxn > service.MaxCommitKeys {
		return fmt.Errorf("-keys-per-txn must be <= %d", service.MaxCommitKeys)
	}
	return drive(cfg, out)
}

// keygen builds per-transaction key sets for the multi-tenant workload
// and shapes where they land: cross transactions are forced to span at
// least two shards, everything else is pinned to exactly one (otherwise
// random multi-key txns would cross shards far more often than the
// configured fraction). The shaping probes the same deterministic router
// the daemon runs, so client and server always agree on placement.
type keygen struct {
	cfg    genConfig
	router *shard.Router
}

// tenant draws a tenant id: zipfian when skew > 1 (tenant 0 hottest),
// uniform otherwise. The zipf source is per-worker, keeping draws
// deterministic under -seed.
func (kg *keygen) tenant(rng *rand.Rand, zipf *rand.Zipf) int {
	if zipf != nil {
		return int(zipf.Uint64())
	}
	return rng.Intn(kg.cfg.tenants)
}

// key emits one key in the tenant's namespace.
func (kg *keygen) key(tenant int, rng *rand.Rand) string {
	return "t" + strconv.Itoa(tenant) + "/k" + strconv.Itoa(rng.Intn(1<<20))
}

// keyOnShard probes the tenant's keyspace until a key routes to the
// wanted shard. Each draw hits any given shard with probability ~1/S, so
// the expected probe count is the shard count; the bound is pure
// paranoia.
func (kg *keygen) keyOnShard(tenant, want int, rng *rand.Rand) (string, error) {
	for i := 0; i < 1<<16; i++ {
		if k := kg.key(tenant, rng); kg.router.Route(k) == want {
			return k, nil
		}
	}
	return "", fmt.Errorf("no key of tenant %d routes to shard %d", tenant, want)
}

// keys builds the key set for one transaction and reports whether it was
// shaped to cross shards.
func (kg *keygen) keys(rng *rand.Rand, zipf *rand.Zipf) ([]string, bool, error) {
	tenant := kg.tenant(rng, zipf)
	nk := kg.cfg.keysPerTxn
	if kg.router == nil || kg.router.Shards() == 1 {
		// Single shard: nothing to shape.
		out := make([]string, nk)
		for i := range out {
			out[i] = kg.key(tenant, rng)
		}
		return out, false, nil
	}
	if kg.cfg.hotShard >= 0 {
		out := make([]string, nk)
		for i := range out {
			k, err := kg.keyOnShard(tenant, kg.cfg.hotShard, rng)
			if err != nil {
				return nil, false, err
			}
			out[i] = k
		}
		return out, false, nil
	}
	if rng.Float64() < kg.cfg.crossFraction {
		if nk < 2 {
			nk = 2 // spanning two shards takes two keys
		}
		out := make([]string, 0, nk)
		first := kg.key(tenant, rng)
		out = append(out, first)
		home := kg.router.Route(first)
		// Second key on a different shard guarantees the span; the rest
		// fall wherever they fall.
		away := (home + 1 + rng.Intn(kg.router.Shards()-1)) % kg.router.Shards()
		k, err := kg.keyOnShard(tenant, away, rng)
		if err != nil {
			return nil, false, err
		}
		out = append(out, k)
		for len(out) < nk {
			out = append(out, kg.key(tenant, rng))
		}
		return out, true, nil
	}
	// Single-shard txn: pin every key to the first key's shard.
	out := make([]string, 0, nk)
	first := kg.key(tenant, rng)
	out = append(out, first)
	home := kg.router.Route(first)
	for len(out) < nk {
		k, err := kg.keyOnShard(tenant, home, rng)
		if err != nil {
			return nil, false, err
		}
		out = append(out, k)
	}
	return out, false, nil
}

// drive runs the configured load against the daemon and prints the
// report. It is the testable core of the CLI.
func drive(cfg genConfig, out io.Writer) error {
	base := "http://" + cfg.addr
	client := &http.Client{Timeout: cfg.timeout}

	if cfg.readyWait <= 0 {
		cfg.readyWait = 5 * time.Second
	}
	if err := waitReady(client, base, cfg.readyWait, rand.New(rand.NewSource(cfg.seed))); err != nil {
		return err
	}
	health, err := clusterInfo(client, base)
	if err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	n, shards := health.N, health.Shards
	if cfg.crossFraction > 0 && shards < 2 {
		return fmt.Errorf("-cross-fraction %.2f needs a sharded daemon, but %s runs 1 shard", cfg.crossFraction, cfg.addr)
	}
	if cfg.hotShard >= shards {
		return fmt.Errorf("-hot-shard %d out of range: daemon runs %d shard(s)", cfg.hotShard, shards)
	}

	kg := &keygen{cfg: cfg}
	if cfg.tenants > 0 && shards > 1 {
		// The router is deterministic across processes, so the client's
		// copy agrees with the daemon's placement exactly.
		kg.router, err = shard.NewRouter(shards)
		if err != nil {
			return err
		}
	}

	// Snapshot the daemon's counters before the run so the end-of-run
	// numbers (decisions/sec, batch occupancy) are deltas attributable to
	// this run, not the daemon's lifetime totals.
	before, _, err := fetchMetrics(client, base, n)
	if err != nil {
		return fmt.Errorf("metrics (pre-run): %w", err)
	}

	g := &genStats{
		byState: make(map[service.State]*stats.Recorder),
		byShard: make(map[int]*stats.Recorder),
		cross:   stats.NewRecorder(1 << 16),
		single:  stats.NewRecorder(1 << 16),
	}
	ctx := context.Background()
	var cancel context.CancelFunc = func() {}
	if cfg.duration > 0 {
		ctx, cancel = context.WithTimeout(ctx, cfg.duration)
	}
	defer cancel()

	var completed atomic.Int64
	var launched atomic.Int64
	crashed := make(chan struct{})
	var crashOnce sync.Once
	maybeCrash := func() {
		if cfg.crashNode < 0 {
			return
		}
		if completed.Load() >= int64(cfg.crashAfter) {
			crashOnce.Do(func() {
				resp, err := client.Post(fmt.Sprintf("%s/crash/%d", base, cfg.crashNode), "application/json", nil)
				if err == nil {
					resp.Body.Close()
				}
				close(crashed)
			})
		}
	}

	// next hands out transaction sequence numbers until the run is over.
	next := func() (int64, bool) {
		if ctx.Err() != nil {
			return 0, false
		}
		i := launched.Add(1) - 1
		if cfg.total > 0 && i >= int64(cfg.total) {
			return 0, false
		}
		return i, true
	}

	var genErr atomic.Value // first keygen failure, ends the run
	oneTxn := func(rng *rand.Rand, zipf *rand.Zipf, seq int64) {
		defer completed.Add(1)
		votes := make([]bool, n)
		for i := range votes {
			votes[i] = true
		}
		wantAbort := rng.Float64() < cfg.abortFraction
		if wantAbort {
			votes[rng.Intn(n)] = false
		}
		req := service.CommitRequestJSON{
			ID:    fmt.Sprintf("load-%d", seq),
			Votes: votes,
		}
		if cfg.tenants > 0 {
			keys, _, err := kg.keys(rng, zipf)
			if err != nil {
				genErr.CompareAndSwap(nil, err)
				cancel()
				return
			}
			req.Keys = keys
		}
		body, _ := json.Marshal(req)
		// Closed-loop clients back off and retry on 429 using the
		// server's hint; other failures count once and move on.
		for {
			resp, err := client.Post(base+"/commit", "application/json", bytes.NewReader(body))
			if err != nil {
				g.mu.Lock()
				g.errors++
				g.mu.Unlock()
				return
			}
			if resp.StatusCode == http.StatusTooManyRequests {
				var e service.ErrorJSON
				json.NewDecoder(resp.Body).Decode(&e) //nolint:errcheck
				resp.Body.Close()
				g.mu.Lock()
				g.retried429++
				g.mu.Unlock()
				hint := time.Duration(e.RetryAfterMs) * time.Millisecond
				if hint <= 0 {
					hint = 50 * time.Millisecond
				}
				select {
				case <-time.After(hint):
					continue
				case <-ctx.Done():
					return
				}
			}
			var cr service.CommitResponseJSON
			decodeErr := json.NewDecoder(resp.Body).Decode(&cr)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || decodeErr != nil {
				g.mu.Lock()
				g.errors++
				g.mu.Unlock()
				return
			}
			// Client-observed abort validity: a transaction with a NO
			// vote must never commit, crashes or not — single- or
			// cross-shard alike (the dissenting vote reaches every
			// participating group).
			violation := wantAbort && cr.State == service.StateCommit
			g.record(cr.State, cr.LatencyMs, violation, cr.Shards)
			return
		}
	}

	// zipfFor builds a per-worker zipf source when the skew asks for one;
	// rand.Zipf requires s > 1, below that tenant draws are uniform.
	zipfFor := func(rng *rand.Rand) *rand.Zipf {
		if cfg.tenants > 1 && cfg.tenantSkew > 1 {
			return rand.NewZipf(rng, cfg.tenantSkew, 1, uint64(cfg.tenants-1))
		}
		return nil
	}

	start := time.Now()
	var wg sync.WaitGroup
	switch cfg.mode {
	case "closed":
		for w := 0; w < cfg.concurrency; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(cfg.seed + int64(w)))
				zipf := zipfFor(rng)
				for {
					seq, ok := next()
					if !ok {
						return
					}
					oneTxn(rng, zipf, seq)
					maybeCrash()
				}
			}(w)
		}
	case "open":
		if cfg.rate <= 0 {
			return errors.New("-rate must be positive in open mode")
		}
		interval := time.Duration(float64(time.Second) / cfg.rate)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		var seedMu sync.Mutex
		rngSeed := cfg.seed
	loop:
		for {
			select {
			case <-ctx.Done():
				break loop
			case <-ticker.C:
				seq, ok := next()
				if !ok {
					break loop
				}
				wg.Add(1)
				go func(seq int64) {
					defer wg.Done()
					seedMu.Lock()
					rngSeed++
					s := rngSeed
					seedMu.Unlock()
					rng := rand.New(rand.NewSource(s))
					oneTxn(rng, zipfFor(rng), seq)
					maybeCrash()
				}(seq)
			}
		}
	default:
		return fmt.Errorf("unknown mode %q (want closed or open)", cfg.mode)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err, ok := genErr.Load().(error); ok && err != nil {
		return fmt.Errorf("workload generation: %w", err)
	}

	// Pull the daemon's own view: safety violations detected server-side.
	m, sm, err := fetchMetrics(client, base, n)
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}

	s := summarize(cfg, g, m, before, sm, elapsed)
	s.Watchdog = fetchWatchdog(client, base)
	if cfg.jsonOut {
		enc := json.NewEncoder(out)
		if err := enc.Encode(s); err != nil {
			return err
		}
	} else {
		report(out, cfg, s, elapsed)
	}

	if s.ClientViolations > 0 || m.SafetyViolations > 0 {
		return fmt.Errorf("safety violations: client=%d daemon=%d", s.ClientViolations, m.SafetyViolations)
	}
	return nil
}

// fetchMetrics pulls the daemon's /metrics snapshot, the sharded one at
// every shard count. It slots into the service.Metrics shape: at one shard
// its group's snapshot, which keeps the stage table, batch occupancy and
// crash list in the report; at several, the aggregate of their counters.
func fetchMetrics(client *http.Client, base string, n int) (service.Metrics, *shard.Metrics, error) {
	var m service.Metrics
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return m, nil, err
	}
	defer resp.Body.Close()
	var sm shard.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&sm); err != nil {
		return m, nil, err
	}
	m = sm.Aggregate
	if len(sm.PerShard) == 1 {
		m = sm.PerShard[0]
	}
	m.N = n
	return m, &sm, nil
}

// occupancyDelta subtracts the pre-run occupancy snapshot from the
// post-run one, yielding the batch-size distribution of this run alone.
// Nil when the daemon never batched during the run (unbatched mode, or
// an idle batched daemon).
func occupancyDelta(after, before *service.BatchOccupancy) *service.BatchOccupancy {
	if after == nil {
		return nil
	}
	d := &service.BatchOccupancy{Count: after.Count, Sum: after.Sum}
	d.Buckets = append([]service.OccupancyBucket(nil), after.Buckets...)
	if before != nil {
		d.Count -= before.Count
		d.Sum -= before.Sum
		for i := range d.Buckets {
			if i < len(before.Buckets) && d.Buckets[i].LE == before.Buckets[i].LE {
				d.Buckets[i].Count -= before.Buckets[i].Count
			}
		}
	}
	if d.Count == 0 {
		return nil
	}
	d.Mean = d.Sum / float64(d.Count)
	return d
}

// OutcomeJSON is the per-outcome block of the -json summary.
type OutcomeJSON struct {
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
}

// SummaryJSON is the single end-of-run object emitted by -json, for
// scripted sweeps that post-process runs without scraping the table.
type SummaryJSON struct {
	Mode             string                  `json:"mode"`
	N                int                     `json:"n"`
	Shards           int                     `json:"shards,omitempty"`
	ElapsedMs        float64                 `json:"elapsed_ms"`
	Completed        uint64                  `json:"completed"`
	ThroughputTPS    float64                 `json:"throughput_tps"`
	DecisionsPerSec  float64                 `json:"decisions_per_sec"`
	BatchesDecided   uint64                  `json:"batches_decided,omitempty"`
	BatchOccupancy   *service.BatchOccupancy `json:"batch_occupancy,omitempty"`
	ClientErrors     int                     `json:"client_errors"`
	OverloadRetries  int                     `json:"overload_retries"`
	ClientViolations int                     `json:"client_violations"`
	Outcomes         map[string]OutcomeJSON  `json:"outcomes"`
	PerShard         map[string]OutcomeJSON  `json:"per_shard,omitempty"`
	CrossShard       *OutcomeJSON            `json:"cross_shard,omitempty"`
	SingleShard      *OutcomeJSON            `json:"single_shard,omitempty"`
	Daemon           service.Metrics         `json:"daemon"`
	DaemonSharded    *shard.Metrics          `json:"daemon_sharded,omitempty"`
	Watchdog         *watch.Health           `json:"watchdog,omitempty"`
}

// outcomeOf folds one recorder into the JSON block.
func outcomeOf(rec *stats.Recorder) OutcomeJSON {
	snap := rec.Snapshot(50, 95, 99)
	return OutcomeJSON{
		Count:  snap.Total,
		MeanMs: snap.Summary.Mean,
		P50Ms:  snap.Percentiles[0],
		P95Ms:  snap.Percentiles[1],
		P99Ms:  snap.Percentiles[2],
	}
}

// summarize folds the client-side stats and the daemon's snapshot into
// the machine-readable summary; both output paths render from it.
func summarize(cfg genConfig, g *genStats, m, before service.Metrics, sharded *shard.Metrics, elapsed time.Duration) SummaryJSON {
	g.mu.Lock()
	defer g.mu.Unlock()
	s := SummaryJSON{
		Mode:             cfg.mode,
		N:                m.N,
		ElapsedMs:        float64(elapsed) / float64(time.Millisecond),
		ClientErrors:     g.errors,
		OverloadRetries:  g.retried429,
		ClientViolations: g.violations,
		Outcomes:         make(map[string]OutcomeJSON, len(g.byState)),
		Daemon:           m,
	}
	for st, rec := range g.byState {
		o := outcomeOf(rec)
		s.Outcomes[string(st)] = o
		s.Completed += o.Count
	}
	if secs := elapsed.Seconds(); secs > 0 {
		s.ThroughputTPS = float64(s.Completed) / secs
		// Daemon-side decision rate: terminal outcomes this run over the
		// run's wall clock — the server's view, immune to client-side
		// queueing and retry delays.
		decided := (m.Committed + m.Aborted + m.TimedOut) -
			(before.Committed + before.Aborted + before.TimedOut)
		s.DecisionsPerSec = float64(decided) / secs
	}
	s.BatchesDecided = m.BatchesDecided - before.BatchesDecided
	s.BatchOccupancy = occupancyDelta(m.BatchOccupancy, before.BatchOccupancy)
	s.Shards = sharded.Shards
	s.DaemonSharded = sharded
	s.PerShard = make(map[string]OutcomeJSON, len(g.byShard))
	for sh, rec := range g.byShard {
		s.PerShard[strconv.Itoa(sh)] = outcomeOf(rec)
	}
	cross := outcomeOf(g.cross)
	single := outcomeOf(g.single)
	s.CrossShard = &cross
	s.SingleShard = &single
	return s
}

func report(out io.Writer, cfg genConfig, s SummaryJSON, elapsed time.Duration) {
	table := stats.NewTable("outcome", "count", "p50 ms", "p95 ms", "p99 ms")
	states := make([]string, 0, len(s.Outcomes))
	for st := range s.Outcomes {
		states = append(states, st)
	}
	sort.Strings(states)
	for _, st := range states {
		o := s.Outcomes[st]
		table.AddRow(st, o.Count, fmt.Sprintf("%.2f", o.P50Ms),
			fmt.Sprintf("%.2f", o.P95Ms), fmt.Sprintf("%.2f", o.P99Ms))
	}
	m := s.Daemon
	if s.Shards > 1 {
		fmt.Fprintf(out, "loadgen: mode=%s n=%d shards=%d elapsed=%v\n", cfg.mode, m.N, s.Shards, elapsed.Round(time.Millisecond))
	} else {
		fmt.Fprintf(out, "loadgen: mode=%s n=%d elapsed=%v\n", cfg.mode, m.N, elapsed.Round(time.Millisecond))
	}
	fmt.Fprint(out, table.String())
	fmt.Fprintf(out, "throughput: %.1f txn/s (%d completed, %d client errors, %d overload retries)\n",
		s.ThroughputTPS, s.Completed, s.ClientErrors, s.OverloadRetries)
	fmt.Fprintf(out, "decisions: %.1f/s daemon-side\n", s.DecisionsPerSec)
	fmt.Fprintf(out, "daemon: committed=%d aborted=%d timed_out=%d crashed=%v violations=%d\n",
		m.Committed, m.Aborted, m.TimedOut, m.Crashed, m.SafetyViolations)
	if bo := s.BatchOccupancy; bo != nil {
		fmt.Fprintf(out, "batch occupancy: %d batches decided, mean %.1f txns/batch\n",
			s.BatchesDecided, bo.Mean)
		bt := stats.NewTable("occupancy <=", "batches")
		for _, b := range bo.Buckets {
			bt.AddRow(b.LE, b.Count)
		}
		fmt.Fprint(out, bt.String())
	}
	if s.Shards > 1 {
		sht := stats.NewTable("shard", "count", "p50 ms", "p99 ms")
		ids := make([]string, 0, len(s.PerShard))
		for id := range s.PerShard {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			o := s.PerShard[id]
			sht.AddRow(id, o.Count, fmt.Sprintf("%.2f", o.P50Ms), fmt.Sprintf("%.2f", o.P99Ms))
		}
		fmt.Fprint(out, "per-shard latency:\n"+sht.String())
		fmt.Fprintf(out, "cross-shard: count=%d p50=%.2fms p99=%.2fms | single-shard: count=%d p50=%.2fms p99=%.2fms\n",
			s.CrossShard.Count, s.CrossShard.P50Ms, s.CrossShard.P99Ms,
			s.SingleShard.Count, s.SingleShard.P50Ms, s.SingleShard.P99Ms)
		ds := s.DaemonSharded
		fmt.Fprintf(out, "daemon cross layer: submitted=%d committed=%d aborted=%d in_doubt=%d p99=%.2fms\n",
			ds.Cross.Submitted, ds.Cross.Committed, ds.Cross.Aborted, ds.Cross.InDoubt, ds.Cross.LatencyP99Ms)
	}
	if len(m.Stages) > 0 {
		st := stats.NewTable("stage", "count", "p50 ms", "p99 ms")
		// Pipeline order, not lexical: where a transaction's time goes.
		for _, name := range []string{"admit", "batch", "dispatch", "decided", "notify"} {
			sl, ok := m.Stages[name]
			if !ok {
				continue
			}
			st.AddRow(name, sl.Count, fmt.Sprintf("%.3f", sl.P50Ms), fmt.Sprintf("%.3f", sl.P99Ms))
		}
		fmt.Fprint(out, "daemon stage latency:\n"+st.String())
	}
	if w := s.Watchdog; w != nil {
		fmt.Fprintf(out, "watchdog: status=%s ticks=%d anomalies=%d\n", w.Status, w.Ticks, w.Anomalies)
		if len(w.ByRule) > 0 {
			wt := stats.NewTable("anomaly rule", "count")
			rules := make([]string, 0, len(w.ByRule))
			for r := range w.ByRule {
				rules = append(rules, r)
			}
			sort.Strings(rules)
			for _, r := range rules {
				wt.AddRow(r, w.ByRule[r])
			}
			fmt.Fprint(out, wt.String())
		}
	}
	if s.ClientViolations > 0 {
		fmt.Fprintf(out, "CLIENT-OBSERVED VIOLATIONS: %d abort-voted txns committed\n", s.ClientViolations)
	}
}

// waitReady polls GET /readyz until the daemon answers 200, retrying
// connection errors and 503 (starting or draining) up to the deadline. A
// 404 counts as ready: older daemons without the endpoint are healthy if
// they answer at all. Retries back off exponentially (25ms doubling to a
// 1s cap) with jitter so a fleet of generators pointed at one recovering
// daemon doesn't re-dial in lockstep. An exhausted deadline yields a
// diagnosis, not a bare dial error: which address, how long we waited,
// and the last failure underneath.
func waitReady(client *http.Client, base string, patience time.Duration, rng *rand.Rand) error {
	const (
		backoffBase = 25 * time.Millisecond
		backoffCap  = time.Second
	)
	deadline := time.Now().Add(patience)
	delay := backoffBase
	var last error
	for {
		resp, err := client.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK, http.StatusNotFound:
				return nil
			default:
				last = fmt.Errorf("daemon not ready: %s", resp.Status)
			}
		} else {
			last = err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("commitd at %s unreachable after waiting %v for /readyz (is the daemon running there?): %w",
				base, patience, last)
		}
		// Full jitter over [delay/2, delay): keeps the mean near 3/4 of
		// the nominal step while decorrelating concurrent clients.
		sleep := delay/2 + time.Duration(rng.Int63n(int64(delay/2)))
		time.Sleep(sleep)
		if delay *= 2; delay > backoffCap {
			delay = backoffCap
		}
	}
}

// fetchWatchdog pulls the daemon's /debug/health document after a run.
// Nil (never an error) when the daemon predates the watchdog or the
// endpoint misbehaves — anomaly counts are advisory output, and a
// missing watchdog must not fail an otherwise clean run.
func fetchWatchdog(client *http.Client, base string) *watch.Health {
	resp, err := client.Get(base + "/debug/health")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		return nil
	}
	var h watch.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil
	}
	return &h
}

// clusterInfo fetches /healthz: cluster size per group plus the shard
// count.
func clusterInfo(client *http.Client, base string) (service.HealthJSON, error) {
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return service.HealthJSON{}, err
	}
	defer resp.Body.Close()
	var h service.HealthJSON
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return service.HealthJSON{}, err
	}
	if h.N <= 0 || h.Shards <= 0 {
		return service.HealthJSON{}, fmt.Errorf("daemon reports cluster size %d and %d shards", h.N, h.Shards)
	}
	return h, nil
}
