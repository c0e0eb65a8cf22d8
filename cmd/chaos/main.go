// Command chaos replays one deterministic fault plan against the live
// stack and audits it — the repro tool for any failing seed a randomized
// sweep prints.
//
//	chaos -seed 3000523 -shape partition -n 5        # replay a cluster run
//	chaos -seed 17 -shape lossy -n 5 -mode service   # replay a service run
//	chaos -seed 7 -mode sharded -shards 4 -n 3       # sharded cross-shard run
//	chaos -seed 42 -n 5 -shape churn -plan           # print the plan only
//
// The plan is a pure function of its flags, so the same invocation
// always exercises the same crash schedule, partition windows, and
// per-message fault verdicts. On an audit violation the process exits 1
// after printing the audit log and the failing seed; -spans-out
// additionally dumps the run's span ring — rounds, links and protocol
// milestones — as a causal span graph for post-mortem (feed it to
// `tracedump`, `tracedump critpath` or `tracedump chrome`). Service runs also print the
// critical path of the slowest transaction — after the audit log, so the
// log itself stays a pure function of the seed. -watch attaches the live
// watchdog (service and sharded modes), which adds detection-coverage
// checks to the audit; -flight-out then archives a flight dump of the
// watched run (feed it to `tracedump flight`).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/chaos"
	"repro/internal/obs/flight"
	"repro/internal/obs/span"
	"repro/internal/obs/watch"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed     = fs.Uint64("seed", 1, "plan seed (the replay key)")
		n        = fs.Int("n", 5, "processor count")
		t        = fs.Int("t", 0, "crash budget (default (n-1)/2)")
		shape    = fs.String("shape", "churn", "fault shape: clean|lossy|churn|partition|crash|crash-restart")
		mode     = fs.String("mode", "cluster", "what to drive: cluster|service|sharded")
		shards   = fs.Int("shards", 0, "commit groups for -mode sharded (default 2)")
		crossFr  = fs.Float64("cross-fraction", 0, "fraction of sharded txns spanning two groups (default 0.3)")
		horizon  = fs.Int("horizon", 0, "fault window in ticks (default 32)")
		tick     = fs.Duration("tick", time.Millisecond, "protocol tick length")
		budget   = fs.Int("budget", 0, "run budget in ticks (default 8*horizon+512)")
		planOnly = fs.Bool("plan", false, "print the canonical plan and exit")
		spansOut = fs.String("spans-out", "", "write the run's span ring (rounds, links, milestones) as span-graph JSON to this file")
		watched  = fs.Bool("watch", false, "attach the live watchdog (-mode service|sharded); the audit gains detection-coverage checks")
		flOut    = fs.String("flight-out", "", "write a flight dump of the watched run to this file (requires -watch)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *mode == "sharded" && *shards < 2 {
		*shards = 2
	}
	plan, err := chaos.NewPlan(chaos.PlanConfig{
		Seed:          *seed,
		N:             *n,
		T:             *t,
		Shape:         chaos.Shape(*shape),
		Horizon:       *horizon,
		Shards:        *shards,
		CrossFraction: *crossFr,
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *planOnly {
		fmt.Fprint(stdout, plan.Canonical())
		return 0
	}

	if *flOut != "" && !*watched {
		fmt.Fprintln(stderr, "-flight-out requires -watch")
		return 2
	}
	spans := span.NewCollector(1 << 16)
	opts := chaos.RunOptions{TickEvery: *tick, BudgetTicks: *budget, Spans: spans}
	if *watched {
		opts.Watch = &watch.Config{}
	}

	var report *chaos.Report
	var svcData *chaos.ServiceRunData
	var shardedData *chaos.ShardedRunData
	switch *mode {
	case "cluster":
		report, _, err = chaos.RunCluster(plan, opts)
	case "service":
		report, svcData, err = chaos.RunService(plan, opts)
	case "sharded":
		report, shardedData, err = chaos.RunShardedService(plan, opts)
	default:
		fmt.Fprintf(stderr, "unknown -mode %q (want cluster, service, or sharded)\n", *mode)
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "run error: %v\n", err)
		return 1
	}

	fmt.Fprint(stdout, report.Log())
	// Latency attribution rides after the audit log, never inside it:
	// Report.Log() must stay byte-reproducible from the seed alone, and
	// wall-clock span durations are not.
	if svcData != nil {
		printSlowest(stdout, spans, svcData)
	}
	if shardedData != nil {
		fmt.Fprintf(stdout, "cross layer: submitted=%d committed=%d aborted=%d in_doubt_settled=%d\n",
			shardedData.Metrics.Cross.Submitted, shardedData.Metrics.Cross.Committed,
			shardedData.Metrics.Cross.Aborted, shardedData.EchoSettled)
	}
	if opts.Watch != nil {
		var health watch.Health
		switch {
		case svcData != nil:
			health = svcData.Health
		case shardedData != nil:
			health = shardedData.Health
		}
		// After the audit log for the same reason as the critical path:
		// tick counts are wall-clock-dependent, the log is not.
		fmt.Fprintf(stdout, "watchdog: status=%s ticks=%d anomalies=%d\n",
			health.Status, health.Ticks, health.Anomalies)
		if *flOut != "" {
			d := &flight.Dump{
				Format: flight.DumpFormat,
				Reason: "chaos",
				Health: health,
				Spans:  spans.Graph(),
			}
			raw, err := json.MarshalIndent(d, "", " ")
			if err == nil {
				err = os.WriteFile(*flOut, append(raw, '\n'), 0o644)
			}
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			fmt.Fprintf(stdout, "flight dump written to %s\n", *flOut)
		}
	}
	if *spansOut != "" {
		f, err := os.Create(*spansOut)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		werr := span.WriteJSON(f, spans.Graph())
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(stderr, werr)
			return 1
		}
		fmt.Fprintf(stdout, "spans written to %s\n", *spansOut)
	}
	if !report.Pass() {
		fmt.Fprintf(stderr, "AUDIT FAILED — failing seed: %d (replay: go run ./cmd/chaos -seed %d -shape %s -n %d -mode %s)\n",
			*seed, *seed, *shape, *n, *mode)
		return 1
	}
	return 0
}

// printSlowest renders the critical path of the run's slowest terminal
// transaction — where its latency actually went, stage by stage.
func printSlowest(w io.Writer, c *span.Collector, data *chaos.ServiceRunData) {
	slowest, lat := "", time.Duration(-1)
	for _, r := range data.Results {
		if !r.StatusKnown || !r.Status.State.Terminal() {
			continue
		}
		if r.Status.Latency > lat {
			lat, slowest = r.Status.Latency, r.ID
		}
	}
	if slowest == "" {
		return
	}
	p, err := c.Graph().CriticalPathTxn(slowest)
	if err != nil {
		return // e.g. the collector's ring evicted this transaction
	}
	fmt.Fprintf(w, "slowest transaction: %s (%.1fms end-to-end)\n%s",
		slowest, float64(lat)/float64(time.Millisecond), p.Render())
}
