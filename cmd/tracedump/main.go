// Command tracedump renders a recorded trace (JSON) as a human-readable
// timeline. It understands two formats:
//
//   - simulator traces written by `lab sim -tracefile`, rendered with
//     message statistics, lateness, and per-processor asynchronous round
//     boundaries;
//
//   - span graphs taken from a live run (`curl http://host/debug/spans >
//     spans.json`, or `chaos -spans-out`), rendered as a per-track
//     timeline of the protocol milestones in the span ring.
//
// Subcommands turn either input into the causal span model
// (internal/obs/span):
//
//   - `tracedump spans <trace.json>` exports the happens-before span
//     graph as JSON (also accepts a span-graph JSON from GET
//     /debug/spans and passes it through canonically);
//
//   - `tracedump critpath [-txn id] <trace.json>` prints the critical
//     path — the longest causal chain ending at the last-finishing
//     span — with per-step latency attribution;
//
//   - `tracedump chrome <trace.json>` exports Chrome trace-event JSON
//     loadable in Perfetto / chrome://tracing, one track per processor
//     plus the service and network tracks.
//
// Flight-recorder dumps (anomaly-triggered files from -flight-dir, or
// `curl http://host/debug/flight`) have their own renderer:
//
//   - `tracedump flight <dump.json>` prints the dump header, watchdog
//     health, per-shard state, and recent anomalies; `-summary` prints
//     only the canonical anomaly summary (byte-stable across reruns of
//     the same seeded fault plan). The spans/critpath/chrome
//     subcommands also accept a flight dump directly, reading the
//     embedded span graph.
//
//     lab sim -n 5 -tracefile run.json
//     tracedump run.json
//     tracedump -rounds -late run.json
//     tracedump critpath run.json
//     tracedump chrome -o run.chrome.json run.json
//     curl -s localhost:8080/debug/spans?txn=t1 > live.json && tracedump live.json
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs/flight"
	"repro/internal/obs/span"
	"repro/internal/obs/watch"
	"repro/internal/rounds"
	"repro/internal/trace"
	"repro/internal/types"
)

const usageText = `usage:
  tracedump [flags] <trace.json>              render a human-readable timeline
  tracedump spans [-o file] <trace.json>      export the causal span graph (JSON)
  tracedump critpath [-txn id] <trace.json>   print the critical path
  tracedump chrome [-o file] <trace.json>     export Chrome trace-event JSON (Perfetto)
  tracedump flight [-summary] <dump.json>     render a flight-recorder dump
`

func main() {
	os.Exit(dispatch(os.Args[1:], os.Stdout, os.Stderr))
}

// dispatch routes to a subcommand or the legacy timeline renderer. An
// unknown subcommand (or a usage error) exits 2 with the usage text; any
// other failure exits 1.
func dispatch(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		switch args[0] {
		case "spans", "critpath", "chrome", "flight":
			if err := runSub(args[0], args[1:], stdout); err != nil {
				fmt.Fprintln(stderr, "tracedump:", err)
				if strings.Contains(err.Error(), "usage:") {
					return 2
				}
				return 1
			}
			return 0
		default:
			if len(args) > 1 {
				// Two or more positionals where the first names no
				// subcommand: a typo, not a trace file. Refuse loudly
				// rather than guessing.
				fmt.Fprintf(stderr, "tracedump: unknown subcommand %q\n%s", args[0], usageText)
				return 2
			}
		}
	}
	if err := run(args); err != nil {
		fmt.Fprintln(stderr, "tracedump:", err)
		if strings.Contains(err.Error(), "usage:") {
			return 2
		}
		return 1
	}
	return 0
}

// runSub executes one span-model or flight-recorder subcommand.
func runSub(cmd string, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tracedump "+cmd, flag.ContinueOnError)
	outPath := fs.String("o", "", "write output to this file instead of stdout")
	var txnID string
	var summaryOnly bool
	if cmd == "critpath" {
		fs.StringVar(&txnID, "txn", "", "attribute this transaction (default: the last-finishing span)")
	}
	if cmd == "flight" {
		fs.BoolVar(&summaryOnly, "summary", false, "print only the canonical anomaly summary")
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return errors.New(usageText)
	}
	var g *span.Graph
	var dump *flight.Dump
	if cmd == "flight" {
		raw, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return err
		}
		if dump, err = flight.ReadDump(raw); err != nil {
			return err
		}
	} else {
		var err error
		if g, err = loadGraph(fs.Arg(0)); err != nil {
			return err
		}
	}
	w := stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close() //nolint:errcheck // write errors surface below
		w = f
	}
	if cmd == "flight" {
		if summaryOnly {
			_, err := io.WriteString(w, flight.CanonicalSummary(dump))
			return err
		}
		return renderFlight(w, dump)
	}
	var err error
	switch cmd {
	case "spans":
		return span.WriteJSON(w, g)
	case "chrome":
		return span.WriteChromeTrace(w, g)
	case "critpath":
		var p *span.Path
		if txnID != "" {
			p, err = g.CriticalPathTxn(txnID)
		} else {
			p, err = criticalPathLast(g)
		}
		if err != nil {
			return err
		}
		_, err = io.WriteString(w, p.Render())
		return err
	}
	return fmt.Errorf("unknown subcommand %q", cmd)
}

// loadGraph builds a span graph from any of the three input formats:
// simulator trace, an already-built span graph, or a flight-recorder dump
// (whose embedded span graph is extracted).
func loadGraph(path string) (*span.Graph, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if span.IsGraphJSON(raw) {
		return span.ReadJSON(bytes.NewReader(raw))
	}
	if flight.IsDumpJSON(raw) {
		d, err := flight.ReadDump(raw)
		if err != nil {
			return nil, err
		}
		if d.Spans == nil || len(d.Spans.Spans) == 0 {
			return nil, errors.New("flight dump carries no span graph")
		}
		return d.Spans, nil
	}
	tr, err := trace.ReadJSON(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	return span.FromTrace(tr)
}

// renderFlight prints a flight-recorder dump for a human: the capture
// header, the watchdog health document, per-shard state, cross-shard
// in-doubt transactions, blocked-protocol reports, and what telemetry
// the dump carries for the other subcommands to chew on.
func renderFlight(w io.Writer, d *flight.Dump) error {
	fmt.Fprintf(w, "flight dump: seq=%d reason=%s", d.Seq, d.Reason)
	if d.CapturedS > 0 {
		fmt.Fprintf(w, " captured_unix=%.3f", d.CapturedS)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "health: %s ticks=%d anomalies=%d\n", d.Health.Status, d.Health.Ticks, d.Health.Anomalies)
	if len(d.Health.ByRule) > 0 {
		rules := make([]string, 0, len(d.Health.ByRule))
		for r := range d.Health.ByRule {
			rules = append(rules, r)
		}
		sort.Strings(rules)
		for _, r := range rules {
			fmt.Fprintf(w, "  %-18s %d\n", r, d.Health.ByRule[r])
		}
	}
	for _, sh := range d.Shards {
		fmt.Fprintf(w, "shard %s: queued=%d in_flight=%d submitted=%d decided=%d timed_out=%d rescues=%d\n",
			sh.Shard, sh.Queued, sh.InFlight, sh.Submitted, sh.Decided, sh.TimedOut, sh.Rescues)
		if len(sh.CrashedNodes) > 0 {
			fmt.Fprintf(w, "  crashed nodes: %v\n", sh.CrashedNodes)
		}
		for _, st := range sh.Stalled {
			fmt.Fprintf(w, "  stalled txn=%s state=%s age=%dms\n", st.Txn, st.State, st.AgeMs)
		}
	}
	for _, c := range d.Cross {
		fmt.Fprintf(w, "cross in-doubt txn=%s state=%s age=%dms\n", c.Txn, c.State, c.AgeMs)
	}
	for _, b := range d.Blocked {
		fmt.Fprintf(w, "blocked protocol=%s txn=%s %s\n", b.Protocol, b.Txn, b.Detail)
	}
	if len(d.Health.Recent) > 0 {
		fmt.Fprintln(w, "recent anomalies:")
		for i := range d.Health.Recent {
			a := &d.Health.Recent[i]
			line := fmt.Sprintf("  seq%-4d tick%-4d %-18s", a.Seq, a.Tick, a.Rule)
			if a.Shard != "" {
				line += " shard=" + a.Shard
			}
			if a.Txn != "" {
				line += " txn=" + a.Txn
			}
			if a.Node != 0 || a.Rule == watch.RuleNodeDown {
				line += fmt.Sprintf(" node=%d", a.Node)
			}
			if a.Detail != "" {
				line += " " + a.Detail
			}
			fmt.Fprintln(w, line)
		}
	}
	var spans, milestones int
	var dropped uint64
	if d.Spans != nil {
		spans, milestones, dropped = len(d.Spans.Spans), len(milestonesOf(d.Spans)), d.Spans.Dropped
	}
	_, err := fmt.Fprintf(w, "telemetry: spans=%d milestones=%d dropped=%d\n", spans, milestones, dropped)
	return err
}

// criticalPathLast targets the graph's last-finishing span (ties to the
// lowest id) — the overall makespan's endpoint. A milestone is never the
// target.
func criticalPathLast(g *span.Graph) (*span.Path, error) {
	idx := -1
	for i := range g.Spans {
		s := &g.Spans[i]
		if s.Kind == span.KindEvent {
			continue
		}
		if idx < 0 || s.End > g.Spans[idx].End ||
			(s.End == g.Spans[idx].End && s.ID < g.Spans[idx].ID) {
			idx = i
		}
	}
	if idx < 0 {
		return nil, errors.New("empty span graph")
	}
	return g.CriticalPath(g.Spans[idx].ID)
}

func run(args []string) error {
	fs := flag.NewFlagSet("tracedump", flag.ContinueOnError)
	var (
		showRounds = fs.Bool("rounds", true, "print asynchronous round boundaries")
		showLate   = fs.Bool("late", true, "print late messages")
		showEvents = fs.Bool("events", true, "print the event timeline")
		maxEvents  = fs.Int("max-events", 200, "timeline length cap (0: unlimited)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: tracedump [flags] <trace.json>")
	}
	raw, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	if span.IsGraphJSON(raw) {
		g, err := span.ReadJSON(bytes.NewReader(raw))
		if err != nil {
			return err
		}
		return dumpGraph(os.Stdout, g, *showEvents, *maxEvents)
	}
	tr, err := trace.ReadJSON(bytes.NewReader(raw))
	if err != nil {
		return err
	}

	fmt.Printf("trace: n=%d K=%d events=%d messages=%d\n", tr.N, tr.K, len(tr.Events), len(tr.Msgs))
	st := tr.Stats()
	fmt.Printf("messages: sent=%d delivered=%d (%.0f%%), %.1f KiB payload\n", st.Sent, st.Delivered,
		100*float64(st.Delivered)/maxf(1, float64(st.Sent)), float64(st.TotalBits)/8192)
	for kind, cnt := range st.ByKind {
		fmt.Printf("  %-12s %d\n", kind, cnt)
	}
	crashed := tr.CrashedSet()
	if len(crashed) > 0 {
		fmt.Printf("crashed:")
		for p := 0; p < tr.N; p++ {
			if crashed[types.ProcID(p)] {
				fmt.Printf(" %d", p)
			}
		}
		fmt.Println()
	}

	if *showLate {
		late := tr.LateMessages()
		if len(late) == 0 {
			fmt.Println("on-time: yes (no late messages)")
		} else {
			fmt.Printf("on-time: no (%d late messages)\n", len(late))
			for i, seq := range late {
				if i >= 10 {
					fmt.Printf("  ... %d more\n", len(late)-10)
					break
				}
				m := tr.Msgs[seq]
				fmt.Printf("  msg %d %d->%d %s sent@ev%d", seq, m.From, m.To, m.Kind, m.SentEvent)
				if m.Delivered() {
					fmt.Printf(" recv@ev%d\n", m.RecvEvent)
				} else {
					fmt.Println(" never delivered")
				}
			}
		}
	}

	if *showRounds {
		an, err := rounds.Analyze(tr, 0)
		if err != nil {
			return err
		}
		fmt.Println("asynchronous round boundaries (clock at end of round):")
		for p := 0; p < tr.N; p++ {
			var ends []string
			for r := 0; r < len(an.EndClock[p]) && r < 8; r++ {
				ends = append(ends, fmt.Sprintf("%d", an.EndClock[p][r]))
			}
			fmt.Printf("  proc %d: %s\n", p, strings.Join(ends, " "))
		}
	}

	if *showEvents {
		fmt.Println("timeline:")
		for i := range tr.Events {
			if *maxEvents > 0 && i >= *maxEvents {
				fmt.Printf("  ... %d more events\n", len(tr.Events)-*maxEvents)
				break
			}
			e := &tr.Events[i]
			if e.Crash {
				fmt.Printf("  ev%-5d p%d CRASH (clock %d)\n", e.Index, e.Proc, e.ClockAfter)
				continue
			}
			var parts []string
			if len(e.Delivered) > 0 {
				parts = append(parts, fmt.Sprintf("recv %s", kinds(tr, e.Delivered)))
			}
			if len(e.Sent) > 0 {
				parts = append(parts, fmt.Sprintf("send %s", kinds(tr, e.Sent)))
			}
			if len(parts) == 0 {
				parts = append(parts, "idle")
			}
			fmt.Printf("  ev%-5d p%d clk%-4d %s\n", e.Index, e.Proc, e.ClockAfter, strings.Join(parts, "; "))
		}
	}
	return nil
}

// milestoneNames is the display order of dumpGraph's counts.
var milestoneNames = []string{
	span.EventGoSent, span.EventGoRecv, span.EventVoteCast, span.EventStage,
	span.StageDecided, span.EventRetired, span.EventAbandoned,
	span.EventCrash, span.EventRecover,
}

// milestonesOf picks a graph's protocol milestones: the event records and
// the decided markers on processor tracks, in id order.
func milestonesOf(g *span.Graph) []span.Span {
	var ms []span.Span
	for _, s := range g.Spans {
		if s.Milestone() {
			ms = append(ms, s)
		}
	}
	return ms
}

// dumpGraph renders a live span graph as the protocol's timeline: how many
// of each milestone the ring holds, then each processor track's milestones
// in time order.
func dumpGraph(w io.Writer, g *span.Graph, showEvents bool, maxEvents int) error {
	ms := milestonesOf(g)
	byName := map[string]int{}
	txns := map[string]bool{}
	for _, s := range ms {
		byName[s.Name]++
		if s.Txn != "" {
			txns[s.Txn] = true
		}
	}
	fmt.Fprintf(w, "span graph: unit=%s spans=%d dropped=%d milestones=%d\n", g.Unit, len(g.Spans), g.Dropped, len(ms))
	fmt.Fprintf(w, "transactions seen: %d\n", len(txns))
	for _, name := range milestoneNames {
		if byName[name] > 0 {
			fmt.Fprintf(w, "  %-10s %d\n", name, byName[name])
		}
	}
	if !showEvents {
		return nil
	}
	proc := func(track string) int {
		p, _ := strconv.Atoi(strings.TrimPrefix(track, "proc "))
		return p
	}
	sort.SliceStable(ms, func(i, j int) bool {
		if pi, pj := proc(ms[i].Track), proc(ms[j].Track); pi != pj {
			return pi < pj
		}
		return ms[i].Start < ms[j].Start
	})
	fmt.Fprintln(w, "timeline:")
	track := ""
	for i, s := range ms {
		if maxEvents > 0 && i >= maxEvents {
			fmt.Fprintf(w, "  ... %d more milestones\n", len(ms)-maxEvents)
			break
		}
		if s.Track != track {
			track = s.Track
			fmt.Fprintf(w, "  %s:\n", track)
		}
		line := fmt.Sprintf("    #%-6d %10d%s %-10s", s.ID, s.Start, g.Unit, s.Name)
		if s.Txn != "" {
			line += " txn=" + s.Txn
		}
		if s.Detail != "" {
			line += " " + s.Detail
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	return nil
}

// kinds summarizes a seq list as kind×count.
func kinds(tr *trace.Trace, seqs []int) string {
	counts := map[string]int{}
	var order []string
	for _, s := range seqs {
		k := tr.Msgs[s].Kind
		if counts[k] == 0 {
			order = append(order, k)
		}
		counts[k]++
	}
	var parts []string
	for _, k := range order {
		if counts[k] == 1 {
			parts = append(parts, k)
		} else {
			parts = append(parts, fmt.Sprintf("%s×%d", k, counts[k]))
		}
	}
	return strings.Join(parts, ",")
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
