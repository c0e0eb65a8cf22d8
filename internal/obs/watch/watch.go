// Package watch is commitd's online anomaly watchdog. It periodically
// samples the running system — per-shard transaction managers, the
// cross-shard coordinator, and the WAL — through a narrow Source
// interface and evaluates a fixed rule set against the samples:
//
//	node-down         a processor is crashed and not yet restarted
//	txn-stall         a live transaction older than the stall threshold
//	cross-in-doubt    an undecided cross-shard verdict past its age bound
//	slo-burn          windowed decision-latency p99 above the SLO target
//	fsync-spike       windowed WAL fsync p99 above its ceiling
//	rescue-storm      coordinator rescues in one tick above the burst cap
//	shard-imbalance   per-tick admission skew across shards
//	protocol-blocked  an arena protocol run ended blocked (2PC-style)
//
// Each detection is an Anomaly: a structured event counted in the obs
// registry (watch_anomalies_total by rule), kept in a bounded recent
// ring served by GET /debug/health, and forwarded to an optional
// OnAnomaly hook — which is how anomalies trigger flight-recorder
// dumps.
//
// Detection rules are deliberately *edge-triggered*: a condition that
// persists across ticks is reported once (per txn, per node, or per
// burn episode), so anomaly counts on a seeded chaos plan are bounded
// by the injected faults, and a clean run reports exactly zero. The
// chaos auditor turns that into a tested invariant.
//
// The package imports only the standard library and internal/obs; the
// service and shard layers implement Source and import watch, never
// the reverse.
package watch

import (
	"encoding/json"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// TxnAge describes one live (non-terminal) transaction and how long it
// has been in flight.
type TxnAge struct {
	Txn   string `json:"txn"`
	Shard string `json:"shard"`
	AgeMs int64  `json:"age_ms"`
	State string `json:"state"`
}

// BlockedReport describes a protocol-arena run that terminated blocked:
// a correct participant held locks forever waiting on a dead
// coordinator. This is the condition Protocol 2 and Paxos Commit exist
// to avoid; the watchdog surfaces it when the arena injects it.
type BlockedReport struct {
	Protocol string `json:"protocol"`
	Txn      string `json:"txn"`
	Detail   string `json:"detail,omitempty"`
}

// ShardSample is one shard-group's state at a sampling instant.
// Counter fields are cumulative; the watchdog differences successive
// samples itself.
type ShardSample struct {
	Shard        string       `json:"shard"`
	Queued       int          `json:"queued"`
	InFlight     int          `json:"in_flight"`
	CrashedNodes []int        `json:"crashed_nodes,omitempty"`
	Stalled      []TxnAge     `json:"stalled,omitempty"`
	Submitted    uint64       `json:"submitted"`
	Decided      uint64       `json:"decided"`
	TimedOut     uint64       `json:"timed_out"`
	Rescues      uint64       `json:"rescues"`
	Latency      []obs.Bucket `json:"-"`
	Fsync        []obs.Bucket `json:"-"`
}

// Stats is everything one watchdog tick sees.
type Stats struct {
	Shards  []ShardSample
	Cross   []TxnAge
	Blocked []BlockedReport
}

// Source supplies samples. stall is the age past which a live
// transaction counts as stalled; implementations also use it (or their
// own bound) for cross-shard in-doubt ages.
type Source interface {
	WatchStats(stall time.Duration) Stats
}

// StaticSource adapts a precomputed Stats value to Source — used by the
// protocol arena, whose runs are over before the watchdog ever ticks.
type StaticSource struct{ Stats Stats }

// WatchStats returns the fixed stats.
func (s StaticSource) WatchStats(time.Duration) Stats { return s.Stats }

// Config tunes the watchdog. Zero values get conservative defaults.
type Config struct {
	// Interval between background ticks (Start); Tick ignores it.
	Interval time.Duration
	// StallAge is passed to the Source: transactions live longer than
	// this are stalled.
	StallAge time.Duration
	// SLOTargetP99: windowed decision-latency p99 above this burns the
	// SLO. Zero disables the rule.
	SLOTargetP99 time.Duration
	// FsyncP99Max: windowed WAL fsync p99 above this is a spike. Zero
	// disables the rule.
	FsyncP99Max time.Duration
	// RescueBurst: rescues in one tick at or above this is a storm.
	// Zero disables the rule.
	RescueBurst uint64
	// ImbalanceFactor: max/min per-tick admissions across shards at or
	// above this is an imbalance (needs ≥2 shards and ImbalanceMin on
	// the hot shard). Zero disables the rule.
	ImbalanceFactor float64
	// ImbalanceMin is the hot-shard admission floor for the imbalance
	// rule.
	ImbalanceMin uint64
	// Registry receives watch_ticks_total and watch_anomalies_total.
	Registry *obs.Registry
	// OnAnomaly, if set, is called (outside the watchdog lock) for each
	// anomaly. The flight recorder hooks in here.
	OnAnomaly func(Anomaly)
	// OnTick, if set, runs at the start of every Tick — a periodic-work
	// piggyback (e.g. the obs runtime GC-pause sampler) so the daemon
	// needs no second timer goroutine.
	OnTick func()
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.StallAge <= 0 {
		c.StallAge = 10 * time.Second
	}
	return c
}

const (
	// minSamples is the per-window observation floor below which the
	// percentile rules stay quiet (a single slow op is not a burn).
	minSamples = 20
	// maxRecent bounds the in-memory anomaly ring served by /debug/health.
	maxRecent = 64
)

// Rule names, as they appear in anomalies, counters, and health output.
const (
	RuleNodeDown        = "node-down"
	RuleTxnStall        = "txn-stall"
	RuleCrossInDoubt    = "cross-in-doubt"
	RuleSLOBurn         = "slo-burn"
	RuleFsyncSpike      = "fsync-spike"
	RuleRescueStorm     = "rescue-storm"
	RuleShardImbalance  = "shard-imbalance"
	RuleProtocolBlocked = "protocol-blocked"
)

// Anomaly is one detection.
type Anomaly struct {
	Seq    uint64 `json:"seq"`
	Tick   uint64 `json:"tick"`
	Rule   string `json:"rule"`
	Shard  string `json:"shard,omitempty"`
	Txn    string `json:"txn,omitempty"`
	Node   int    `json:"node,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// Health is the /debug/health document.
type Health struct {
	Status    string            `json:"status"` // "ok" or "degraded"
	Ticks     uint64            `json:"ticks"`
	Anomalies uint64            `json:"anomalies"`
	ByRule    map[string]uint64 `json:"by_rule,omitempty"`
	Recent    []Anomaly         `json:"recent,omitempty"`
}

// Watchdog evaluates the rules. Create with New; drive with Start/Stop
// for a live daemon or synchronous Tick calls in tests and the chaos
// harness.
type Watchdog struct {
	cfg    Config
	source Source

	ticksCtr *obs.Counter
	anomVec  *obs.CounterVec

	mu      sync.Mutex
	ticks   uint64
	seq     uint64
	total   uint64
	byRule  map[string]uint64
	recent  []Anomaly // ring, newest last, capped at maxRecent
	prev    map[string]ShardSample
	first   map[string]bool // no prev sample yet → skip delta rules
	seen    map[string]bool // edge-trigger dedup keys
	burning map[string]bool // transition state for burn-type rules

	stop chan struct{}
	done chan struct{}
}

// New builds a watchdog over source.
func New(source Source, cfg Config) *Watchdog {
	cfg = cfg.withDefaults()
	w := &Watchdog{
		cfg:     cfg,
		source:  source,
		byRule:  map[string]uint64{},
		prev:    map[string]ShardSample{},
		first:   map[string]bool{},
		seen:    map[string]bool{},
		burning: map[string]bool{},
	}
	if r := cfg.Registry; r != nil {
		w.ticksCtr = r.Counter("watch_ticks_total", "Watchdog sampling ticks completed.")
		w.anomVec = r.CounterVec("watch_anomalies_total",
			"Anomalies detected by the watchdog, by rule.", "rule")
	}
	return w
}

// Start launches the background sampling goroutine. Safe to call once.
func (w *Watchdog) Start() {
	w.stop = make(chan struct{})
	w.done = make(chan struct{})
	go func() {
		defer close(w.done)
		t := time.NewTicker(w.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				w.Tick()
			}
		}
	}()
}

// Stop halts the background goroutine (no-op if Start was never
// called) and waits for it to exit.
func (w *Watchdog) Stop() {
	if w.stop == nil {
		return
	}
	close(w.stop)
	<-w.done
	w.stop = nil
}

// Tick samples the source and evaluates every rule once. It returns
// the anomalies this tick produced (already counted and recorded).
func (w *Watchdog) Tick() []Anomaly {
	if w.cfg.OnTick != nil {
		w.cfg.OnTick()
	}
	st := w.source.WatchStats(w.cfg.StallAge)

	w.mu.Lock()
	w.ticks++
	tick := w.ticks
	var found []Anomaly
	emit := func(a Anomaly) {
		w.seq++
		a.Seq = w.seq
		a.Tick = tick
		w.total++
		w.byRule[a.Rule]++
		w.recent = append(w.recent, a)
		if over := len(w.recent) - maxRecent; over > 0 {
			w.recent = w.recent[over:]
		}
		found = append(found, a)
	}

	w.evalLiveness(st, emit)
	w.evalRates(st, emit)
	w.evalBlocked(st, emit)

	// Retain this tick's samples for next tick's deltas.
	for _, s := range st.Shards {
		w.prev[s.Shard] = s
		w.first[s.Shard] = true
	}
	w.mu.Unlock()

	w.ticksCtr.Inc()
	for _, a := range found {
		w.anomVec.With(a.Rule).Inc()
		if w.cfg.OnAnomaly != nil {
			w.cfg.OnAnomaly(a)
		}
	}
	return found
}

// evalLiveness covers the per-entity edge-triggered rules: node-down,
// txn-stall, cross-in-doubt. Dedup keys clear when the condition
// clears, so a node that crashes, restarts, and crashes again is
// reported twice — matching the injected fault count.
func (w *Watchdog) evalLiveness(st Stats, emit func(Anomaly)) {
	live := map[string]bool{}
	for _, s := range st.Shards {
		for _, n := range s.CrashedNodes {
			k := "node|" + s.Shard + "|" + itoa(n)
			live[k] = true
			if !w.seen[k] {
				w.seen[k] = true
				emit(Anomaly{Rule: RuleNodeDown, Shard: s.Shard, Node: n,
					Detail: "processor crashed and not restarted"})
			}
		}
		for _, t := range s.Stalled {
			k := "stall|" + t.Txn
			live[k] = true
			if !w.seen[k] {
				w.seen[k] = true
				emit(Anomaly{Rule: RuleTxnStall, Shard: t.Shard, Txn: t.Txn,
					Detail: "in state " + t.State + " for " + itoa64(t.AgeMs) + "ms"})
			}
		}
	}
	for _, t := range st.Cross {
		k := "doubt|" + t.Txn
		live[k] = true
		if !w.seen[k] {
			w.seen[k] = true
			emit(Anomaly{Rule: RuleCrossInDoubt, Shard: t.Shard, Txn: t.Txn,
				Detail: "cross-shard verdict in doubt for " + itoa64(t.AgeMs) + "ms"})
		}
	}
	for k := range w.seen {
		cleared := strings.HasPrefix(k, "node|") || strings.HasPrefix(k, "stall|") ||
			strings.HasPrefix(k, "doubt|")
		if cleared && !live[k] {
			delete(w.seen, k)
		}
	}
}

// evalRates covers the windowed delta rules: slo-burn, fsync-spike,
// rescue-storm, shard-imbalance. All are transition-triggered: one
// anomaly when the window first goes bad, silence until it recovers
// and goes bad again.
func (w *Watchdog) evalRates(st Stats, emit func(Anomaly)) {
	var admitted []struct {
		shard string
		delta uint64
	}
	for _, s := range st.Shards {
		if !w.first[s.Shard] {
			continue // no previous sample; nothing to difference yet
		}
		prev := w.prev[s.Shard]

		if w.cfg.SLOTargetP99 > 0 {
			p99, n := quantileDelta(prev.Latency, s.Latency, 0.99)
			w.transition("slo|"+s.Shard, n >= minSamples && p99 > w.cfg.SLOTargetP99.Seconds(),
				func() {
					emit(Anomaly{Rule: RuleSLOBurn, Shard: s.Shard,
						Detail: "windowed p99 " + ms(p99) + " > target " + ms(w.cfg.SLOTargetP99.Seconds())})
				})
		}
		if w.cfg.FsyncP99Max > 0 {
			p99, n := quantileDelta(prev.Fsync, s.Fsync, 0.99)
			w.transition("fsync|"+s.Shard, n >= minSamples && p99 > w.cfg.FsyncP99Max.Seconds(),
				func() {
					emit(Anomaly{Rule: RuleFsyncSpike, Shard: s.Shard,
						Detail: "windowed fsync p99 " + ms(p99) + " > ceiling " + ms(w.cfg.FsyncP99Max.Seconds())})
				})
		}
		if w.cfg.RescueBurst > 0 {
			d := s.Rescues - prev.Rescues
			w.transition("rescue|"+s.Shard, d >= w.cfg.RescueBurst, func() {
				emit(Anomaly{Rule: RuleRescueStorm, Shard: s.Shard,
					Detail: itoa64(int64(d)) + " coordinator rescues in one tick"})
			})
		}
		admitted = append(admitted, struct {
			shard string
			delta uint64
		}{s.Shard, s.Submitted - prev.Submitted})
	}

	if w.cfg.ImbalanceFactor > 0 && len(admitted) >= 2 {
		sort.Slice(admitted, func(i, j int) bool { return admitted[i].shard < admitted[j].shard })
		hi, lo := admitted[0], admitted[0]
		for _, a := range admitted[1:] {
			if a.delta > hi.delta {
				hi = a
			}
			if a.delta < lo.delta {
				lo = a
			}
		}
		skewed := hi.delta >= w.cfg.ImbalanceMin &&
			float64(hi.delta) >= w.cfg.ImbalanceFactor*float64(max64(lo.delta, 1))
		w.transition("imbalance", skewed, func() {
			emit(Anomaly{Rule: RuleShardImbalance, Shard: hi.shard,
				Detail: "shard " + hi.shard + " admitted " + itoa64(int64(hi.delta)) +
					" vs " + itoa64(int64(lo.delta)) + " on shard " + lo.shard})
		})
	}
}

// evalBlocked reports arena protocol runs that ended blocked, deduped
// per (protocol, txn).
func (w *Watchdog) evalBlocked(st Stats, emit func(Anomaly)) {
	for _, b := range st.Blocked {
		k := "blocked|" + b.Protocol + "|" + b.Txn
		if w.seen[k] {
			continue
		}
		w.seen[k] = true
		d := b.Detail
		if d == "" {
			d = "protocol run terminated blocked"
		}
		emit(Anomaly{Rule: RuleProtocolBlocked, Txn: b.Txn, Detail: b.Protocol + ": " + d})
	}
}

// transition fires onRise exactly when cond goes false→true for key.
func (w *Watchdog) transition(key string, cond bool, onRise func()) {
	if cond && !w.burning[key] {
		w.burning[key] = true
		onRise()
	} else if !cond {
		delete(w.burning, key)
	}
}

// Health snapshots the watchdog's state for /debug/health.
func (w *Watchdog) Health() Health {
	w.mu.Lock()
	defer w.mu.Unlock()
	h := Health{Status: "ok", Ticks: w.ticks, Anomalies: w.total}
	if w.total > 0 {
		h.Status = "degraded"
		h.ByRule = make(map[string]uint64, len(w.byRule))
		for k, v := range w.byRule {
			h.ByRule[k] = v
		}
		h.Recent = append([]Anomaly(nil), w.recent...)
	}
	return h
}

// Counts returns the per-rule anomaly totals (copy).
func (w *Watchdog) Counts() map[string]uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make(map[string]uint64, len(w.byRule))
	for k, v := range w.byRule {
		out[k] = v
	}
	return out
}

// Anomalies returns the recent ring, oldest first (copy).
func (w *Watchdog) Anomalies() []Anomaly {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]Anomaly(nil), w.recent...)
}

// Handler serves the health document. Always 200: "degraded" is a
// payload fact, not an HTTP failure — load balancers use /readyz.
func (w *Watchdog) Handler() http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(rw, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		rw.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(rw)
		enc.SetIndent("", "  ")
		enc.Encode(w.Health()) //nolint:errcheck // client gone
	})
}

// quantileDelta estimates quantile q of the observations that arrived
// between two cumulative histogram snapshots (prev may be nil: the
// whole history counts). Linear interpolation within the landing
// bucket, Prometheus-style; the +Inf bucket reports its lower bound.
// Returns the estimate and the window's observation count.
func quantileDelta(prev, cur []obs.Bucket, q float64) (float64, uint64) {
	if len(cur) == 0 {
		return 0, 0
	}
	delta := make([]obs.Bucket, len(cur))
	copy(delta, cur)
	if len(prev) == len(cur) {
		for i := range delta {
			delta[i].Count -= prev[i].Count
		}
	}
	total := delta[len(delta)-1].Count
	if total == 0 {
		return 0, 0
	}
	rank := q * float64(total)
	var lower float64
	var below uint64
	for i, b := range delta {
		if float64(b.Count) >= rank {
			if math.IsInf(b.UpperBound, 1) {
				return lower, total
			}
			in := b.Count - below
			if in == 0 {
				return b.UpperBound, total
			}
			return lower + (b.UpperBound-lower)*(rank-float64(below))/float64(in), total
		}
		lower = delta[i].UpperBound
		below = b.Count
	}
	return lower, total
}

func itoa(n int) string { return strconv.Itoa(n) }

func itoa64(n int64) string { return strconv.FormatInt(n, 10) }

func ms(seconds float64) string {
	return strconv.FormatFloat(seconds*1000, 'f', 1, 64) + "ms"
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
