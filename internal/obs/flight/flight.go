// Package flight is commitd's always-on flight recorder. The daemon
// already keeps bounded in-memory telemetry — the one span ring (stages,
// rounds, links and protocol milestones), per-shard in-flight state — but
// when a process dies or an operator notices a stall, that evidence is
// gone or has scrolled away. The recorder closes that gap:
//
//   - Snapshot assembles a single Dump from the live sources: the span
//     ring, the open transactions (per-shard in-flight/in-doubt samples,
//     including WAL fsync histograms), and the watchdog's health
//     document;
//
//   - DumpToDir persists a Dump atomically (tmp + fsync + rename, the
//     same discipline as WAL snapshots) with a cooldown so an anomaly
//     storm produces one dump, not a disk full of them;
//
//   - the watchdog's OnAnomaly hook calls TriggerDump, so the moments
//     worth keeping are captured automatically;
//
//   - Handler serves the same Dump on demand at GET /debug/flight;
//
//   - `tracedump flight <dump.json>` (cmd/tracedump) renders a dump
//     with the existing span / critical-path machinery.
//
// Dumps carry Format "flight" for sniffing, mirroring the span graph's
// "span-graph" marker.
package flight

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/obs/watch"
)

// DumpFormat marks flight-recorder JSON documents.
const DumpFormat = "flight"

// Dump is one flight-recorder capture.
type Dump struct {
	Format    string                `json:"format"` // always DumpFormat
	Seq       uint64                `json:"seq"`
	Reason    string                `json:"reason"`
	CapturedS float64               `json:"captured_unix,omitempty"`
	Health    watch.Health          `json:"health"`
	Shards    []watch.ShardSample   `json:"shards,omitempty"`
	Cross     []watch.TxnAge        `json:"cross,omitempty"`
	Blocked   []watch.BlockedReport `json:"blocked,omitempty"`
	Spans     *span.Graph           `json:"spans,omitempty"`
}

// Config wires a Recorder to its sources. All sources are optional;
// missing ones leave their Dump section empty.
type Config struct {
	// Spans supplies the span ring.
	Spans *span.Collector
	// Source supplies per-shard samples (the same Source the watchdog
	// reads).
	Source watch.Source
	// Watchdog supplies the health document embedded in each dump.
	Watchdog *watch.Watchdog
	// StallAge is forwarded to Source.WatchStats.
	StallAge time.Duration
	// Dir is where anomaly-triggered dumps land. Empty disables
	// persistence (Snapshot and the handler still work).
	Dir string
	// Cooldown is the minimum spacing between persisted dumps.
	Cooldown time.Duration
	// Registry receives flight_dumps_total / flight_dumps_suppressed_total.
	Registry *obs.Registry
	// Clock overrides time.Now for tests.
	Clock func() time.Time
}

func (c Config) withDefaults() Config {
	if c.StallAge <= 0 {
		c.StallAge = 10 * time.Second
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 30 * time.Second
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Recorder assembles and persists dumps.
type Recorder struct {
	cfg Config

	dumps      *obs.Counter
	suppressed *obs.Counter

	mu   sync.Mutex
	seq  uint64
	last time.Time // last persisted dump (cooldown basis)
}

// New builds a Recorder.
func New(cfg Config) *Recorder {
	cfg = cfg.withDefaults()
	r := &Recorder{cfg: cfg}
	if reg := cfg.Registry; reg != nil {
		r.dumps = reg.Counter("flight_dumps_total",
			"Flight-recorder dumps persisted to disk.")
		r.suppressed = reg.Counter("flight_dumps_suppressed_total",
			"Anomaly-triggered dumps suppressed by the cooldown.")
	}
	return r
}

// Snapshot assembles a Dump from the live sources. Safe under full
// concurrent traffic: every source is snapshotted through its own
// locking.
func (r *Recorder) Snapshot(reason string) *Dump {
	d := &Dump{Format: DumpFormat, Reason: reason, CapturedS: float64(r.cfg.Clock().UnixMilli()) / 1000}
	r.mu.Lock()
	r.seq++
	d.Seq = r.seq
	r.mu.Unlock()

	if w := r.cfg.Watchdog; w != nil {
		d.Health = w.Health()
	}
	if s := r.cfg.Source; s != nil {
		st := s.WatchStats(r.cfg.StallAge)
		d.Shards = st.Shards
		d.Cross = st.Cross
		d.Blocked = st.Blocked
	}
	if c := r.cfg.Spans; c != nil {
		d.Spans = c.Graph()
	}
	return d
}

// TriggerDump persists a dump for the given reason unless the cooldown
// suppresses it. It returns the file path ("" when suppressed or
// persistence is disabled). Errors are returned but non-fatal to the
// caller by design — the recorder must never take the daemon down.
func (r *Recorder) TriggerDump(reason string) (string, error) {
	if r.cfg.Dir == "" {
		return "", nil
	}
	now := r.cfg.Clock()
	r.mu.Lock()
	if !r.last.IsZero() && now.Sub(r.last) < r.cfg.Cooldown {
		r.mu.Unlock()
		r.suppressed.Inc()
		return "", nil
	}
	r.last = now
	r.mu.Unlock()

	d := r.Snapshot(reason)
	path, err := writeDump(r.cfg.Dir, d)
	if err != nil {
		return "", err
	}
	r.dumps.Inc()
	return path, nil
}

// OnAnomaly adapts TriggerDump to the watchdog's hook signature,
// swallowing errors (anomaly handling must not block detection).
func (r *Recorder) OnAnomaly(a watch.Anomaly) {
	r.TriggerDump(a.Rule) //nolint:errcheck // best-effort by contract
}

// writeDump persists d as Dir/flight-<seq>-<reason>.json via
// tmp + fsync + rename: a dump is either fully present or absent,
// never torn — the same discipline the WAL uses for snapshots.
func writeDump(dir string, d *Dump) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("flight: %w", err)
	}
	name := fmt.Sprintf("flight-%06d-%s.json", d.Seq, sanitize(d.Reason))
	final := filepath.Join(dir, name)
	tmp := final + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return "", fmt.Errorf("flight: %w", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	err = enc.Encode(d)
	if serr := f.Sync(); err == nil {
		err = serr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, final)
	}
	if err != nil {
		os.Remove(tmp) //nolint:errcheck // best-effort cleanup
		return "", fmt.Errorf("flight: write dump: %w", err)
	}
	return final, nil
}

// sanitize keeps dump filenames shell- and filesystem-safe.
func sanitize(s string) string {
	if s == "" {
		return "manual"
	}
	var b strings.Builder
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			b.WriteRune(c)
		default:
			b.WriteRune('_')
		}
	}
	return b.String()
}

// Handler serves GET /debug/flight: an on-demand dump, never persisted.
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(rw, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		rw.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(rw)
		enc.SetIndent("", " ")
		enc.Encode(r.Snapshot("on-demand")) //nolint:errcheck // client gone
	})
}

// IsDumpJSON sniffs the Format marker, mirroring span.IsGraphJSON.
func IsDumpJSON(raw []byte) bool {
	var probe struct {
		Format string `json:"format"`
	}
	return json.Unmarshal(raw, &probe) == nil && probe.Format == DumpFormat
}

// ReadDump decodes a persisted dump and validates its format marker.
func ReadDump(raw []byte) (*Dump, error) {
	var d Dump
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("flight: decode dump: %w", err)
	}
	if d.Format != DumpFormat {
		return nil, fmt.Errorf("flight: not a flight dump (format %q)", d.Format)
	}
	return &d, nil
}

// CanonicalSummary renders the plan-deterministic core of a dump: the
// anomaly rules with counts, and for node-down the sorted node set.
// Wall-clock-dependent content (timestamps, span ids, latencies) is
// excluded, so for a seeded chaos plan the summary is
// byte-identical across reruns — which is what the chaos harness
// asserts. One line per rule, sorted, trailing newline.
func CanonicalSummary(d *Dump) string {
	var b strings.Builder
	fmt.Fprintf(&b, "flight reason=%s\n", d.Reason)
	rules := make([]string, 0, len(d.Health.ByRule))
	for r := range d.Health.ByRule {
		rules = append(rules, r)
	}
	sort.Strings(rules)
	for _, rule := range rules {
		fmt.Fprintf(&b, "rule %s count=%d", rule, d.Health.ByRule[rule])
		if rule == watch.RuleNodeDown {
			nodes := map[int]bool{}
			for _, a := range d.Health.Recent {
				if a.Rule == watch.RuleNodeDown {
					nodes[a.Node] = true
				}
			}
			sorted := make([]int, 0, len(nodes))
			for n := range nodes {
				sorted = append(sorted, n)
			}
			sort.Ints(sorted)
			fmt.Fprintf(&b, " nodes=%v", sorted)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
