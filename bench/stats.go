package main

import (
	"bufio"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// median is the 50th percentile (0 for an empty sample).
func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

// tailPercentile is the highest of the usual tail percentiles that still
// has at least ten samples beyond it in a sample of n: a tail read from
// fewer than ten observations is one scheduler hiccup, not a percentile.
// It returns 50 when even p90 is unsupported.
func tailPercentile(n int) float64 {
	for _, permille := range []int{999, 990, 950, 900} {
		if n*(1000-permille) >= 10*1000 {
			return float64(permille) / 10
		}
	}
	return 50
}

// promSnapshot is one parsed Prometheus text exposition: every sample
// line keyed by metric name, label sets kept so callers can sum over
// all of them or pick one out. The same parser reads the spawned
// daemon's GET /metrics.prom and an in-process Registry dump, so a
// counter means the same thing whichever way the stack is hosted.
type promSnapshot map[string][]promSample

type promSample struct {
	labels string // raw `k="v",k2="v2"` text
	value  float64
}

func parseProm(text string) promSnapshot {
	snap := make(promSnapshot)
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name, labels := line[:sp], ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name, labels = name[:i], strings.TrimSuffix(name[i+1:], "}")
		}
		snap[name] = append(snap[name], promSample{labels: labels, value: v})
	}
	return snap
}

// sum adds every sample of name whose label text contains each of the
// given `k="v"` fragments.
func (s promSnapshot) sum(name string, match ...string) float64 {
	total := 0.0
	for _, smp := range s[name] {
		if hasAll(smp.labels, match) {
			total += smp.value
		}
	}
	return total
}

func hasAll(labels string, match []string) bool {
	for _, m := range match {
		if !strings.Contains(labels, m) {
			return false
		}
	}
	return true
}

// sub returns s minus b sample by sample (a counter or histogram delta
// over a window); add sums two deltas.
func (s promSnapshot) sub(b promSnapshot) promSnapshot { return s.combine(b, -1) }
func (s promSnapshot) add(b promSnapshot) promSnapshot { return s.combine(b, 1) }

func (s promSnapshot) combine(b promSnapshot, sign float64) promSnapshot {
	out := make(promSnapshot, len(s))
	for name, smps := range s {
		out[name] = append([]promSample(nil), smps...)
	}
	for name, smps := range b {
	next:
		for _, smp := range smps {
			for i := range out[name] {
				if out[name][i].labels == smp.labels {
					out[name][i].value += sign * smp.value
					continue next
				}
			}
			out[name] = append(out[name], promSample{labels: smp.labels, value: sign * smp.value})
		}
	}
	return out
}

// histQuantile estimates quantile q (0..1) of histogram name in a delta
// snapshot, merged over every label set matching the fragments, by
// linear interpolation inside the bucket that holds the rank — the usual
// Prometheus estimate, as coarse as the buckets.
func histQuantile(delta promSnapshot, name string, q float64, match ...string) float64 {
	cum := make(map[float64]float64)
	for _, smp := range delta[name+"_bucket"] {
		if !hasAll(smp.labels, match) {
			continue
		}
		i := strings.Index(smp.labels, `le="`)
		if i < 0 {
			continue
		}
		rest := smp.labels[i+4:]
		le, err := strconv.ParseFloat(rest[:strings.IndexByte(rest, '"')], 64)
		if err != nil {
			continue
		}
		cum[le] += smp.value
	}
	bounds := make([]float64, 0, len(cum))
	for le := range cum {
		bounds = append(bounds, le)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 || cum[bounds[len(bounds)-1]] <= 0 {
		return 0
	}
	rank := q * cum[bounds[len(bounds)-1]]
	prevBound, prevCum := 0.0, 0.0
	for _, le := range bounds {
		if cum[le] >= rank {
			if math.IsInf(le, 1) {
				return prevBound
			}
			if cum[le] == prevCum {
				return le
			}
			return prevBound + (le-prevBound)*(rank-prevCum)/(cum[le]-prevCum)
		}
		prevBound, prevCum = le, cum[le]
	}
	return prevBound
}
