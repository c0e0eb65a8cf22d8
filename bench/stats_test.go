package main

import (
	"math"
	"testing"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{50, 50},      // p90 would leave 5 beyond
		{100, 90},     // exactly 10 beyond p90
		{199, 90},     // p95 would leave 9.95
		{200, 95},     // exactly 10 beyond p95
		{999, 95},     // p99 would leave 9.99
		{1000, 99},    // exactly 10 beyond p99
		{9999, 99},    // p99.9 would leave 9.999
		{10000, 99.9}, // exactly 10 beyond p99.9
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

const promText = `# HELP x_total things
# TYPE x_total counter
x_total{node="0"} 10
x_total{node="1"} 5
lat_seconds_bucket{log="a",le="0.001"} 10
lat_seconds_bucket{log="a",le="0.002"} 30
lat_seconds_bucket{log="a",le="+Inf"} 40
lat_seconds_bucket{log="b",le="0.001"} 100
lat_seconds_bucket{log="b",le="0.002"} 100
lat_seconds_bucket{log="b",le="+Inf"} 100
plain 2.5
`

func TestPromSnapshotSumDeltaAndQuantile(t *testing.T) {
	before := parseProm(`x_total{node="0"} 4` + "\n")
	after := parseProm(promText)
	if got := after.sum("x_total"); got != 15 {
		t.Errorf("sum = %v, want 15", got)
	}
	if got := after.sum("x_total", `node="1"`); got != 5 {
		t.Errorf("labelled sum = %v, want 5", got)
	}
	if got := after.sum("plain"); got != 2.5 {
		t.Errorf("unlabelled = %v, want 2.5", got)
	}
	d := after.sub(before)
	if got := d.sum("x_total"); got != 11 {
		t.Errorf("delta sum = %v, want 11", got)
	}
	if got := d.add(d).sum("x_total", `node="0"`); got != 12 {
		t.Errorf("added delta = %v, want 12", got)
	}
	// log a: 40 samples, rank 20 sits halfway through the (0.001, 0.002] bucket.
	if got, want := histQuantile(after, "lat_seconds", 0.5, `log="a"`), 0.0015; math.Abs(got-want) > 1e-12 {
		t.Errorf("p50(log a) = %v, want %v", got, want)
	}
	// A rank in the +Inf bucket reports the last finite bound.
	if got, want := histQuantile(after, "lat_seconds", 0.99, `log="a"`), 0.002; got != want {
		t.Errorf("p99(log a) = %v, want %v", got, want)
	}
	if got := histQuantile(after, "absent", 0.5); got != 0 {
		t.Errorf("absent histogram = %v, want 0", got)
	}
}
