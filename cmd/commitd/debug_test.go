package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"

	"repro/internal/obs/flight"
	"repro/internal/obs/span"
	"repro/internal/obs/watch"
)

// getAll reads a URL fully (the handlers stream; a dropped body would
// hide encoder races from the race detector).
func getAll(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Errorf("GET %s: %v", url, err)
		return 0, nil
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Errorf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, body
}

// TestDebugHandlersUnderConcurrency hammers every debug surface —
// /debug/spans (whole and per transaction), /readyz, /debug/health,
// /debug/flight — in parallel with live commit traffic. Run under -race
// this is the regression test that snapshotting the span ring, watchdog,
// and flight recorder takes no unlocked reads of live state.
func TestDebugHandlersUnderConcurrency(t *testing.T) {
	base, stop := startDaemon(t,
		"-watch-interval", "10ms", "-slo-p99", "1s")
	defer stop()

	const (
		writers = 4
		readers = 2
		perW    = 20
		perR    = 30
	)
	paths := []string{
		"/debug/spans?txn=dbg-0-3",
		"/debug/spans",
		"/readyz",
		"/debug/health",
		"/debug/flight",
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				id := fmt.Sprintf("dbg-%d-%d", w, i)
				votes := []bool(nil)
				if i%3 == 0 {
					votes = []bool{true, false, true}
				}
				commitOne(t, base, id, votes)
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		for _, p := range paths {
			wg.Add(1)
			go func(p string) {
				defer wg.Done()
				for i := 0; i < perR; i++ {
					code, _ := getAll(t, base+p)
					if code != http.StatusOK {
						t.Errorf("GET %s status %d", p, code)
						return
					}
				}
			}(p)
		}
	}
	wg.Wait()

	// After the dust settles, the documents must decode and be coherent.
	code, body := getAll(t, base+"/debug/health")
	if code != http.StatusOK {
		t.Fatalf("/debug/health status %d", code)
	}
	var h watch.Health
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("/debug/health not JSON: %v\n%s", err, body)
	}
	if h.Ticks == 0 {
		t.Fatalf("watchdog never ticked: %+v", h)
	}
	if h.Status != "ok" {
		t.Fatalf("clean traffic must not raise anomalies: %+v", h)
	}

	code, body = getAll(t, base+"/debug/flight")
	if code != http.StatusOK {
		t.Fatalf("/debug/flight status %d", code)
	}
	if !flight.IsDumpJSON(body) {
		t.Fatalf("/debug/flight lacks the format marker:\n%.120s", body)
	}
	d, err := flight.ReadDump(body)
	if err != nil {
		t.Fatal(err)
	}
	if d.Reason != "on-demand" || len(d.Shards) != 1 {
		t.Fatalf("dump: reason=%q shards=%d", d.Reason, len(d.Shards))
	}
	if d.Spans == nil {
		t.Fatal("dump carries no span ring")
	}
	milestones := 0
	for _, s := range d.Spans.Spans {
		if s.Kind == span.KindEvent {
			milestones++
		}
	}
	if milestones == 0 {
		t.Fatalf("dump carries no protocol milestones among %d spans", len(d.Spans.Spans))
	}
}
