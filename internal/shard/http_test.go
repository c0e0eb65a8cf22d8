package shard_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs/span"
	"repro/internal/service"
	"repro/internal/shard"
)

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close() //nolint:errcheck
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return v
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestShardedHTTPSurface(t *testing.T) {
	c := newCoordinator(t, shard.Config{Shards: 2, Group: service.Config{Seed: 11}})
	ts := httptest.NewServer(shard.NewHTTPHandler(c))
	defer ts.Close()

	// Health reports the shard count.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h := decode[service.HealthJSON](t, resp)
	if h.Status != "ok" || h.N != 3 || h.Shards != 2 {
		t.Fatalf("healthz = %+v", h)
	}

	// Single-shard commit via HTTP.
	resp = postJSON(t, ts.URL+"/commit", service.CommitRequestJSON{ID: "web-1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("commit status = %d", resp.StatusCode)
	}
	single := decode[service.CommitResponseJSON](t, resp)
	if single.State != service.StateCommit || len(single.Shards) != 1 {
		t.Fatalf("single commit = %+v", single)
	}

	// Cross-shard commit via keys.
	keys := crossKeys(t, c, 0, 1)
	resp = postJSON(t, ts.URL+"/commit", service.CommitRequestJSON{ID: "web-x", Keys: keys})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cross commit status = %d", resp.StatusCode)
	}
	cross := decode[service.CommitResponseJSON](t, resp)
	if cross.State != service.StateCommit || len(cross.Shards) != 2 {
		t.Fatalf("cross commit = %+v", cross)
	}

	// Status is cross-aware.
	resp, err = http.Get(ts.URL + "/status/web-x")
	if err != nil {
		t.Fatal(err)
	}
	st := decode[shard.TxnStatus](t, resp)
	if !st.Cross || len(st.Shards) != 2 || st.State != service.StateCommit {
		t.Fatalf("status = %+v", st)
	}

	// Prometheus exposition carries shard-labeled families from both
	// groups plus the cross layer.
	resp, err = http.Get(ts.URL + "/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	text := readAll(t, resp)
	resp.Body.Close() //nolint:errcheck
	for _, want := range []string{
		`service_submitted_total{shard="0"}`,
		`service_submitted_total{shard="1"}`,
		"cross_submitted_total 1",
		`cross_outcomes_total{outcome="committed"} 1`,
		"# TYPE cross_latency_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// JSON metrics: aggregate covers both the single txn's shard and the
	// two children.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	m := decode[shard.Metrics](t, resp)
	if m.Shards != 2 || len(m.PerShard) != 2 {
		t.Fatalf("metrics shape = %+v", m)
	}
	if m.Aggregate.Submitted != 3 { // web-1 + two children of web-x
		t.Fatalf("aggregate submitted = %d, want 3", m.Aggregate.Submitted)
	}
	if m.Cross.Committed != 1 {
		t.Fatalf("cross committed = %d", m.Cross.Committed)
	}

	// Span query for the parent includes the children's spans.
	resp, err = http.Get(ts.URL + "/debug/spans?txn=web-x")
	if err != nil {
		t.Fatal(err)
	}
	g := decode[span.Graph](t, resp)
	txns := map[string]bool{}
	for _, s := range g.Spans {
		txns[s.Txn] = true
	}
	if !txns["web-x"] || !txns[shard.ChildID("web-x", 0)] || !txns[shard.ChildID("web-x", 1)] {
		t.Fatalf("span family incomplete: %v", txns)
	}
	// Each child's agreement batch comes along, under its own group's
	// shard-qualified key: two groups never share a batch key.
	batches := 0
	for id := range txns {
		switch {
		case strings.HasPrefix(id, "batch:s0-batch-"), strings.HasPrefix(id, "batch:s1-batch-"):
			batches++
		case strings.HasPrefix(id, "batch:"):
			t.Fatalf("batch key %q lacks its group's shard label", id)
		}
	}
	if batches != 2 {
		t.Fatalf("span family carries %d batches, want one per child: %v", batches, txns)
	}

	// Per-shard crash endpoint; out-of-range shard rejected.
	resp = postJSON(t, ts.URL+"/crash/1/2", nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("crash shard status = %d", resp.StatusCode)
	}
	resp.Body.Close() //nolint:errcheck
	resp = postJSON(t, ts.URL+"/crash/9/0", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad-shard crash status = %d", resp.StatusCode)
	}
	resp.Body.Close() //nolint:errcheck

	// Correlated crash: node 0 dies in every group. Shard 0 has now lost
	// exactly one node (within N=3's tolerance) and must keep deciding;
	// shard 1 lost two (node 2 above, node 0 here) and is past tolerance,
	// which is fine — we only drive shard 0 afterwards.
	resp = postJSON(t, ts.URL+"/crash/0", nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("correlated crash status = %d", resp.StatusCode)
	}
	resp.Body.Close() //nolint:errcheck
	var afterID string
	for i := 0; afterID == ""; i++ {
		id := fmt.Sprintf("after-crash-%d", i)
		if c.Router().Route(id) == 0 {
			afterID = id
		}
	}
	resp = postJSON(t, ts.URL+"/commit", service.CommitRequestJSON{ID: afterID, TimeoutMs: 30000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-crash commit status = %d", resp.StatusCode)
	}
	// Commit validity is no longer guaranteed with a crashed participant
	// (its missing vote may demote to abort) — but shard 0 must still
	// DECIDE, not hang or time out.
	after := decode[service.CommitResponseJSON](t, resp)
	if after.State != service.StateCommit && after.State != service.StateAbort {
		t.Fatalf("post-crash commit = %+v", after)
	}
}

func TestShardedHTTPValidation(t *testing.T) {
	c := newCoordinator(t, shard.Config{Shards: 2, Group: service.Config{Seed: 12, DefaultTimeout: 5 * time.Second}})
	ts := httptest.NewServer(shard.NewHTTPHandler(c))
	defer ts.Close()

	// Reserved child separator in the id.
	resp := postJSON(t, ts.URL+"/commit", service.CommitRequestJSON{ID: "x#s1"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("reserved id status = %d", resp.StatusCode)
	}
	resp.Body.Close() //nolint:errcheck

	// Empty key.
	resp = postJSON(t, ts.URL+"/commit", service.CommitRequestJSON{Keys: []string{""}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty key status = %d", resp.StatusCode)
	}
	resp.Body.Close() //nolint:errcheck

	// Too many keys.
	keys := make([]string, service.MaxCommitKeys+1)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	resp = postJSON(t, ts.URL+"/commit", service.CommitRequestJSON{Keys: keys})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized keys status = %d", resp.StatusCode)
	}
	resp.Body.Close() //nolint:errcheck
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}
