package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/service"
	"repro/internal/transport"
	"repro/internal/types"
)

func newHTTPService(t *testing.T, cfg service.Config) (*service.Service, *httptest.Server) {
	t.Helper()
	s := newService(t, cfg)
	ts := httptest.NewServer(service.NewHTTPHandler(s))
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestHTTPCommitRoundTrip(t *testing.T) {
	_, ts := newHTTPService(t, service.Config{N: 3, Seed: 21})

	resp := postJSON(t, ts.URL+"/commit", service.CommitRequestJSON{ID: "h1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	out := decode[service.CommitResponseJSON](t, resp)
	if out.ID != "h1" || out.State != service.StateCommit || out.LatencyMs <= 0 {
		t.Fatalf("response = %+v", out)
	}

	resp = postJSON(t, ts.URL+"/commit", service.CommitRequestJSON{
		ID: "h2", Votes: []bool{true, false, true},
	})
	if out := decode[service.CommitResponseJSON](t, resp); out.State != service.StateAbort {
		t.Fatalf("abort response = %+v", out)
	}

	// Status of a finished transaction, then of an unknown one.
	resp, err := http.Get(ts.URL + "/status/h1")
	if err != nil {
		t.Fatal(err)
	}
	if st := decode[service.TxnStatus](t, resp); st.State != service.StateCommit {
		t.Fatalf("status = %+v", st)
	}
	resp, err = http.Get(ts.URL + "/status/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown status code = %d", resp.StatusCode)
	}

	// Duplicate id is a conflict.
	resp = postJSON(t, ts.URL+"/commit", service.CommitRequestJSON{ID: "h1"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate code = %d", resp.StatusCode)
	}

	// Metrics and health.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if m := decode[service.Metrics](t, resp); m.Committed != 1 || m.Aborted != 1 || m.N != 3 {
		t.Fatalf("metrics = %+v", m)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if h := decode[service.HealthJSON](t, resp); h.Status != "ok" || h.N != 3 {
		t.Fatalf("health = %+v", h)
	}
}

// TestHTTPMetricsPromAndTrace: after real traffic, /metrics.prom serves
// every layer's metrics in Prometheus text format and /debug/spans serves
// the protocol milestones, filterable by transaction.
func TestHTTPMetricsPromAndTrace(t *testing.T) {
	_, ts := newHTTPService(t, service.Config{N: 3, Seed: 31})

	resp := postJSON(t, ts.URL+"/commit", service.CommitRequestJSON{ID: "pm1"})
	if out := decode[service.CommitResponseJSON](t, resp); out.State != service.StateCommit {
		t.Fatalf("commit = %+v", out)
	}
	resp = postJSON(t, ts.URL+"/commit", service.CommitRequestJSON{
		ID: "pm2", Votes: []bool{true, false, true},
	})
	if out := decode[service.CommitResponseJSON](t, resp); out.State != service.StateAbort {
		t.Fatalf("abort = %+v", out)
	}

	resp, err := http.Get(ts.URL + "/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics.prom status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("Content-Type = %q", ct)
	}
	text := string(body)
	// One representative family per instrumented layer must be present:
	// service admission, txn lifecycle, runtime stepping, transport.
	for _, want := range []string{
		"# TYPE service_submitted_total counter",
		`service_submitted_total{shard="0"} 2`,
		`service_outcomes_total{shard="0",outcome="committed"} 1`,
		`service_outcomes_total{shard="0",outcome="aborted"} 1`,
		"# TYPE txn_instances_started_total counter",
		"# TYPE txn_rounds_to_decision_ticks histogram",
		"# TYPE runtime_node_steps_total counter",
		"# TYPE transport_messages_sent_total counter",
		"# TYPE service_queue_depth gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// The one ring carries the protocol milestones beside the spans, and a
	// per-transaction view carries the milestones of that transaction and
	// of the one batch that decided it (its GO, votes and stages), and
	// nobody else's.
	milestones := func(query string) (map[string]bool, []span.Span) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/debug/spans" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		g, err := span.ReadJSON(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, sp := range g.Spans {
			if sp.Milestone() {
				seen[sp.Name] = true
			}
		}
		return seen, g.Spans
	}
	seen, _ := milestones("")
	for _, want := range []string{span.EventGoSent, span.EventGoRecv, span.EventVoteCast, span.StageDecided} {
		if !seen[want] {
			t.Errorf("span ring missing %s milestone", want)
		}
	}
	seen, spans := milestones("?txn=pm2")
	batch := ""
	for _, sp := range spans {
		switch {
		case sp.Txn == "pm2":
			if k := obs.BatchKeyOf(sp.Detail); k != "" {
				batch = k
			}
		case strings.HasPrefix(sp.Txn, "batch:") && (batch == "" || sp.Txn == batch):
			batch = sp.Txn
		default:
			t.Fatalf("filter leaked span %+v", sp)
		}
		if sp.Kind == span.KindEvent && !strings.HasPrefix(sp.Detail, "tick=") {
			t.Errorf("milestone %s without its manager tick: %q", sp.Name, sp.Detail)
		}
	}
	for _, want := range []string{span.EventGoSent, span.EventVoteCast, span.StageDecided} {
		if !seen[want] {
			t.Errorf("pm2's view missing %s milestone", want)
		}
	}

	// The tracer's route is gone.
	resp, err = http.Get(ts.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /debug/trace = %d, want 404", resp.StatusCode)
	}
}

func TestHTTPOverloadAndRetryAfter(t *testing.T) {
	_, ts := newHTTPService(t, service.Config{
		N: 3, Seed: 22,
		QueueDepth: 1, MaxInFlight: 1, BatchMax: 1,
		DefaultTimeout: 400 * time.Millisecond,
		RetryHint:      30 * time.Millisecond,
		Hub:            transport.HubOptions{Inject: func(types.Message) transport.Fault { return transport.Fault{Drop: true} }},
	})
	// Fill slot + dispatcher + queue with doomed submissions.
	for i := 0; i < 3; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/commit", "application/json", bytes.NewReader([]byte("{}")))
			if err == nil {
				resp.Body.Close()
			}
		}()
		time.Sleep(30 * time.Millisecond)
	}
	resp := postJSON(t, ts.URL+"/commit", service.CommitRequestJSON{})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload code = %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("no Retry-After header")
	}
	if e := decode[service.ErrorJSON](t, resp); e.RetryAfterMs != 30 {
		t.Fatalf("error body = %+v", e)
	}
}

func TestHTTPCrashAndDrain(t *testing.T) {
	s, ts := newHTTPService(t, service.Config{N: 5, Seed: 23})
	resp := postJSON(t, ts.URL+"/crash/4", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("crash code = %d", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/crash/9", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad crash code = %d", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/commit", service.CommitRequestJSON{ID: "after-crash"})
	if out := decode[service.CommitResponseJSON](t, resp); !out.State.Terminal() {
		t.Fatalf("post-crash commit = %+v", out)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	resp = postJSON(t, ts.URL+"/commit", service.CommitRequestJSON{})
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining code = %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if h := decode[service.HealthJSON](t, resp); h.Status != "draining" {
		t.Fatalf("health = %+v", h)
	}
}

// TestHTTPReadyzAndSpans: /readyz answers 200 while serving and 503 once
// draining; /debug/spans serves the causal span graph with all three
// layers represented, filterable by transaction.
func TestHTTPReadyzAndSpans(t *testing.T) {
	s, ts := newHTTPService(t, service.Config{N: 3, Seed: 41})

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz code = %d", resp.StatusCode)
	}
	if h := decode[service.HealthJSON](t, resp); h.Status != "ok" || h.N != 3 {
		t.Fatalf("readyz = %+v", h)
	}

	for _, id := range []string{"sp1", "sp2"} {
		resp = postJSON(t, ts.URL+"/commit", service.CommitRequestJSON{ID: id})
		if out := decode[service.CommitResponseJSON](t, resp); out.State != service.StateCommit {
			t.Fatalf("commit %s = %+v", id, out)
		}
	}

	resp, err = http.Get(ts.URL + "/debug/spans")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	g, err := span.ReadJSON(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if g.Unit != "us" {
		t.Fatalf("unit = %q", g.Unit)
	}
	kinds := map[span.Kind]bool{}
	stages := map[string]bool{}
	for _, sp := range g.Spans {
		kinds[sp.Kind] = true
		if sp.Track == span.ServiceTrack {
			stages[sp.Name] = true
		}
	}
	for _, k := range []span.Kind{span.KindStage, span.KindRound, span.KindLink} {
		if !kinds[k] {
			t.Errorf("span graph missing kind %q", k)
		}
	}
	for _, st := range []string{span.StageAdmit, span.StageBatch, span.StageDispatch, span.StageDecided, span.StageNotify} {
		if !stages[st] {
			t.Errorf("span graph missing service stage %q", st)
		}
	}
	if len(g.Edges) == 0 {
		t.Error("span graph has no causal edges")
	}

	// Filtered: sp2's spans plus its batch's rounds and links, and
	// nobody else's.
	resp, err = http.Get(ts.URL + "/debug/spans?txn=sp2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	fg, err := span.ReadJSON(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	batch := ""
	kinds = map[span.Kind]bool{}
	for _, sp := range fg.Spans {
		kinds[sp.Kind] = true
		switch {
		case sp.Txn == "sp2":
			if k := obs.BatchKeyOf(sp.Detail); k != "" {
				batch = k
			}
		case strings.HasPrefix(sp.Txn, "batch:") && (batch == "" || sp.Txn == batch):
			batch = sp.Txn
		default:
			t.Fatalf("filter leaked span %+v", sp)
		}
	}
	for _, k := range []span.Kind{span.KindStage, span.KindRound, span.KindLink} {
		if !kinds[k] {
			t.Errorf("filtered span graph missing kind %q", k)
		}
	}

	// The critical path of a decided transaction descends into its
	// batch's rounds and links and telescopes exactly to the
	// transaction's own end-to-end latency (admission to notify).
	p, err := g.CriticalPathTxn("sp1")
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, st := range p.Steps {
		sum += st.Contrib
	}
	if sum != p.Total {
		t.Fatalf("critical path sum %d != total %d", sum, p.Total)
	}
	if p.ByKind[span.KindRound] <= 0 || p.ByKind[span.KindLink] < 0 {
		t.Fatalf("critical path attributes no round time: %+v\n%s", p.ByKind, p.Render())
	}
	first, last := p.Steps[0].Span, p.Steps[len(p.Steps)-1].Span
	if first.Txn != "sp1" || first.Name != span.StageAdmit || last.Txn != "sp1" || last.Name != span.StageNotify {
		t.Fatalf("critical path does not run admit..notify of sp1:\n%s", p.Render())
	}

	// Per-stage latency summaries surface in the metrics snapshot.
	m := s.Metrics()
	for _, st := range []string{span.StageAdmit, span.StageDecided, span.StageNotify} {
		if m.Stages[st].Count == 0 {
			t.Errorf("metrics missing stage %q: %+v", st, m.Stages)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz code = %d", resp.StatusCode)
	}
	if h := decode[service.HealthJSON](t, resp); h.Status != "draining" {
		t.Fatalf("draining readyz = %+v", h)
	}
}

// TestHTTPCommitDecodeHardening: malformed, oversized, or hostile bodies
// answer 4xx without touching the cluster — and never panic the handler.
func TestHTTPCommitDecodeHardening(t *testing.T) {
	_, ts := newHTTPService(t, service.Config{})

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/commit", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed json", `{"id":`, http.StatusBadRequest},
		{"wrong type", `{"votes":"yes"}`, http.StatusBadRequest},
		{"trailing garbage", `{"id":"a"} {"id":"b"}`, http.StatusBadRequest},
		{"array body", `[true,false]`, http.StatusBadRequest},
		{"control char id", "{\"id\":\"a\\u0000b\"}", http.StatusBadRequest},
		{"oversized id", `{"id":"` + strings.Repeat("x", service.MaxTxnIDBytes+1) + `"}`, http.StatusBadRequest},
		{"negative timeout", `{"timeout_ms":-5}`, http.StatusBadRequest},
		{"wrong vote count", `{"votes":[true]}`, http.StatusBadRequest},
		{"oversized body", `{"id":"` + strings.Repeat("x", service.MaxCommitBodyBytes) + `"}`,
			http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := post(tc.body)
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.want)
			}
			if e := decode[service.ErrorJSON](t, resp); e.Error == "" {
				t.Fatal("error body missing explanation")
			}
		})
	}
}
