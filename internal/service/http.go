package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
	"unicode/utf8"

	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/types"
)

// Request-decoding bounds: a commit submission is a few hundred bytes of
// JSON; anything near these limits is malformed or hostile.
const (
	// MaxCommitBodyBytes caps the POST /commit body (1 MiB).
	MaxCommitBodyBytes = 1 << 20
	// MaxTxnIDBytes caps a client-chosen transaction id.
	MaxTxnIDBytes = 256
)

// DecodeCommitRequest parses and validates one POST /commit body. It
// rejects syntactically bad JSON, trailing garbage, oversized or
// non-printable transaction ids, and negative timeouts — the full
// validation surface, factored out so it can be fuzzed without a
// listening service.
func DecodeCommitRequest(r io.Reader) (CommitRequestJSON, error) {
	var body CommitRequestJSON
	dec := json.NewDecoder(io.LimitReader(r, MaxCommitBodyBytes+1))
	if err := dec.Decode(&body); err != nil {
		return CommitRequestJSON{}, fmt.Errorf("bad request body: %w", err)
	}
	// A second document (or any non-EOF token) after the first is a
	// smuggling attempt or a confused client; either way, reject.
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return CommitRequestJSON{}, errors.New("bad request body: trailing data after JSON document")
	}
	if err := validateTxnID(body.ID); err != nil {
		return CommitRequestJSON{}, err
	}
	if len(body.Keys) > MaxCommitKeys {
		return CommitRequestJSON{}, fmt.Errorf("bad keys: %d keys exceeds the %d-key limit", len(body.Keys), MaxCommitKeys)
	}
	for _, k := range body.Keys {
		if k == "" {
			return CommitRequestJSON{}, errors.New("bad keys: empty key")
		}
		if err := validateTxnID(k); err != nil {
			return CommitRequestJSON{}, fmt.Errorf("bad keys: %w", err)
		}
	}
	if body.TimeoutMs < 0 {
		return CommitRequestJSON{}, fmt.Errorf("bad timeout_ms: must be non-negative, got %d", body.TimeoutMs)
	}
	return body, nil
}

// validateTxnID enforces the id contract: bounded length, valid UTF-8,
// no control characters (ids echo into logs, traces, and URLs).
func validateTxnID(id string) error {
	if len(id) > MaxTxnIDBytes {
		return fmt.Errorf("bad id: %d bytes exceeds the %d-byte limit", len(id), MaxTxnIDBytes)
	}
	if !utf8.ValidString(id) {
		return errors.New("bad id: not valid UTF-8")
	}
	for _, r := range id {
		if r < 0x20 || r == 0x7f {
			return fmt.Errorf("bad id: control character %q", r)
		}
	}
	return nil
}

// MaxCommitKeys caps the key set of one submission (sharded
// deployments route each key to its shard; see internal/shard).
const MaxCommitKeys = 64

// CommitRequestJSON is the POST /commit body. Keys is only meaningful
// against a sharded deployment, where the keys' shards (deduplicated)
// become the transaction's participants; an unsharded service ignores
// it.
type CommitRequestJSON struct {
	ID        string   `json:"id,omitempty"`
	Keys      []string `json:"keys,omitempty"`
	Votes     []bool   `json:"votes,omitempty"`
	TimeoutMs int64    `json:"timeout_ms,omitempty"`
}

// CommitResponseJSON is the POST /commit response body. Shards is the
// participating shard set (sharded deployments only).
type CommitResponseJSON struct {
	ID          string  `json:"id"`
	State       State   `json:"state"`
	Decision    string  `json:"decision,omitempty"`
	Coordinator int     `json:"coordinator"`
	Shards      []int   `json:"shards,omitempty"`
	LatencyMs   float64 `json:"latency_ms"`
}

// ErrorJSON is the error response body.
type ErrorJSON struct {
	Error        string `json:"error"`
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
}

// HealthJSON is the GET /healthz response body. Shards is reported by
// sharded deployments only.
type HealthJSON struct {
	Status string `json:"status"`
	N      int    `json:"n"`
	Shards int    `json:"shards,omitempty"`
}

// Timeout is the request's deadline override as a duration.
func (b CommitRequestJSON) Timeout() time.Duration {
	return time.Duration(b.TimeoutMs) * time.Millisecond
}

// Backend is the deployment behind the HTTP surface: one commit group
// (*Service) or several behind a cross-shard coordinator (internal/shard).
// The handler is written against this alone and never asks which it has.
type Backend interface {
	// Commit submits one decoded request and blocks to its terminal
	// answer. shards is the participating shard set, nil when unsharded.
	Commit(ctx context.Context, body CommitRequestJSON) (res Result, shards []int, err error)
	// StatusJSON is the GET /status body for a known transaction.
	StatusJSON(id string) (any, bool)
	// MetricsJSON is the GET /metrics body.
	MetricsJSON() any
	Registry() *obs.Registry
	Spans() *span.Collector
	// SpanFamily reports whether span key belongs to txn's ?txn= view.
	SpanFamily(txn, key string) bool
	// N is the group size; Shards the group count, 0 when unsharded.
	N() int
	Shards() int
	Ready() bool
	Draining() bool
	// JournalErr is non-nil once a group's journal has failed: that group
	// is fail-stopped.
	JournalErr() error
	// Crash fail-stops processor node (in every group, when sharded).
	Crash(node types.ProcID) error
}

// unsharded adapts one *Service to Backend.
type unsharded struct{ *Service }

func (u unsharded) Commit(ctx context.Context, body CommitRequestJSON) (Result, []int, error) {
	res, err := u.Submit(ctx, Request{ID: body.ID, Votes: body.Votes, Timeout: body.Timeout()})
	return res, nil, err
}
func (u unsharded) StatusJSON(id string) (any, bool) { return u.Status(id) }
func (u unsharded) MetricsJSON() any                 { return u.Metrics() }
func (u unsharded) SpanFamily(txn, key string) bool  { return key == txn }
func (u unsharded) Shards() int                      { return 0 }

// NewHTTPHandler exposes one commit group over HTTP/JSON (see NewHandler).
func NewHTTPHandler(s *Service) http.Handler { return NewHandler(unsharded{s}) }

// NewHandler exposes a deployment over HTTP/JSON (stdlib only). The mux is
// returned so a backend can add routes of its own.
//
//	POST /commit        submit a transaction, blocks to its terminal state
//	GET  /status/{txn}  query a known transaction
//	GET  /metrics       instrumentation snapshot (JSON)
//	GET  /metrics.prom  full shared registry, Prometheus text format
//	GET  /debug/spans   span ring as a causal graph, milestones included
//	                    (?txn=<id> filters; 404 for an id the ring does
//	                    not trace, span.Collector.Traced)
//	GET  /healthz       liveness + cluster size (+ shard count)
//	GET  /readyz        readiness: 503 while starting, draining or a
//	                    group's journal has failed
//	POST /crash/{node}  fault injection: fail-stop one processor
func NewHandler(b Backend) *http.ServeMux {
	health := func(status string) HealthJSON {
		return HealthJSON{Status: status, N: b.N(), Shards: b.Shards()}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /commit", func(w http.ResponseWriter, r *http.Request) {
		body, err := DecodeCommitRequest(http.MaxBytesReader(w, r.Body, MaxCommitBodyBytes))
		if err != nil {
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				writeJSON(w, http.StatusRequestEntityTooLarge, ErrorJSON{
					Error: fmt.Sprintf("request body exceeds %d bytes", MaxCommitBodyBytes)})
				return
			}
			writeJSON(w, http.StatusBadRequest, ErrorJSON{Error: err.Error()})
			return
		}
		res, shards, err := b.Commit(r.Context(), body)
		if err != nil {
			writeSubmitError(w, err)
			return
		}
		resp := CommitResponseJSON{
			ID:          res.ID,
			State:       res.State,
			Coordinator: int(res.Coordinator),
			Shards:      shards,
			LatencyMs:   float64(res.Latency) / float64(time.Millisecond),
		}
		if res.Decision != types.DecisionNone {
			resp.Decision = res.Decision.String()
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("GET /status/{txn}", func(w http.ResponseWriter, r *http.Request) {
		st, ok := b.StatusJSON(r.PathValue("txn"))
		if !ok {
			writeJSON(w, http.StatusNotFound, ErrorJSON{Error: "unknown transaction"})
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, b.MetricsJSON())
	})
	mux.HandleFunc("GET /metrics.prom", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", obs.ContentType)
		b.Registry().WritePrometheus(w) //nolint:errcheck // client gone is fine
	})
	mux.HandleFunc("GET /debug/spans", func(w http.ResponseWriter, r *http.Request) {
		id := r.URL.Query().Get("txn")
		if id != "" && !b.Spans().Traced(id) {
			writeJSON(w, http.StatusNotFound, ErrorJSON{Error: fmt.Sprintf(
				"transaction %q is not traced: the ring records 1 transaction id in %d, chosen by a hash of the id (a cross transaction's children go with it)",
				id, span.SampleEvery)})
			return
		}
		g := b.Spans().Graph()
		if id != "" {
			g = g.Filter(func(key string) bool { return b.SpanFamily(id, key) })
		}
		w.Header().Set("Content-Type", "application/json")
		span.WriteJSON(w, g) //nolint:errcheck // client gone is fine
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		status := "ok"
		if b.Draining() {
			status = "draining"
		}
		writeJSON(w, http.StatusOK, health(status))
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		switch {
		case b.Ready():
			writeJSON(w, http.StatusOK, health("ok"))
		case b.Draining():
			writeJSON(w, http.StatusServiceUnavailable, health("draining"))
		case b.JournalErr() != nil:
			writeJSON(w, http.StatusServiceUnavailable, health("journal-failed"))
		default:
			writeJSON(w, http.StatusServiceUnavailable, health("starting"))
		}
	})
	mux.HandleFunc("POST /crash/{node}", CrashHandler(func(ids []int) error {
		return b.Crash(types.ProcID(ids[0]))
	}, "node"))
	return mux
}

// CrashHandler serves one fault-injection route: each named path value
// is parsed as an integer and the list handed to crash. 204 on success,
// 400 when a value is not a number or crash refuses it.
func CrashHandler(crash func(ids []int) error, names ...string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ids := make([]int, len(names))
		for i, name := range names {
			v, err := strconv.Atoi(r.PathValue(name))
			if err != nil {
				writeJSON(w, http.StatusBadRequest, ErrorJSON{Error: "bad " + name + " id"})
				return
			}
			ids[i] = v
		}
		if err := crash(ids); err != nil {
			writeJSON(w, http.StatusBadRequest, ErrorJSON{Error: err.Error()})
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}
}

// writeSubmitError maps Submit's typed errors to HTTP statuses: overload
// is 429 with a Retry-After hint, draining and a failed journal are 503
// (the error names the shard), duplicate ids are 409,
// context expiry is 499-style client timeout, the rest are 400.
func writeSubmitError(w http.ResponseWriter, err error) {
	var oe *OverloadError
	var de *DuplicateError
	var je *JournalError
	switch {
	case errors.As(err, &oe):
		secs := int64(oe.RetryAfter / time.Second)
		if oe.RetryAfter%time.Second != 0 {
			secs++ // Retry-After is whole seconds; round up
		}
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
		writeJSON(w, http.StatusTooManyRequests, ErrorJSON{
			Error:        err.Error(),
			RetryAfterMs: oe.RetryAfter.Milliseconds(),
		})
	case errors.Is(err, ErrDraining), errors.As(err, &je):
		writeJSON(w, http.StatusServiceUnavailable, ErrorJSON{Error: err.Error()})
	case errors.As(err, &de):
		writeJSON(w, http.StatusConflict, ErrorJSON{Error: err.Error()})
	default:
		writeJSON(w, http.StatusBadRequest, ErrorJSON{Error: err.Error()})
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone is fine
}
