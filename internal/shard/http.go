package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/service"
	"repro/internal/types"
)

// NewHTTPHandler exposes a sharded deployment over HTTP/JSON, mirroring
// the unsharded service surface (same endpoints, same bodies) with the
// sharding extensions:
//
//	POST /commit                submit; "keys" picks participating shards
//	GET  /status/{txn}          query a known transaction (cross-aware)
//	GET  /metrics               deployment snapshot (aggregate, per-shard, cross)
//	GET  /metrics.prom          shared registry; shard-labeled families
//	GET  /debug/trace           recent protocol events (?txn=&n=)
//	GET  /debug/spans           causal spans; ?txn= includes the txn's children
//	GET  /healthz               liveness + cluster size + shard count
//	GET  /readyz                readiness: 503 unless every group accepts
//	POST /crash/{node}          correlated: fail-stop node in EVERY group
//	POST /crash/{shard}/{node}  fail-stop node in one group
func NewHTTPHandler(c *Coordinator) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /commit", func(w http.ResponseWriter, r *http.Request) {
		body, err := service.DecodeCommitRequest(http.MaxBytesReader(w, r.Body, service.MaxCommitBodyBytes))
		if err != nil {
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				writeJSON(w, http.StatusRequestEntityTooLarge, service.ErrorJSON{
					Error: fmt.Sprintf("request body exceeds %d bytes", service.MaxCommitBodyBytes)})
				return
			}
			writeJSON(w, http.StatusBadRequest, service.ErrorJSON{Error: err.Error()})
			return
		}
		res, err := c.Submit(r.Context(), Request{
			ID:      body.ID,
			Keys:    body.Keys,
			Votes:   body.Votes,
			Timeout: time.Duration(body.TimeoutMs) * time.Millisecond,
		})
		if err != nil {
			writeSubmitError(w, err)
			return
		}
		resp := service.CommitResponseJSON{
			ID:          res.ID,
			State:       res.State,
			Coordinator: -1,
			Shards:      res.Shards,
			LatencyMs:   float64(res.Latency) / float64(time.Millisecond),
		}
		if res.Decision != types.DecisionNone {
			resp.Decision = res.Decision.String()
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("GET /status/{txn}", func(w http.ResponseWriter, r *http.Request) {
		st, ok := c.Status(r.PathValue("txn"))
		if !ok {
			writeJSON(w, http.StatusNotFound, service.ErrorJSON{Error: "unknown transaction"})
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.Metrics())
	})
	mux.HandleFunc("GET /metrics.prom", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", obs.ContentType)
		c.Registry().WritePrometheus(w) //nolint:errcheck // client gone is fine
	})
	mux.HandleFunc("GET /debug/trace", func(w http.ResponseWriter, r *http.Request) {
		n := 256
		if raw := r.URL.Query().Get("n"); raw != "" {
			v, err := strconv.Atoi(raw)
			if err != nil || v < 0 {
				writeJSON(w, http.StatusBadRequest, service.ErrorJSON{Error: "bad n: want a non-negative integer"})
				return
			}
			n = v
		}
		w.Header().Set("Content-Type", "application/json")
		c.Tracer().WriteJSON(w, r.URL.Query().Get("txn"), n) //nolint:errcheck // client gone is fine
	})
	mux.HandleFunc("GET /debug/spans", func(w http.ResponseWriter, r *http.Request) {
		g := c.Spans().Graph()
		if id := r.URL.Query().Get("txn"); id != "" {
			g = byTxnFamily(g, id)
		}
		w.Header().Set("Content-Type", "application/json")
		span.WriteJSON(w, g) //nolint:errcheck // client gone is fine
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		status := "ok"
		if c.Draining() {
			status = "draining"
		}
		writeJSON(w, http.StatusOK, service.HealthJSON{Status: status, N: c.N(), Shards: c.Shards()})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		switch {
		case c.Ready():
			writeJSON(w, http.StatusOK, service.HealthJSON{Status: "ok", N: c.N(), Shards: c.Shards()})
		case c.Draining():
			writeJSON(w, http.StatusServiceUnavailable, service.HealthJSON{Status: "draining", N: c.N(), Shards: c.Shards()})
		default:
			writeJSON(w, http.StatusServiceUnavailable, service.HealthJSON{Status: "starting", N: c.N(), Shards: c.Shards()})
		}
	})
	mux.HandleFunc("POST /crash/{node}", func(w http.ResponseWriter, r *http.Request) {
		node, err := strconv.Atoi(r.PathValue("node"))
		if err != nil {
			writeJSON(w, http.StatusBadRequest, service.ErrorJSON{Error: "bad node id"})
			return
		}
		if err := c.CrashEverywhere(types.ProcID(node)); err != nil {
			writeJSON(w, http.StatusBadRequest, service.ErrorJSON{Error: err.Error()})
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /crash/{shard}/{node}", func(w http.ResponseWriter, r *http.Request) {
		k, err := strconv.Atoi(r.PathValue("shard"))
		if err != nil {
			writeJSON(w, http.StatusBadRequest, service.ErrorJSON{Error: "bad shard id"})
			return
		}
		node, err := strconv.Atoi(r.PathValue("node"))
		if err != nil {
			writeJSON(w, http.StatusBadRequest, service.ErrorJSON{Error: "bad node id"})
			return
		}
		if err := c.Crash(k, types.ProcID(node)); err != nil {
			writeJSON(w, http.StatusBadRequest, service.ErrorJSON{Error: err.Error()})
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	return mux
}

// byTxnFamily filters a span graph to one transaction and its children
// (the "#s<k>" per-shard transactions a cross-shard submission spawns),
// each with the agreement batch that decided it, so one query shows the
// whole two-layer causal picture.
func byTxnFamily(g *span.Graph, txn string) *span.Graph {
	prefix := txn + childSep
	return g.Filter(func(t string) bool { return t == txn || strings.HasPrefix(t, prefix) })
}

// writeSubmitError maps Submit's typed errors to HTTP statuses,
// matching the unsharded handler's mapping.
func writeSubmitError(w http.ResponseWriter, err error) {
	var oe *service.OverloadError
	var de *service.DuplicateError
	switch {
	case errors.As(err, &oe):
		secs := int64(oe.RetryAfter / time.Second)
		if oe.RetryAfter%time.Second != 0 {
			secs++ // Retry-After is whole seconds; round up
		}
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
		writeJSON(w, http.StatusTooManyRequests, service.ErrorJSON{
			Error:        err.Error(),
			RetryAfterMs: oe.RetryAfter.Milliseconds(),
		})
	case errors.Is(err, service.ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable, service.ErrorJSON{Error: err.Error()})
	case errors.As(err, &de):
		writeJSON(w, http.StatusConflict, service.ErrorJSON{Error: err.Error()})
	default:
		writeJSON(w, http.StatusBadRequest, service.ErrorJSON{Error: err.Error()})
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone is fine
}
