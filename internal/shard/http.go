package shard

import (
	"context"
	"net/http"
	"strings"

	"repro/internal/service"
	"repro/internal/types"
)

// sharded adapts a Coordinator to the service package's HTTP backend; it
// carries only what differs from one commit group.
type sharded struct{ *Coordinator }

// Commit routes "keys" to the participating shards. No one processor
// coordinates a sharded submission, hence Coordinator -1.
func (s sharded) Commit(ctx context.Context, body service.CommitRequestJSON) (service.Result, []int, error) {
	res, err := s.Submit(ctx, Request{ID: body.ID, Keys: body.Keys, Votes: body.Votes, Timeout: body.Timeout()})
	return service.Result{
		ID: res.ID, State: res.State, Decision: res.Decision, Coordinator: -1, Latency: res.Latency,
	}, res.Shards, err
}
func (s sharded) StatusJSON(id string) (any, bool) { return s.Status(id) }
func (s sharded) MetricsJSON() any                 { return s.Metrics() }

// SpanFamily keeps a transaction and its children (the "#s<k>" per-shard
// transactions a cross-shard submission spawns), so one ?txn= query shows
// the whole two-layer causal picture.
func (s sharded) SpanFamily(txn, key string) bool {
	return key == txn || strings.HasPrefix(key, txn+childSep)
}

// Crash is the correlated fault: node fail-stops in EVERY group.
func (s sharded) Crash(node types.ProcID) error { return s.CrashEverywhere(node) }

// NewHTTPHandler exposes a sharded deployment over service.NewHandler's
// surface — same endpoints, same bodies; /status is cross-aware, /metrics
// is the aggregate/per-shard/cross snapshot, /healthz and /readyz report
// the shard count — plus one route of its own:
//
//	POST /crash/{shard}/{node}  fail-stop node in one group
func NewHTTPHandler(c *Coordinator) http.Handler {
	mux := service.NewHandler(sharded{c})
	mux.HandleFunc("POST /crash/{shard}/{node}", service.CrashHandler(func(ids []int) error {
		return c.Crash(ids[0], types.ProcID(ids[1]))
	}, "shard", "node"))
	return mux
}
