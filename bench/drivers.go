package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/adversary"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/rng"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/wal"
)

// Layer drivers: each times one layer's public functions directly from a
// single goroutine, with no service around them, so a per-layer line of
// a traced run can be explained (or a claimed saving located) without
// the noise of the whole stack. They are independent of the workload.

// perOp runs fn reps times and returns the median cost of one of its n
// operations, in nanoseconds.
func perOp(reps, n int, fn func()) float64 {
	costs := make([]float64, reps)
	for i := range costs {
		start := time.Now()
		fn()
		costs[i] = float64(time.Since(start)) / float64(n)
	}
	return median(costs)
}

func runDrivers(e *env) (map[string]float64, error) {
	m := map[string]float64{}

	body := []byte(`{"id":"s1c0-12345","votes":[true,false,true]}`)
	m["http.decode_ns_per_req"] = perOp(9, 2000, func() {
		for i := 0; i < 2000; i++ {
			if _, err := service.DecodeCommitRequest(bytes.NewReader(body)); err != nil {
				panic(err) // the body is a constant, valid request
			}
		}
	})

	for _, v := range []struct {
		name  string
		width int // 0: the scalar path, one instance per transaction
	}{{"scalar", 0}, {"w1", 1}, {"w16", 16}, {"w64", 64}} {
		us, err := decideCost(v.width)
		if err != nil {
			return nil, err
		}
		m["txn.decide_us_per_txn_"+v.name] = us
	}

	floor, err := floorN1()
	if err != nil {
		return nil, err
	}
	m["runtime.floor_n1_p50_ms"] = floor

	if m["transport.tcp_hop_us"], err = tcpHop(); err != nil {
		return nil, err
	}
	m["transport.hub_hop_ns"] = hubHop()

	if err := walDrivers(e, m); err != nil {
		return nil, err
	}

	router, err := shard.NewRouter(shardCount)
	if err != nil {
		return nil, err
	}
	keys := []string{"t7/k1234", "t7/k99"}
	m["shard.route_ns_per_txn"] = perOp(9, 20000, func() {
		for i := 0; i < 20000; i++ {
			router.RouteKeys("x", keys)
		}
	})

	tracer := obs.NewTracer(4096)
	ev := obs.Event{Node: 1, Txn: "t", Type: obs.EventCrash, Tick: 7}
	m["obs.tracer_record_ns"] = perOp(9, 50000, func() {
		for i := 0; i < 50000; i++ {
			tracer.Record(ev)
		}
	})
	m["obs.tracer_record_ns_contended"] = perOp(9, 4*12500, func() {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 12500; i++ {
					tracer.Record(ev)
				}
			}()
		}
		wg.Wait()
	})
	spans := span.NewCollector(16384)
	sp := span.Span{Txn: "t", Track: span.ServiceTrack, Name: "decided", Kind: span.KindStage, Start: 1, End: 2, From: -1, To: -1}
	m["obs.span_record_ns"] = perOp(9, 20000, func() {
		for i := 0; i < 20000; i++ {
			spans.Add(sp)
		}
	})
	return m, nil
}

// decideBatch is how many transactions one decideCost repetition decides.
const decideBatch = 64

// decideCost steps three transaction managers in lockstep under the
// simulator's round-robin scheduler until decideBatch transactions are
// decided everywhere, and returns the median microseconds per
// transaction. width 0 begins each transaction as its own scalar
// instance; width w > 0 begins decideBatch/w vector instances of w
// members. _w1 against _scalar is the vector path's width-1 overhead.
func decideCost(width int) (float64, error) {
	ids := make([]txn.ID, decideBatch)
	for i := range ids {
		ids[i] = txn.ID(fmt.Sprintf("d%d", i))
	}
	var runErr error
	ns := perOp(41, decideBatch, func() {
		managers := make([]*txn.Manager, clusterN)
		machines := make([]types.Machine, clusterN)
		for p := range managers {
			mgr, err := txn.NewManager(txn.Config{ID: types.ProcID(p), N: clusterN, K: clusterK, InboxShards: 8})
			if err != nil {
				runErr = err
				return
			}
			managers[p], machines[p] = mgr, mgr
		}
		if width == 0 {
			for _, id := range ids {
				if err := managers[0].Begin(id, true); err != nil {
					runErr = err
					return
				}
			}
		} else {
			votes := make([]bool, width)
			for i := range votes {
				votes[i] = true
			}
			for b := 0; b < decideBatch/width; b++ {
				if err := managers[0].BeginBatch(txn.BatchID(fmt.Sprintf("b%d", b)), ids[b*width:(b+1)*width], votes); err != nil {
					runErr = err
					return
				}
			}
		}
		// A fixed seed: the coin schedule is the same every repetition, so
		// the cost moves only when the code does.
		_, err := sim.Run(sim.Config{
			K: clusterK, Machines: machines, Adversary: &adversary.RoundRobin{},
			Seeds: rng.NewCollection(0xBE7C4, clusterN), MaxSteps: 200_000,
			StopWhen: func(*sim.Result) bool {
				for _, mgr := range managers {
					for _, id := range ids {
						if _, ok := mgr.DecisionOf(id); !ok {
							return false
						}
					}
				}
				return true
			},
		})
		if err != nil {
			runErr = err
		}
	})
	return ns / 1e3, runErr
}

// floorN1 is the single-node baseline: Submit against an N=1 service, no
// peers, no journal — pure tick pacing plus the service's own hand-offs.
func floorN1() (float64, error) {
	svc, err := service.New(service.Config{N: 1, K: clusterK, TickEvery: tickEvery, BatchAgreement: true, DefaultTimeout: reqTimeout})
	if err != nil {
		return 0, err
	}
	defer svc.Close(context.Background()) //nolint:errcheck // driver teardown
	ms := make([]float64, 120)
	for i := range ms {
		start := time.Now()
		res, err := svc.Submit(context.Background(), service.Request{})
		if err != nil || res.State != service.StateCommit {
			return 0, fmt.Errorf("n=1 floor: %v %v", res.State, err)
		}
		ms[i] = float64(time.Since(start)) / 1e6
	}
	return median(ms), nil
}

// hopPayload is a small fixed message for the hop drivers.
var hopPayload = txn.Envelope{Txn: "hop"}

// tcpHop is one loopback TCP hop: Send on one node to receipt on its peer.
func tcpHop() (float64, error) {
	transport.RegisterWirePayloads()
	a, err := transport.ListenTCP(0, "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer a.Close() //nolint:errcheck // driver teardown
	b, err := transport.ListenTCP(1, "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer b.Close() //nolint:errcheck // driver teardown
	peers := map[types.ProcID]string{0: a.Addr(), 1: b.Addr()}
	a.SetPeers(peers)
	b.SetPeers(peers)
	us := make([]float64, 1000)
	for i := range us {
		start := time.Now()
		if err := a.Send(types.Message{To: 1, Payload: hopPayload}); err != nil {
			return 0, err
		}
		select {
		case <-b.Recv():
		case <-time.After(2 * time.Second):
			return 0, fmt.Errorf("tcp hop: message %d never arrived", i)
		}
		us[i] = float64(time.Since(start)) / 1e3
	}
	return median(us), nil
}

// hubHop is one in-memory hub hop.
func hubHop() float64 {
	hub := transport.NewHub(2, transport.HubOptions{})
	defer hub.Close() //nolint:errcheck // always nil
	a, b := hub.Endpoint(0), hub.Endpoint(1)
	return perOp(9, 5000, func() {
		for i := 0; i < 5000; i++ {
			a.Send(types.Message{To: 1, Payload: hopPayload}) //nolint:errcheck // an open hub does not fail
			<-b.Recv()
		}
	})
}

// replayRecords is the journal length the replay driver reopens.
const replayRecords = 20_000

// walDrivers times one synchronous durable append, and reopening a
// journal of replayRecords decisions with snapshots off (the whole log
// is replayed), scaled to 100k records.
func walDrivers(e *env, m map[string]float64) error {
	dir, err := e.freshDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir) //nolint:errcheck // scratch
	fs, err := wal.NewDirFS(dir)
	if err != nil {
		return err
	}
	log, err := wal.OpenDecisionLog(wal.SegmentedOptions{FS: fs})
	if err != nil {
		return err
	}
	us := make([]float64, 200)
	for i := range us {
		start := time.Now()
		if err := log.AppendSync(fmt.Sprintf("sync-%d", i), types.DecisionCommit); err != nil {
			return err
		}
		us[i] = float64(time.Since(start)) / 1e3
	}
	m["wal.append_sync_us"] = median(us)

	for i := 0; i < replayRecords; i++ {
		if err := log.Append(fmt.Sprintf("replay-%d", i), types.DecisionCommit, nil); err != nil {
			return err
		}
	}
	if err := log.Close(); err != nil {
		return err
	}
	reopened, err := wal.OpenDecisionLog(wal.SegmentedOptions{FS: fs})
	if err != nil {
		return err
	}
	rs := reopened.ReplayStats()
	if err := reopened.Close(); err != nil {
		return err
	}
	if rs.Records == 0 {
		return fmt.Errorf("replay driver: nothing replayed")
	}
	m["wal.replay_ms_per_100k"] = float64(rs.Duration) / 1e6 * 100_000 / float64(rs.Records)
	return nil
}
