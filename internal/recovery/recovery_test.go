package recovery_test

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/recovery"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/types"
	"repro/internal/wal"
)

// buildCluster wires n-1 responder-wrapped commit machines plus one
// recovery client at id n-1 (modeling a processor that restarted with no
// protocol state: to the others it is indistinguishable from a crashed
// participant).
func buildCluster(t *testing.T, n int, resume wal.State) []types.Machine {
	t.Helper()
	machines := make([]types.Machine, n)
	for i := 0; i < n-1; i++ {
		m, err := core.New(core.Config{
			ID: types.ProcID(i), N: n, T: (n - 1) / 2, K: 3,
			Vote: types.V1, Gadget: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		machines[i] = &recovery.Responder{Inner: m}
	}
	client, err := recovery.NewClient(recovery.ClientConfig{
		ID: types.ProcID(n - 1), N: n, Resume: resume,
	})
	if err != nil {
		t.Fatal(err)
	}
	machines[n-1] = client
	return machines
}

func TestClientLearnsOutcomeFromResponders(t *testing.T) {
	n := 5 // t = 2: the protocol tolerates the absent participant
	machines := buildCluster(t, n, wal.State{})
	res, err := sim.Run(sim.Config{
		K: 3, Machines: machines, Adversary: &adversary.RoundRobin{},
		Seeds: rng.NewCollection(11, n),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllNonfaultyDecided() {
		t.Fatalf("cluster (including the recovering client) did not decide")
	}
	if err := trace.CheckAgreement(res.Outcomes()); err != nil {
		t.Fatal(err)
	}
	// The participants time out waiting for processor 4's GO relay and
	// vote, so the run aborts; the client must learn exactly that value.
	if res.Values[n-1] != res.Values[0] {
		t.Fatalf("client decided %v, cluster decided %v", res.Values[n-1], res.Values[0])
	}
}

func TestClientShortCircuitsOnLoggedDecision(t *testing.T) {
	client, err := recovery.NewClient(recovery.ClientConfig{
		ID: 2, N: 3,
		Resume: wal.State{Decided: true, Decision: types.V1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := client.Decision(); !ok || v != types.V1 {
		t.Fatalf("decision = %v %v, want logged value", v, ok)
	}
	if !client.Halted() {
		t.Fatal("client with a logged decision should be halted")
	}
	if out := client.Step(nil, rng.NewStream(1)); len(out) != 0 {
		t.Fatalf("halted client sent %d messages", len(out))
	}
}

func TestClientPollsPeriodically(t *testing.T) {
	client, err := recovery.NewClient(recovery.ClientConfig{ID: 0, N: 4, QueryEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	st := rng.NewStream(2)
	queries := 0
	for i := 0; i < 9; i++ {
		out := client.Step(nil, st)
		for _, m := range out {
			if _, ok := m.Payload.(recovery.QueryMsg); ok {
				queries++
			}
		}
	}
	// Polls at clocks 1, 4, 7 => 3 polls x 3 peers.
	if queries != 9 {
		t.Fatalf("queries = %d, want 9", queries)
	}
}

func TestClientAdoptsFirstReply(t *testing.T) {
	client, err := recovery.NewClient(recovery.ClientConfig{ID: 0, N: 3})
	if err != nil {
		t.Fatal(err)
	}
	st := rng.NewStream(3)
	client.Step(nil, st) // poll
	out := client.Step([]types.Message{
		{From: 1, To: 0, Payload: recovery.ReplyMsg{Val: types.V0}},
	}, st)
	if len(out) != 0 {
		t.Fatalf("client kept sending after adopting: %d msgs", len(out))
	}
	if v, ok := client.Decision(); !ok || v != types.V0 {
		t.Fatalf("decision = %v %v", v, ok)
	}
	if !client.Halted() {
		t.Fatal("client should halt after adopting")
	}
}

// TestClientDeliverAdoptsWithoutTicking: a reply handed over between ticks
// is adopted at once and leaves the poll clock where it was; a delivery
// without one changes nothing, and neither ever sends.
func TestClientDeliverAdoptsWithoutTicking(t *testing.T) {
	client, err := recovery.NewClient(recovery.ClientConfig{ID: 0, N: 3})
	if err != nil {
		t.Fatal(err)
	}
	st := rng.NewStream(3)
	client.Step(nil, st) // poll
	if out := client.Deliver([]types.Message{{From: 2, To: 0, Payload: recovery.QueryMsg{}}}, st); len(out) != 0 || client.Halted() {
		t.Fatalf("a delivery without a reply sent %d msgs, halted=%v", len(out), client.Halted())
	}
	out := client.Deliver([]types.Message{
		{From: 1, To: 0, Payload: recovery.ReplyMsg{Val: types.V1}},
		{From: 2, To: 0, Payload: recovery.ReplyMsg{Val: types.V0}},
	}, st)
	if len(out) != 0 {
		t.Fatalf("a delivery sent %d msgs", len(out))
	}
	if v, ok := client.Decision(); !ok || v != types.V1 || !client.Halted() {
		t.Fatalf("decision = %v %v halted=%v, want the first reply's value, halted", v, ok, client.Halted())
	}
	if client.Clock() != 1 {
		t.Fatalf("clock = %d after one step and two deliveries, want 1", client.Clock())
	}
}

func TestResponderAnswersOnlyAfterDecision(t *testing.T) {
	m, err := core.New(core.Config{ID: 0, N: 3, T: 1, K: 2, Vote: types.V1, Gadget: true})
	if err != nil {
		t.Fatal(err)
	}
	r := &recovery.Responder{Inner: m}
	st := rng.NewStream(4)
	// Query before decision: silence (beyond the protocol's own traffic).
	out := r.Step([]types.Message{{From: 2, To: 0, Payload: recovery.QueryMsg{}}}, st)
	for _, msg := range out {
		if _, ok := msg.Payload.(recovery.ReplyMsg); ok {
			t.Fatal("undecided responder replied")
		}
	}
	if r.Halted() {
		t.Fatal("responder must never report halted")
	}
}

func TestResponderFiltersQueriesFromInnerProtocol(t *testing.T) {
	// The inner machine must not see rc.query payloads; feeding one
	// through the responder must not disturb the protocol (this would
	// show up as a changed snapshot versus a machine that saw nothing).
	mk := func() (*recovery.Responder, *core.Commit) {
		m, err := core.New(core.Config{ID: 1, N: 3, T: 1, K: 2, Vote: types.V1, Gadget: true})
		if err != nil {
			t.Fatal(err)
		}
		return &recovery.Responder{Inner: m}, m
	}
	ra, ma := mk()
	rb, mb := mk()
	sa, sb := rng.NewStream(5), rng.NewStream(5)
	ra.Step([]types.Message{{From: 2, To: 1, Payload: recovery.QueryMsg{}}}, sa)
	rb.Step(nil, sb)
	if string(ma.Snapshot()) != string(mb.Snapshot()) {
		t.Fatal("query leaked into the inner protocol state")
	}
}

func TestClientConfigValidation(t *testing.T) {
	if _, err := recovery.NewClient(recovery.ClientConfig{ID: 0, N: 0}); err == nil {
		t.Error("N=0 accepted")
	}
	if _, err := recovery.NewClient(recovery.ClientConfig{ID: 5, N: 3}); err == nil {
		t.Error("out-of-range id accepted")
	}
}

func TestPayloadKinds(t *testing.T) {
	if (recovery.QueryMsg{}).Kind() != "rc.query" || (recovery.ReplyMsg{}).Kind() != "rc.reply" {
		t.Error("payload kinds changed")
	}
}

// TestEndToEndCrashRecover is the full story: a journaled processor
// crashes mid-protocol; the survivors decide; the processor restarts,
// replays its log, finds no decision, runs the recovery client, and
// adopts the cluster's outcome.
func TestEndToEndCrashRecover(t *testing.T) {
	n := 5
	victim := types.ProcID(4)

	// Phase 1: run with the victim journaled and crashed mid-protocol.
	logs := make([]wal.Records, n)
	machines := make([]types.Machine, n)
	for i := 0; i < n; i++ {
		m, err := core.New(core.Config{
			ID: types.ProcID(i), N: n, T: 2, K: 3, Vote: types.V1, Gadget: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		machines[i] = wal.NewLoggedCommit(m, &logs[i])
	}
	adv := &adversary.Crash{
		Inner: &adversary.RoundRobin{},
		Plan:  []adversary.CrashPlan{{Proc: victim, AtClock: 4}},
	}
	res, err := sim.Run(sim.Config{
		K: 3, Machines: machines, Adversary: adv, Seeds: rng.NewCollection(21, n),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllNonfaultyDecided() {
		t.Fatal("survivors did not decide")
	}
	clusterValue := res.Values[0]

	// Phase 2: the victim restarts. Replay its journal.
	state := wal.Reconstruct(logs[victim])
	if state.Decided {
		t.Skip("victim decided before crashing; nothing to recover")
	}

	// Phase 3: recovery run — survivors as responders (their machines
	// retain the decision), victim as client resuming from its log.
	recMachines := make([]types.Machine, n)
	for i := 0; i < n; i++ {
		if types.ProcID(i) == victim {
			client, err := recovery.NewClient(recovery.ClientConfig{
				ID: victim, N: n, Resume: state,
			})
			if err != nil {
				t.Fatal(err)
			}
			recMachines[i] = client
			continue
		}
		lm, ok := machines[i].(*wal.LoggedCommit)
		if !ok {
			t.Fatal("unexpected machine type")
		}
		recMachines[i] = &recovery.Responder{Inner: lm.Inner()}
	}
	res2, err := sim.Run(sim.Config{
		K: 3, Machines: recMachines, Adversary: &adversary.RoundRobin{},
		Seeds: rng.NewCollection(22, n),
		StopWhen: func(r *sim.Result) bool {
			return r.Decided[victim]
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Decided[victim] {
		t.Fatal("victim never recovered the outcome")
	}
	if res2.Values[victim] != clusterValue {
		t.Fatalf("victim recovered %v, cluster decided %v", res2.Values[victim], clusterValue)
	}
}
