package agreement_test

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/adversary"
	"repro/internal/agreement"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/types"
)

// runAgreement simulates the agreement protocol with given initial values.
func runAgreement(t *testing.T, initial []types.Value, coins []types.Value, adv sim.Adversary, seed uint64, maxSteps int) (*sim.Result, []*agreement.Machine) {
	t.Helper()
	n := len(initial)
	faults := (n - 1) / 2
	machines := make([]types.Machine, n)
	ams := make([]*agreement.Machine, n)
	for i := 0; i < n; i++ {
		var src agreement.CoinSource
		if coins != nil {
			src = agreement.ListCoin{Coins: coins}
		} else {
			src = agreement.LocalCoin{}
		}
		m, err := agreement.New(agreement.Config{
			ID: types.ProcID(i), N: n, T: faults,
			Initial: initial[i], Coins: src, Gadget: true,
		})
		if err != nil {
			t.Fatalf("new machine %d: %v", i, err)
		}
		machines[i] = m
		ams[i] = m
	}
	res, err := sim.Run(sim.Config{
		K: 2, Machines: machines, Adversary: adv,
		Seeds: rng.NewCollection(seed, n), MaxSteps: maxSteps, Record: true,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res, ams
}

func sharedCoins(seed uint64, n int) []types.Value {
	return rng.NewStream(seed).Bits(n)
}

func vals(bits ...int) []types.Value {
	out := make([]types.Value, len(bits))
	for i, b := range bits {
		out[i] = types.Value(b)
	}
	return out
}

func TestValidityUnanimousInputs(t *testing.T) {
	// Lemma 1 / the validity condition: unanimous inputs decide that
	// value (and quickly: by the end of stage 1).
	for _, v := range []types.Value{types.V0, types.V1} {
		for _, n := range []int{1, 3, 4, 5, 8} {
			initial := make([]types.Value, n)
			for i := range initial {
				initial[i] = v
			}
			res, ams := runAgreement(t, initial, sharedCoins(1, n), &adversary.RoundRobin{}, 11*uint64(n), 0)
			if !res.AllNonfaultyDecided() {
				t.Fatalf("v=%v n=%d: not all decided", v, n)
			}
			for p := 0; p < n; p++ {
				if res.Values[p] != v {
					t.Fatalf("v=%v n=%d: proc %d decided %v", v, n, p, res.Values[p])
				}
				if ds := ams[p].DecidedStage(); ds != 1 {
					t.Errorf("v=%v n=%d: proc %d decided at stage %d, want 1 (Lemma 1)", v, n, p, ds)
				}
			}
		}
	}
}

func TestAgreementMixedInputs(t *testing.T) {
	for seed := uint64(0); seed < 25; seed++ {
		initial := vals(0, 1, 0, 1, 1)
		res, ams := runAgreement(t, initial, sharedCoins(seed, 5), &adversary.RoundRobin{}, seed, 0)
		if !res.AllNonfaultyDecided() {
			t.Fatalf("seed=%d: not all decided", seed)
		}
		if err := trace.CheckAgreement(res.Outcomes()); err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		if err := trace.CheckAgreementValidity(initial, res.Outcomes()); err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		for p, m := range ams {
			if m.Violation() != nil {
				t.Fatalf("seed=%d: proc %d fault-model violation: %v", seed, p, m.Violation())
			}
		}
	}
}

func TestLemma3DecisionsWithinOneStage(t *testing.T) {
	// Lemma 3: if some processor decides v at stage s, every nonfaulty
	// processor decides v by stage s+1.
	for seed := uint64(0); seed < 40; seed++ {
		initial := vals(1, 0, 1, 0, 1, 0, 1)
		adv := &adversary.Random{Rand: rng.NewStream(seed * 31)}
		res, ams := runAgreement(t, initial, sharedCoins(seed, 7), adv, seed, 0)
		if !res.AllNonfaultyDecided() {
			t.Fatalf("seed=%d: not all decided", seed)
		}
		minStage, maxStage := 1<<30, 0
		for _, m := range ams {
			ds := m.DecidedStage()
			if ds == 0 {
				t.Fatalf("seed=%d: machine decided per result but DecidedStage=0", seed)
			}
			if ds < minStage {
				minStage = ds
			}
			if ds > maxStage {
				maxStage = ds
			}
		}
		if maxStage > minStage+1 {
			t.Fatalf("seed=%d: decisions at stages [%d, %d], violates Lemma 3", seed, minStage, maxStage)
		}
	}
}

func TestAgreementWithCrashes(t *testing.T) {
	n := 7 // t = 3
	for f := 1; f <= 3; f++ {
		var plan []adversary.CrashPlan
		for i := 0; i < f; i++ {
			plan = append(plan, adversary.CrashPlan{Proc: types.ProcID(i), AtClock: 2 + i})
		}
		adv := &adversary.Crash{Inner: &adversary.RoundRobin{}, Plan: plan}
		initial := vals(0, 1, 1, 0, 1, 0, 1)
		res, _ := runAgreement(t, initial, sharedCoins(uint64(f), n), adv, uint64(f)*77, 0)
		if !res.AllNonfaultyDecided() {
			t.Fatalf("f=%d: nonfaulty did not decide", f)
		}
		if err := trace.CheckAgreement(res.Outcomes()); err != nil {
			t.Fatalf("f=%d: %v", f, err)
		}
	}
}

func TestLemma8ConstantExpectedStages(t *testing.T) {
	// Lemma 8: with |coins| >= n, all processors decide in < 4 expected
	// stages. We average over seeds under chaotic scheduling and allow a
	// generous margin (the bound is 4; benign schedules do much better).
	const runs = 60
	for _, n := range []int{3, 5, 9} {
		total := 0
		for seed := uint64(0); seed < runs; seed++ {
			initial := make([]types.Value, n)
			for i := range initial {
				initial[i] = types.Value(int(seed+uint64(i)) % 2)
			}
			adv := &adversary.Random{Rand: rng.NewStream(seed*131 + uint64(n))}
			res, ams := runAgreement(t, initial, sharedCoins(seed+99, n), adv, seed, 0)
			if !res.AllNonfaultyDecided() {
				t.Fatalf("n=%d seed=%d: not all decided", n, seed)
			}
			maxStage := 0
			for _, m := range ams {
				if s := m.DecidedStage(); s > maxStage {
					maxStage = s
				}
			}
			total += maxStage
		}
		mean := float64(total) / runs
		if mean >= 4.0 {
			t.Errorf("n=%d: mean decision stage %.2f, want < 4 (Lemma 8)", n, mean)
		}
	}
}

func TestStrictPaperModeUnanimousStillTerminates(t *testing.T) {
	// With the gadget disabled (the protocol exactly as printed),
	// unanimous runs still terminate: everyone decides at stage 1 and
	// returns at stage 2 simultaneously.
	n := 5
	initial := make([]types.Value, n)
	for i := range initial {
		initial[i] = types.V1
	}
	machines := make([]types.Machine, n)
	for i := 0; i < n; i++ {
		m, err := agreement.New(agreement.Config{
			ID: types.ProcID(i), N: n, T: 2, Initial: types.V1,
			Coins: agreement.ListCoin{Coins: sharedCoins(5, n)}, Gadget: false,
		})
		if err != nil {
			t.Fatal(err)
		}
		machines[i] = m
	}
	res, err := sim.Run(sim.Config{
		K: 2, Machines: machines, Adversary: &adversary.RoundRobin{},
		Seeds: rng.NewCollection(3, n), Stop: sim.StopWhenHalted, Record: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exhausted {
		t.Fatalf("strict-paper unanimous run did not quiesce")
	}
	for p := 0; p < n; p++ {
		if res.Values[p] != types.V1 {
			t.Fatalf("proc %d decided %v", p, res.Values[p])
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []agreement.Config{
		{ID: 0, N: 0, T: 0, Initial: types.V0, Coins: agreement.LocalCoin{}},
		{ID: 0, N: 4, T: 2, Initial: types.V0, Coins: agreement.LocalCoin{}},
		{ID: 4, N: 3, T: 1, Initial: types.V0, Coins: agreement.LocalCoin{}},
		{ID: 0, N: 3, T: 1, Initial: 3, Coins: agreement.LocalCoin{}},
		{ID: 0, N: 3, T: 1, Initial: types.V0, Coins: nil},
		{ID: 0, N: 3, T: -1, Initial: types.V0, Coins: agreement.LocalCoin{}},
	}
	for i, cfg := range bad {
		if _, err := agreement.New(cfg); err == nil {
			t.Errorf("config %d: expected error", i)
		}
	}
}

func TestCoinSources(t *testing.T) {
	st := rng.NewStream(1)
	list := agreement.ListCoin{Coins: vals(1, 0, 1)}
	if got := list.Coin(1, st); got != types.V1 {
		t.Errorf("list coin stage 1 = %v, want 1", got)
	}
	if got := list.Coin(3, st); got != types.V1 {
		t.Errorf("list coin stage 3 = %v, want 1", got)
	}
	// Beyond the list: falls back to local flips; just confirm validity.
	if got := list.Coin(4, st); !got.Valid() {
		t.Errorf("fallback coin invalid: %v", got)
	}
	if got := (agreement.LocalCoin{}).Coin(1, st); !got.Valid() {
		t.Errorf("local coin invalid: %v", got)
	}
	if (agreement.LocalCoin{}).Name() == list.Name() {
		t.Errorf("coin source names must differ")
	}
}

func TestSnapshotDeterminismAndSensitivity(t *testing.T) {
	mk := func() *agreement.Machine {
		m, err := agreement.New(agreement.Config{
			ID: 1, N: 3, T: 1, Initial: types.V1,
			Coins: agreement.ListCoin{Coins: vals(0, 1, 0)}, Gadget: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := mk(), mk()
	if !bytes.Equal(a.Snapshot(), b.Snapshot()) {
		t.Fatalf("fresh identical machines produced different snapshots")
	}
	// Step both identically: snapshots must stay equal.
	sa, sb := rng.NewStream(9), rng.NewStream(9)
	msg := types.Message{From: 0, To: 1, Payload: agreement.ReportMsg{Stage: 1, Val: types.V0}}
	a.Step([]types.Message{msg}, sa)
	b.Step([]types.Message{msg}, sb)
	if !bytes.Equal(a.Snapshot(), b.Snapshot()) {
		t.Fatalf("identically-stepped machines diverged")
	}
	// Different input: snapshots must differ.
	b.Step([]types.Message{{From: 2, To: 1, Payload: agreement.ReportMsg{Stage: 1, Val: types.V1}}}, sb)
	if bytes.Equal(a.Snapshot(), b.Snapshot()) {
		t.Fatalf("different histories produced equal snapshots")
	}
}

func TestPayloadKindsAndStrings(t *testing.T) {
	cases := []struct {
		p    types.Payload
		kind string
		str  string
	}{
		{agreement.ReportMsg{Stage: 2, Val: types.V1}, "ag.report", "(1,2,1)"},
		{agreement.ProposalMsg{Stage: 3, Val: types.V0}, "ag.proposal", "(2,3,0)"},
		{agreement.ProposalMsg{Stage: 3, Bot: true}, "ag.proposal", "(2,3,⊥)"},
		{agreement.DecidedMsg{Val: types.V1}, "ag.decided", "DECIDED(1)"},
	}
	for _, c := range cases {
		if c.p.Kind() != c.kind {
			t.Errorf("kind of %#v = %q, want %q", c.p, c.p.Kind(), c.kind)
		}
		if s, ok := c.p.(interface{ String() string }); !ok || s.String() != c.str {
			t.Errorf("string of %#v = %q, want %q", c.p, s.String(), c.str)
		}
	}
}

// TestQuickAgreementInvariants drives randomized configurations through
// random fair adversaries and asserts the agreement problem's conditions
// plus the absence of fault-model violations (Lemma 2's premise).
func TestQuickAgreementInvariants(t *testing.T) {
	f := func(seed uint64, nRaw uint8, bits uint16, useShared bool) bool {
		n := 3 + int(nRaw)%7 // 3..9
		initial := make([]types.Value, n)
		for i := range initial {
			initial[i] = types.Value((bits >> uint(i)) & 1)
		}
		var coins []types.Value
		if useShared {
			coins = sharedCoins(seed, n)
		}
		faults := (n - 1) / 2
		machines := make([]types.Machine, n)
		ams := make([]*agreement.Machine, n)
		for i := 0; i < n; i++ {
			var src agreement.CoinSource
			if coins != nil {
				src = agreement.ListCoin{Coins: coins}
			} else {
				src = agreement.LocalCoin{}
			}
			m, err := agreement.New(agreement.Config{
				ID: types.ProcID(i), N: n, T: faults,
				Initial: initial[i], Coins: src, Gadget: true,
			})
			if err != nil {
				return false
			}
			machines[i] = m
			ams[i] = m
		}
		res, err := sim.Run(sim.Config{
			K: 2, Machines: machines,
			Adversary: &adversary.Random{Rand: rng.NewStream(seed ^ 0xabcdef)},
			Seeds:     rng.NewCollection(seed, n),
			MaxSteps:  100_000,
		})
		if err != nil || !res.AllNonfaultyDecided() {
			return false
		}
		if trace.CheckAgreement(res.Outcomes()) != nil {
			return false
		}
		if trace.CheckAgreementValidity(initial, res.Outcomes()) != nil {
			return false
		}
		for _, m := range ams {
			if m.Violation() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
