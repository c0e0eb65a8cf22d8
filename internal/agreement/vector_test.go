package agreement_test

import (
	"testing"

	"repro/internal/agreement"
	"repro/internal/rng"
	"repro/internal/types"
)

// stepVector drives n vector machines synchronously (full delivery each
// tick, crashed senders silent) until all live machines halt. It returns
// the machines for inspection.
func stepVector(t *testing.T, initials [][]types.Value, coins []types.Value, crashed map[int]bool) []*agreement.VectorMachine {
	t.Helper()
	n := len(initials)
	faults := (n - 1) / 2
	ms := make([]*agreement.VectorMachine, n)
	for i := range ms {
		m, err := agreement.NewVector(agreement.VectorConfig{
			ID: types.ProcID(i), N: n, T: faults,
			Initial: initials[i],
			Coins:   agreement.ListCoin{Coins: coins},
		})
		if err != nil {
			t.Fatalf("machine %d: %v", i, err)
		}
		ms[i] = m
	}
	seeds := rng.NewCollection(7, n)
	inboxes := make([][]types.Message, n)
	for tick := 0; tick < 200; tick++ {
		next := make([][]types.Message, n)
		live := 0
		for i, m := range ms {
			if crashed[i] || m.Halted() {
				continue
			}
			live++
			out := m.Step(inboxes[i], seeds.Stream(types.ProcID(i)))
			for _, msg := range out {
				if crashed[int(msg.To)] {
					continue
				}
				next[msg.To] = append(next[msg.To], msg)
			}
		}
		inboxes = next
		if live == 0 {
			return ms
		}
	}
	for i, m := range ms {
		if !crashed[i] && !m.Halted() {
			t.Fatalf("machine %d never halted", i)
		}
	}
	return ms
}

// TestVectorMatchesScalarProjection is the differential anchor: under
// synchronous delivery with one shared coin list, every element of the
// vector run must decide exactly what B independent scalar machines
// given the projected inputs decide.
func TestVectorMatchesScalarProjection(t *testing.T) {
	const n, b = 5, 16
	coins := rng.NewStream(3).Bits(4 * n)
	// Mixed per-element inputs: element e gets processor p's vote from a
	// deterministic pattern covering unanimous-1, unanimous-0, and splits.
	initials := make([][]types.Value, n)
	for p := range initials {
		initials[p] = make([]types.Value, b)
		for e := 0; e < b; e++ {
			switch e % 4 {
			case 0:
				initials[p][e] = types.V1
			case 1:
				initials[p][e] = types.V0
			case 2:
				initials[p][e] = types.Value((p + e) % 2)
			default:
				initials[p][e] = types.Value(p % 2)
			}
		}
	}
	ms := stepVector(t, initials, coins, nil)

	for e := 0; e < b; e++ {
		// Scalar reference run for element e: same coins, same synchronous
		// full-delivery schedule, so the projection argument is exact and
		// even split elements must land on the same value.
		scalar := make([]types.Value, n)
		for p := range scalar {
			scalar[p] = initials[p][e]
		}
		want := runScalarSync(t, scalar, coins)
		for p, m := range ms {
			got, ok := m.DecidedAt(e)
			if !ok {
				t.Fatalf("element %d: vector machine %d undecided", e, p)
			}
			if got != want {
				t.Errorf("element %d: vector machine %d decided %v, scalar reference %v", e, p, got, want)
			}
		}
	}
}

// runScalarSync drives n scalar machines under the same synchronous
// full-delivery schedule stepVector uses and returns the agreed value.
func runScalarSync(t *testing.T, initial []types.Value, coins []types.Value) types.Value {
	t.Helper()
	n := len(initial)
	ms := make([]*agreement.Machine, n)
	for i := range ms {
		m, err := agreement.New(agreement.Config{
			ID: types.ProcID(i), N: n, T: (n - 1) / 2,
			Initial: initial[i],
			Coins:   agreement.ListCoin{Coins: coins},
			Gadget:  true,
		})
		if err != nil {
			t.Fatalf("scalar machine %d: %v", i, err)
		}
		ms[i] = m
	}
	seeds := rng.NewCollection(7, n)
	inboxes := make([][]types.Message, n)
	for tick := 0; tick < 200; tick++ {
		next := make([][]types.Message, n)
		live := 0
		for i, m := range ms {
			if m.Halted() {
				continue
			}
			live++
			out := m.Step(inboxes[i], seeds.Stream(types.ProcID(i)))
			for _, msg := range out {
				next[msg.To] = append(next[msg.To], msg)
			}
		}
		inboxes = next
		if live == 0 {
			break
		}
	}
	v, ok := ms[0].Decision()
	if !ok {
		t.Fatal("scalar reference did not decide")
	}
	return v
}

// TestVectorValidityAndAgreementUnderCrashes checks the Theorem 11
// conditions per element with t processors crashed from the start:
// unanimous elements keep their value, and all live machines agree on
// every element.
func TestVectorValidityAndAgreementUnderCrashes(t *testing.T) {
	const n, b = 5, 8
	coins := rng.NewStream(11).Bits(4 * n)
	crashed := map[int]bool{1: true, 3: true} // t = 2
	initials := make([][]types.Value, n)
	for p := range initials {
		initials[p] = make([]types.Value, b)
		for e := 0; e < b; e++ {
			switch {
			case e < 2:
				initials[p][e] = types.V1 // unanimous commit
			case e < 4:
				initials[p][e] = types.V0 // unanimous abort
			default:
				initials[p][e] = types.Value((p + e) % 2)
			}
		}
	}
	ms := stepVector(t, initials, coins, crashed)
	for e := 0; e < b; e++ {
		var want types.Value
		first := true
		for p, m := range ms {
			if crashed[p] {
				continue
			}
			got, ok := m.DecidedAt(e)
			if !ok {
				t.Fatalf("element %d: machine %d undecided", e, p)
			}
			if first {
				want, first = got, false
			} else if got != want {
				t.Errorf("element %d: machine %d decided %v, machine 0 decided %v", e, p, got, want)
			}
			if m.Violation() != nil {
				t.Errorf("machine %d violation: %v", p, m.Violation())
			}
		}
		if e < 2 && want != types.V1 {
			t.Errorf("element %d: unanimous V1 decided %v", e, want)
		}
		if e >= 2 && e < 4 && want != types.V0 {
			t.Errorf("element %d: unanimous V0 decided %v", e, want)
		}
	}
}

// TestVectorIgnoresMismatchedWidths: a vector of the wrong width must
// not count toward any wait (it carries no evidence for the batch).
func TestVectorIgnoresMismatchedWidths(t *testing.T) {
	m, err := agreement.NewVector(agreement.VectorConfig{
		ID: 0, N: 3, T: 1,
		Initial: []types.Value{types.V1, types.V1},
		Coins:   agreement.ListCoin{Coins: []types.Value{1, 1, 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rnd := rng.NewStream(1)
	m.Step(nil, rnd) // broadcasts (1,1,·)
	// Feed n−t = 2 reports of the WRONG width: must stay in the wait.
	bad := []types.Message{
		{From: 1, To: 0, Payload: agreement.VecReportMsg{Stage: 1, Vals: []types.Value{1}}},
		{From: 2, To: 0, Payload: agreement.VecReportMsg{Stage: 1, Vals: []types.Value{1, 1, 1}}},
	}
	out := m.Step(bad, rnd)
	if len(out) != 0 {
		t.Fatalf("mismatched-width reports advanced the machine: %d sends", len(out))
	}
	if s, _ := m.DecidedAt(0); m.DecidedCount() != 0 {
		t.Fatalf("decided %v from garbage widths", s)
	}
}

// TestVectorGadgetAdoption: a machine that receives a DECIDED vector
// adopts it wholesale and halts, relaying once.
func TestVectorGadgetAdoption(t *testing.T) {
	m, err := agreement.NewVector(agreement.VectorConfig{
		ID: 0, N: 3, T: 1,
		Initial: []types.Value{types.V0, types.V1, types.V0},
		Coins:   agreement.ListCoin{Coins: []types.Value{1, 1, 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rnd := rng.NewStream(1)
	m.Step(nil, rnd)
	dec := []types.Value{types.V1, types.V1, types.V0}
	out := m.Step([]types.Message{
		{From: 2, To: 0, Payload: agreement.VecDecidedMsg{Vals: dec}},
	}, rnd)
	if !m.Halted() {
		t.Fatal("not halted after DECIDED adoption")
	}
	relayed := 0
	for _, msg := range out {
		if d, ok := msg.Payload.(agreement.VecDecidedMsg); ok {
			relayed++
			for i := range dec {
				if d.Vals[i] != dec[i] {
					t.Fatalf("relayed vector %v, adopted %v", d.Vals, dec)
				}
			}
		}
	}
	if relayed != 3 {
		t.Fatalf("DECIDED relayed to %d processors, want broadcast to 3", relayed)
	}
	for i, want := range dec {
		if got, ok := m.DecidedAt(i); !ok || got != want {
			t.Fatalf("element %d decided (%v,%v), want %v", i, got, ok, want)
		}
	}
}
