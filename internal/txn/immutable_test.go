package txn_test

import (
	"fmt"
	"testing"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/txn"
	"repro/internal/types"
)

// immutableSeeds are free-mode schedules (late and lost frames): eight
// plain ones, then four under which some processor runs a second Protocol
// 1 stage.
var immutableSeeds = []uint64{0, 1, 2, 3, 4, 5, 6, 7, 152, 401, 671, 750}

// TestEmittedFramesImmutableContentOblivious: a frame a manager has
// returned is never written again. Three managers run a width-3 batch with
// mixed votes and, begun while it runs, a width-1 batch, under the seeded
// scheduler. Every payload any Step or Deliver returned is kept beside a
// rendering taken when it was returned, and after every later Step or
// Deliver each must still render the same: a step buffer reused under a
// sent vector, a vote vector rewritten after it went out, or a decided
// vector its machine still writes shows up here. Received frames are the
// same payloads, so a manager writing into one shows up too.
func TestEmittedFramesImmutableContentOblivious(t *testing.T) {
	votes := map[txn.ID][]bool{
		"w1":   {true, true, true},
		"w3-0": {true, true, true},
		"w3-1": {true, false, true},
		"w3-2": {true, true, true},
	}
	stage2 := false
	for _, seed := range immutableSeeds {
		r := newSchedRun(t, seed, free, votes)
		type kept struct {
			payload types.Payload
			was     string
		}
		var sent []kept
		r.observe = func(p int, out []types.Message) {
			for _, k := range sent {
				if now := fmt.Sprintf("%#v", k.payload); now != k.was {
					t.Fatalf("seed %d: a sent payload changed after node %d's step:\nsent %s\nnow  %s", seed, p, k.was, now)
				}
			}
			last := ""
			for _, msg := range out {
				// A broadcast's frames share one payload; keep it once.
				if was := fmt.Sprintf("%#v", msg.Payload); was != last {
					sent = append(sent, kept{msg.Payload, was})
					last = was
				}
				stage2 = stage2 || reportsStage(msg.Payload, 2)
			}
		}

		if err := r.managers[0].BeginBatch("w3", []txn.ID{"w3-0", "w3-1", "w3-2"}, []bool{true, true, true}); err != nil {
			t.Fatal(err)
		}
		for ev := 0; ev < 1500; ev++ {
			if ev == 3 {
				if err := r.managers[1].Begin("w1", true); err != nil {
					t.Fatal(err)
				}
			}
			p := r.live()
			if len(r.arrived[p]) > 0 && r.sched.Intn(3) != 0 {
				r.deliver(p, false)
			} else {
				r.tick(p)
			}
			if ev > 3 && r.managers[0].Halted() && r.managers[1].Halted() && r.managers[2].Halted() {
				break
			}
		}
		if len(sent) == 0 {
			t.Fatalf("seed %d sent nothing", seed)
		}
	}
	if !stage2 {
		t.Error("no seed ran a second Protocol 1 stage")
	}
}

// reportsStage reports whether p is a batch frame carrying a Protocol 1
// report of stage s.
func reportsStage(p types.Payload, s int) bool {
	env, ok := p.(txn.BatchEnvelope)
	if !ok {
		return false
	}
	inner, _ := core.Unwrap(env.Inner)
	rep, ok := inner.(agreement.VecReportMsg)
	return ok && rep.Stage == s
}
