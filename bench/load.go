package main

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
)

// sample is the client-side record of one request.
type sample struct {
	req request
	// due is when the request was due (open loop) or sent (closed loop),
	// done when its answer arrived; both since the load's start.
	due, done time.Duration
	// sent is when the generator actually began sending; sent-due is how
	// late it ran.
	sent  time.Duration
	state service.State // "" when no answer ever arrived
	svc   time.Duration // the service's own latency, when it reported one
	// handler is the server-side handler span and overhead the round trip
	// minus it (traced HTTP twins only).
	handler, overhead time.Duration
}

func (s *sample) latency() time.Duration { return s.done - s.due }

// acked reports whether the client holds a durable COMMIT/ABORT.
func (s *sample) acked() bool {
	return s.state == service.StateCommit || s.state == service.StateAbort
}

// failed is the fail_share numerator: no answer, TIMEOUT, FAILED, or an
// answer later than lateAfter. Only the first three count as failed in
// the result line (outcome.failed); a late answer is still an answer.
func (s *sample) failed() bool { return !s.acked() || s.latency() > lateAfter }

// wrong is a Theorem 11 violation seen from outside: COMMIT on a
// transaction that carried a dissenting vote.
func (s *sample) wrong() bool { return s.req.Dissent && s.state == service.StateCommit }

// load is a running load generator. The stack is read through cur on
// every attempt, so the orchestrator can swap a restarted deployment in
// underneath the callers.
type load struct {
	w     workload
	p     *probe // nil unless traced
	cur   *atomic.Value
	t0    time.Time
	retry bool // resend a request that got no answer (open loop)

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	halt   atomic.Bool
	count  atomic.Int64  // answers so far
	warmAt chan struct{} // closed when count reaches warmN
	warmN  int64

	mu      sync.Mutex
	samples []sample
}

// stackRef boxes a stack so atomic.Value always sees one concrete type.
type stackRef struct{ stack }

func newLoad(w workload, st stack, p *probe, warmN int) *load {
	l := &load{w: w, p: p, cur: new(atomic.Value), t0: time.Now(),
		warmAt: make(chan struct{}), warmN: int64(warmN)}
	l.cur.Store(stackRef{st})
	l.ctx, l.cancel = context.WithCancel(context.Background())
	if warmN <= 0 {
		close(l.warmAt)
	}
	return l
}

func (l *load) since() time.Duration { return time.Since(l.t0) }

// one sends a request (resending while there is no answer, if retrying)
// and records its sample.
func (l *load) one(r request, due time.Duration) {
	s := sample{req: r, due: due, sent: l.since()}
	for {
		st := l.cur.Load().(stackRef).stack
		start := time.Now()
		ans, err := st.submit(l.ctx, r)
		end := time.Now()
		if err == nil {
			s.state, s.svc, s.done = ans.state, ans.svcLatency, end.Sub(l.t0)
			if l.p != nil {
				l.trace(&s, start, end)
			}
			break
		}
		// The pause keeps callers of a dead deployment from spinning.
		time.Sleep(2 * time.Millisecond)
		if !l.retry || l.halt.Load() || l.ctx.Err() != nil {
			s.done = l.since()
			break
		}
	}
	l.mu.Lock()
	l.samples = append(l.samples, s)
	l.mu.Unlock()
	if l.count.Add(1) == l.warmN {
		close(l.warmAt)
	}
}

// trace records the request's spans: the caller's span as the root and,
// behind HTTP, the server-side handler span as its child.
func (l *load) trace(s *sample, start, end time.Time) {
	layer, name := "service", "Submit"
	switch {
	case l.w.http:
		layer, name = "http", "POST /commit"
	case l.w.sharded:
		layer, name = "shard", "Coordinator.Submit"
	}
	root := l.p.span(0, s.req.ID, layer, name, start, end)
	if v, ok := l.p.handled.LoadAndDelete(s.req.ID); ok {
		h := v.([2]int64)
		l.p.span(root, s.req.ID, "service", "handler", l.p.t0.Add(time.Duration(h[0])*time.Microsecond),
			l.p.t0.Add(time.Duration(h[1])*time.Microsecond))
		s.handler = time.Duration(h[1]-h[0]) * time.Microsecond
		s.overhead = end.Sub(start) - s.handler
	}
}

// closed starts the closed loop: each caller sends its next request only
// after the reply to the previous one.
func (l *load) closed(seed int64) {
	for c := 0; c < l.w.callers; c++ {
		st := newStream(l.w, seed, c)
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			for !l.halt.Load() {
				l.one(st.next(), l.since())
			}
		}()
	}
}

// open starts the open loop: total requests, one due every 1/rate from
// start, sent on schedule whatever the system is doing. Each is timed
// from its due instant, so a stall is billed to every request it delays.
func (l *load) open(seed int64, rate, total int, start time.Duration) {
	l.retry = true
	// A caller number no closed loop uses: the warm-up on the same journal
	// must not have spent these ids.
	st := newStream(l.w, seed, 1000)
	reqs := make([]request, total)
	for i := range reqs {
		reqs[i] = st.next()
	}
	var next atomic.Int64
	for c := 0; c < l.w.callers; c++ {
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= total || l.halt.Load() {
					return
				}
				due := dueAt(start, rate, i)
				if wait := due - l.since(); wait > 0 {
					time.Sleep(wait)
				}
				l.one(reqs[i], due)
			}
		}()
	}
}

// dueAt is the open loop's schedule: request i of a rate-per-second
// stream beginning at start.
func dueAt(start time.Duration, rate, i int) time.Duration {
	return start + time.Duration(i)*time.Second/time.Duration(rate)
}

// stop ends the load, waits for the callers, and returns the samples in
// due order. Callers finish the request they are in; grace bounds how
// long that may take before their requests are cancelled.
func (l *load) stop(grace time.Duration) []sample {
	l.halt.Store(true)
	done := make(chan struct{})
	go func() { l.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(grace):
		l.cancel()
		<-done
	}
	l.cancel()
	l.mu.Lock()
	defer l.mu.Unlock()
	sort.Slice(l.samples, func(i, j int) bool { return l.samples[i].due < l.samples[j].due })
	return l.samples
}

// wait lets an open loop run out its schedule — for at most limit, in
// case the deployment never comes back — then stops it.
func (l *load) wait(limit time.Duration) []sample {
	done := make(chan struct{})
	go func() { l.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(limit):
	}
	return l.stop(time.Second)
}
