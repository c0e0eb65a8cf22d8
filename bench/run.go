package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/service"
	"repro/internal/types"
	"repro/internal/wal"
)

// env is one invocation's working state: where the module is, where the
// run tree goes, and the daemon binary once built.
type env struct {
	root    string // module root (holds go.mod and cmd/commitd)
	out     string // run tree: bench/out/<stamp>
	commitd string // built daemon, "" until buildCommitd
	dirs    int
	spawned []*daemon
}

// reap kills any daemon an error path left running, so the program never
// exits with a child alive.
func (e *env) reap() {
	for _, d := range e.spawned {
		d.kill() //nolint:errcheck // no-op for the ones already waited for
	}
}

func (e *env) freshDir() (string, error) {
	e.dirs++
	dir := filepath.Join(e.out, "wal", strconv.Itoa(e.dirs))
	return dir, os.MkdirAll(dir, 0o755)
}

// buildCommitd compiles the real daemon from this checkout's source. Its
// time is not part of any metric.
func (e *env) buildCommitd() error {
	if e.commitd != "" {
		return nil
	}
	bin := filepath.Join(e.root, "bench", "out", "bin", "commitd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/commitd")
	cmd.Dir = e.root
	if outp, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building commitd: %v\n%s", err, outp)
	}
	e.commitd = bin
	return nil
}

// pass is one measured run of one workload.
type pass struct {
	w      workload
	seed   int64
	window time.Duration
	probe  *probe // non-nil: traced
	// inproc hosts an HTTP workload in this process instead of spawning
	// the daemon (the traced run's twins).
	inproc bool
	// setups is how many fresh deployments are brought up and warmed; the
	// last one is then measured and setup_s is the median over all.
	setups int
	// tail, on a closed loop, follows the window with a node crash, a
	// kill and a reopen, so the fault metrics exist on every workload.
	tail bool
}

// slice is one part of a measured window.
type slice struct {
	from, to time.Duration // since the load's start
	cpu      time.Duration
}

const (
	sliceLen   = time.Second            // closed-loop slice length
	tailStall  = 500 * time.Millisecond // load kept up after the tail's node crash
	sweepLimit = 2000                   // most recent acked ids re-checked against /status
	stopGrace  = 3 * time.Second
)

// passResult is everything one pass observed, before it is reduced to
// named metrics.
type passResult struct {
	setupS []float64
	window []sample // requests answered inside the measured window
	winDur time.Duration
	// slices cut the window into equal parts (one per fault cycle in the
	// open loop), each with the CPU the process under test used in it;
	// throughput and CPU per transaction are medians over them, so one
	// disturbed second does not move the run's number.
	slices   []slice
	stallMs  []float64 // per node crash: worst due-to-reply time just after it
	outageMs []float64 // per restart: kill to first acked reply
	lateMs   []float64 // open loop: how late each send began
	unsent   int       // open loop: requests the generator never got to

	wrong       int // COMMIT despite a dissenting vote, or two answers for one id
	ackedLost   int // acked decisions missing or contradicted by status after restart
	syncCutLost int // acked decisions absent from the synced-prefix copy of the journal
	swept       int
	violations  float64 // the service's own safety_violations counter
	discarded   int64   // unsynced bytes the crash copies dropped

	delta      promSnapshot      // registry counters over the window
	end        promSnapshot      // registry at window end (gauges)
	from, to   probeMark         // probe counters bracketing the window
	rescues    float64           // orphan rescues, the tail's included
	wchar      int64             // bytes this process wrote over the window (/proc/self/io)
	groups     []service.Metrics // service-layer snapshot at window end, one per group
	stagesFrom time.Duration     // requests due from here on are the ones groups' stage samples cover
	rssMB      float64
	goroutines int
}

func (e *env) start(c pass, dir string) (stack, error) {
	if !c.w.http || c.inproc {
		return startInproc(c.w, c.seed, dir, c.probe)
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	return e.spawn(c, port, dir, true)
}

func (e *env) spawn(c pass, port int, dir string, await bool) (stack, error) {
	d, err := spawnDaemon(e.commitd, c.w, c.seed, port, dir, filepath.Join(e.out, "raw", c.w.name+".commitd.log"))
	if err != nil {
		return nil, err
	}
	e.spawned = append(e.spawned, d)
	if await {
		if err := d.awaitReady(10 * time.Second); err != nil {
			d.kill() //nolint:errcheck // already failing
			return nil, err
		}
	}
	return d, nil
}

// measure brings the workload's deployment up c.setups times from fresh
// state, warming each with a fixed number of transactions, then measures
// the last one.
func (e *env) measure(c pass) (*passResult, error) {
	res := &passResult{}
	var st stack
	var l *load
	var dir string
	for i := 0; i < c.setups; i++ {
		var err error
		if dir, err = e.freshDir(); err != nil {
			return nil, err
		}
		begin := time.Now()
		if st, err = e.start(c, dir); err != nil {
			return nil, err
		}
		l = newLoad(c.w, st, c.probe, c.w.warmup)
		l.closed(c.seed)
		select {
		case <-l.warmAt:
		case <-time.After(60 * time.Second):
			l.stop(stopGrace)
			st.kill() //nolint:errcheck // already failing
			return nil, fmt.Errorf("%s: warm-up of %d transactions did not finish in 60s", c.w.name, c.w.warmup)
		}
		res.setupS = append(res.setupS, time.Since(begin).Seconds())
		last := i == c.setups-1
		if !last || c.w.open {
			l.stop(stopGrace)
		}
		if !last {
			if err := st.close(); err != nil {
				return nil, fmt.Errorf("%s: closing set-up %d: %w", c.w.name, i, err)
			}
		}
	}
	if c.w.open {
		return res, e.openWindow(c, res, st, dir)
	}
	return res, e.closedWindow(c, res, st, l, dir)
}

// closedWindow measures a closed loop that is already warm.
func (e *env) closedWindow(c pass, res *passResult, st stack, l *load, dir string) error {
	t0 := l.since()
	cpu0, err := st.cpuTime()
	if err != nil {
		return err
	}
	before, err := st.scrape()
	if err != nil {
		return err
	}
	res.from, res.wchar = c.probe.mark(), -selfWchar()
	t1 := t0
	for t1-t0 < c.window {
		time.Sleep(min(sliceLen, c.window-(t1-t0)))
		now := l.since()
		cpu1, _ := st.cpuTime()
		res.slices = append(res.slices, slice{from: t1, to: now, cpu: cpu1 - cpu0})
		t1, cpu0 = now, cpu1
	}
	res.to, res.wchar = c.probe.mark(), res.wchar+selfWchar()
	after, err := st.scrape()
	if err != nil {
		return err
	}
	res.winDur, res.delta, res.end = t1-t0, after.sub(before), after
	res.observeProcess(st)

	var crashAt time.Duration
	if c.tail {
		if err := st.crash(0); err != nil {
			return err
		}
		crashAt = l.since()
		time.Sleep(tailStall)
	}
	all := l.stop(stopGrace)
	for i := range all {
		if s := &all[i]; s.done >= t0 && s.done < t1 {
			res.window = append(res.window, *s)
		}
	}
	if c.tail {
		res.stallMs = append(res.stallMs, worstLatencyMs(all, crashAt, crashAt+tailStall))
	}
	res.sweep(st, all, -1)
	if end, err := st.scrape(); err == nil {
		res.violations = end.sum("service_safety_violations_total")
		res.rescues = end.sum("service_rescues_total") - before.sum("service_rescues_total")
	}
	if !c.tail {
		return st.close()
	}

	killAt := time.Now()
	st, _, err = e.restart(c, res, st, dir, true)
	if err != nil {
		return err
	}
	first := request{ID: "tail-" + strconv.FormatInt(c.seed, 10)}
	for {
		ans, err := st.submit(context.Background(), first)
		if err == nil && (ans.state == service.StateCommit || ans.state == service.StateAbort) {
			break
		}
		if time.Since(killAt) > 10*time.Second {
			st.kill() //nolint:errcheck // already failing
			return fmt.Errorf("%s: no acked reply within 10s of the restart", c.w.name)
		}
		time.Sleep(time.Millisecond)
	}
	res.outageMs = append(res.outageMs, float64(time.Since(killAt))/1e6)
	res.sweep(st, all, l.since())
	return st.close()
}

// restart kills the deployment and brings up its successor on what a
// crash would have left: the same directory after a SIGKILL, or — when
// the filesystem decorator is in place — a new directory holding only
// the synced prefix of every file.
func (e *env) restart(c pass, res *passResult, st stack, dir string, await bool) (stack, string, error) {
	st.kill() //nolint:errcheck // abrupt by design; errors are the dying deployment's
	switch old := st.(type) {
	case *daemon:
		next, err := e.spawn(c, old.port, dir, await)
		return next, dir, err
	case *inproc:
		if old.fs != nil {
			copyDir, err := e.freshDir()
			if err != nil {
				return nil, dir, err
			}
			discarded, err := old.fs.crashCopy(wal.DirFS(copyDir))
			if err != nil {
				return nil, dir, err
			}
			res.discarded += discarded
			dir = copyDir
		}
	}
	next, err := startInproc(c.w, c.seed, dir, c.probe)
	return next, dir, err
}

// openWindow runs the open loop through faultCycles incarnations of the
// deployment on one journal: in each, node 0 (a coordinator; within t)
// is crashed at 40% of the cycle and the whole deployment is killed at
// its end and restarted at once. Requests keep their schedule throughout.
func (e *env) openWindow(c pass, res *passResult, st stack, dir string) error {
	cycle := c.window / faultCycles
	stallWin := min(time.Second, cycle/2)
	total := int(c.window * openRate / time.Second)
	const lead = 20 * time.Millisecond
	l := newLoad(c.w, st, c.probe, 0)
	l.open(c.seed, openRate, total, lead)
	sleepUntil := func(t time.Duration) { time.Sleep(t - l.since()) }

	var crashAt, killAt []time.Duration
	res.delta = promSnapshot{}
	res.from, res.wchar = c.probe.mark(), -selfWchar()
	for i := 0; i < faultCycles; i++ {
		cpu0, _ := st.cpuTime()
		before, _ := st.scrape()
		sleepUntil(lead + time.Duration(i)*cycle + cycle*2/5)
		if err := st.crash(0); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: crash in cycle %d: %v\n", c.w.name, i, err)
		}
		crashAt = append(crashAt, l.since())
		sleepUntil(lead + time.Duration(i+1)*cycle)
		if cpu1, err := st.cpuTime(); err == nil {
			res.slices = append(res.slices, slice{from: lead + time.Duration(i)*cycle, to: l.since(), cpu: cpu1 - cpu0})
		}
		if after, err := st.scrape(); err == nil {
			res.violations += after.sum("service_safety_violations_total")
			res.rescues += after.sum("service_rescues_total")
			res.end = after
			if before != nil { // nil for a daemon still starting when the cycle began
				res.delta = res.delta.add(after.sub(before))
			}
		}
		if i == faultCycles-1 {
			// The last incarnation's service holds only its own requests'
			// stage samples: that is the population they are compared on.
			res.observeProcess(st)
			res.stagesFrom = killAt[i-1]
		}
		killAt = append(killAt, l.since())
		var err error
		if st, dir, err = e.restart(c, res, st, dir, false); err != nil {
			l.stop(stopGrace)
			return err
		}
		l.cur.Store(stackRef{st})
	}
	all := l.wait(stopGrace)
	res.to, res.wchar = c.probe.mark(), res.wchar+selfWchar()
	res.window, res.unsent = all, total-len(all)
	// The open loop's window is however long the offered load took to
	// answer: its schedule plus whatever backlog the last outage left.
	res.winDur = c.window
	if n := len(all); n > 0 {
		last := all[0].done
		for i := range all {
			last = max(last, all[i].done)
		}
		res.winDur = last - lead
	}
	for _, s := range all {
		res.lateMs = append(res.lateMs, float64(s.sent-s.due)/1e6)
	}
	for i := range crashAt {
		res.stallMs = append(res.stallMs, worstLatencyMs(all, crashAt[i], crashAt[i]+stallWin))
		// The restart after the last kill serves no scheduled load.
		if i < faultCycles-1 {
			if ms, ok := firstAckAfterMs(all, killAt[i]); ok {
				res.outageMs = append(res.outageMs, ms)
			}
		}
	}
	if d, ok := st.(*daemon); ok {
		if err := d.awaitReady(10 * time.Second); err != nil {
			d.kill() //nolint:errcheck // already failing
			return err
		}
	}
	res.sweep(st, all, killAt[faultCycles-1])
	return st.close()
}

// observeProcess records, at the end of a window, the process gauges and
// (in-process) the service layer's own snapshot.
func (res *passResult) observeProcess(st stack) {
	pid := os.Getpid()
	switch s := st.(type) {
	case *daemon:
		pid = s.cmd.Process.Pid
	case *inproc:
		res.groups = s.groupMetrics()
	}
	res.rssMB = rssPeakMB(pid)
	res.goroutines = runtime.NumGoroutine()
}

// sweep re-reads the status of the most recent acked transactions and
// compares it with the answer the client holds. On the deployment that
// gave the answers (lastKill < 0) a mismatch is a wrong answer: two
// answers for one id. On its successor a missing or different status is
// an acked decision lost, and with the filesystem decorator in place
// every decision acked before lastKill must also be in the journal the
// successor recovered from the synced-prefix copy.
func (res *passResult) sweep(st stack, all []sample, lastKill time.Duration) {
	afterRestart := lastKill >= 0
	in, _ := st.(*inproc)
	if afterRestart && in != nil && in.coord != nil {
		return // a sharded deployment without group journals keeps no status across restarts
	}
	checked := 0
	for i := len(all) - 1; i >= 0 && checked < sweepLimit; i-- {
		s := &all[i]
		if !s.acked() {
			continue
		}
		checked++
		got, ok, err := st.status(s.req.ID)
		switch {
		case err != nil || (ok && got == s.state):
		case afterRestart:
			res.ackedLost++
		case ok && got.Terminal():
			res.wrong++
		}
		if afterRestart && in != nil && in.fs != nil && s.done < lastKill {
			d, ok := in.journal.Recovered()[s.req.ID]
			want := types.DecisionAbort
			if s.state == service.StateCommit {
				want = types.DecisionCommit
			}
			if !ok || d != want {
				res.syncCutLost++
			}
		}
	}
	res.swept += checked
}

// worstLatencyMs is the largest due-to-reply time among requests due in
// [from, to).
func worstLatencyMs(all []sample, from, to time.Duration) float64 {
	worst := 0.0
	for i := range all {
		if s := &all[i]; s.due >= from && s.due < to {
			worst = max(worst, float64(s.latency())/1e6)
		}
	}
	return worst
}

// firstAckAfterMs is the time from t to the first acked reply after it.
func firstAckAfterMs(all []sample, t time.Duration) (float64, bool) {
	first := time.Duration(-1)
	for i := range all {
		if s := &all[i]; s.acked() && s.done > t && (first < 0 || s.done < first) {
			first = s.done
		}
	}
	return float64(first-t) / 1e6, first >= 0
}

// selfWchar is the bytes this process has passed to write calls
// (/proc/self/io wchar). In a twin with no sockets it is journal bytes.
func selfWchar() int64 {
	n, _ := strconv.ParseInt(procValue("/proc/self/io", "wchar"), 10, 64) // 0 when unreadable
	return n
}

// rssPeakMB reads VmHWM (peak resident set) of pid from /proc.
func rssPeakMB(pid int) float64 {
	v := procValue("/proc/"+strconv.Itoa(pid)+"/status", "VmHWM")
	kb, _ := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64) // 0 when unreadable
	return kb / 1024
}

// procValue is the text after "key:" on the first such line of a /proc
// file, "" when the file or the line is missing.
func procValue(path, key string) string {
	raw, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// findRoot walks up from the working directory to the module root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "commitd")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: not inside the repository (no go.mod with cmd/commitd above the working directory)")
		}
		dir = parent
	}
}
