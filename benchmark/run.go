package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/tracelog"
)

// vmSpec is one VM of a workload's program.
type vmSpec struct {
	name string
	id   ids.DJVMID
	// djvm VMs record in the record phase and replay in the replay phase. The
	// others are plain (passthrough) VMs in the record phase and absent from
	// the replay, as the non-DJVM side of an open world is (paper §5).
	djvm  bool
	world ids.World
	order ids.OrderMode
}

// program is what one repetition runs three times: passthrough, record, and
// replay of that record's logs.
type program struct {
	specs  []vmSpec
	chaos  netsim.Chaos
	jitter int // core.Config.RecordJitter of every VM
	// start launches the program's threads on e's VMs and returns without
	// waiting. The function it returns is called once every VM has finished
	// and yields what the replay must reproduce.
	start func(e *phaseEnv) func() outcome
	// prepare, when set, runs after a phase's VMs are built and before start.
	prepare func(e *phaseEnv) error
	// extra, when set, runs after the replay has been checked, with the
	// record phase's result (kv-durable's crash points).
	extra func(rc *repCtx, rec *phaseResult)
}

// outcome holds, per VM, the digests a replay must reproduce: one per thread,
// then the VM's final state, then what its clients observed.
type outcome map[string][]uint64

// phaseEnv is what a program sees of the phase it is running in.
type phaseEnv struct {
	rc     *repCtx
	phase  phase
	net    *netsim.Network
	vms    map[string]*core.VM
	resume *checkpoint.Snapshot // non-nil in a replay resumed from a checkpoint

	failOnce sync.Once
	failed   chan struct{}
	err      error

	mu      sync.Mutex
	latency []float64 // client-side op latencies, us
	ops     int
	opFails int
	notes   map[string][]float64 // per-phase samples a program reports itself
}

// fail records the phase's first error and releases the driver, which counts
// the repetition as failed and abandons the phase's threads.
func (e *phaseEnv) fail(err error) {
	e.failOnce.Do(func() {
		e.err = err
		close(e.failed)
	})
}

// stop ends a thread on an error the system returned. A crash-point replay
// runs a log that ends mid-run: a call past its end either stops the thread
// (core) or reports that nothing was recorded for it (djsock), and both mean
// the thread is done. In every other phase such an error fails the phase.
func (e *phaseEnv) stop(err error) {
	if e.phase != phaseRecover {
		e.fail(err)
	}
}

func vmMode(vm *core.VM) phase {
	switch vm.Mode() {
	case ids.Record:
		return phaseRec
	case ids.Replay:
		return phaseRep
	}
	return phasePass
}

// thread wraps a program thread's function: it opens the thread's trace and
// turns a replay divergence (which core raises as a panic) into a failed
// repetition instead of a dead process.
func (e *phaseEnv) thread(vm, label string, fn func(t *core.Thread, tt *threadTrace)) func(*core.Thread) {
	return func(t *core.Thread) {
		tt := e.rc.tr.thread(threadInfo{rep: e.rc.idx, phase: e.phase, mode: vmMode(e.vms[vm]), vm: vm, label: label})
		defer tt.finish()
		defer e.recoverThread()
		fn(t, tt)
	}
}

func (e *phaseEnv) recoverThread() {
	r := recover()
	if r == nil {
		return
	}
	if err, ok := r.(error); ok {
		e.fail(err)
		return
	}
	// core's private end-of-log signal under StopAtLogEnd: the VM absorbs it.
	panic(r)
}

// waitVMs closes done once every thread of every VM has returned.
func (e *phaseEnv) waitVMs(done chan<- struct{}) {
	for _, vm := range e.vms {
		vm.Wait()
	}
	close(done)
}

// wait returns when done closes, a thread fails, or the watchdog expires,
// whichever is first; in the last two cases the threads are abandoned.
func (e *phaseEnv) wait(done <-chan struct{}, limit time.Duration) error {
	timer := time.NewTimer(limit)
	defer timer.Stop()
	select {
	case <-done:
		select {
		case <-e.failed:
			return e.err
		default:
			return nil
		}
	case <-e.failed:
		return e.err
	case <-timer.C:
		return fmt.Errorf("%s phase %w of %v", phaseNames[e.phase], errWatchdog, limit)
	}
}

var errWatchdog = errors.New("exceeded the watchdog")

// dumpStacks writes every goroutine's stack next to the workload's other
// output, so a phase that hung, stalled or diverged leaves behind where.
func (rc *repCtx) dumpStacks(ph phase) {
	buf := make([]byte, 4<<20)
	buf = buf[:runtime.Stack(buf, true)]
	path := filepath.Join(rc.r.dir, fmt.Sprintf("failed-rep%d-%s.txt", rc.idx, phaseNames[ph]))
	if err := os.WriteFile(path, buf, 0o644); err == nil {
		rc.r.failures = append(rc.r.failures, "goroutine stacks of the failed phase: "+path)
	}
}

// addOps merges one client thread's measurements.
func (e *phaseEnv) addOps(latency []float64, ops, fails int) {
	e.mu.Lock()
	e.latency = append(e.latency, latency...)
	e.ops += ops
	e.opFails += fails
	e.mu.Unlock()
}

// note records one sample of a quantity only the program can see.
func (e *phaseEnv) note(name string, v float64) {
	e.mu.Lock()
	if e.notes == nil {
		e.notes = map[string][]float64{}
	}
	e.notes[name] = append(e.notes[name], v)
	e.mu.Unlock()
}

// phaseResult is what the driver reads off a finished phase.
type phaseResult struct {
	wall       time.Duration
	events     uint64 // critical events of all DJVMs
	snaps      map[string]obs.Snapshot
	logs       map[string]*tracelog.Set
	outcome    outcome
	latency    []float64
	ops        int
	opFails    int
	notes      map[string][]float64
	allocBytes uint64
}

// repCtx is one repetition.
type repCtx struct {
	r    *runner
	prog *program
	idx  int
	seed int64   // netsim seed: -seed + repetition index
	tr   *tracer // nil in an untraced repetition
	out  *repOut
}

// repOut is what a repetition contributes to the run.
type repOut struct {
	values     map[string]float64 // one sample per metric
	latency    []float64
	recoverMs  []float64
	ops        int
	opFails    int
	recoveries int
	recFails   int
	failure    string // why the repetition's replay counts as failed
	logs       map[string]*tracelog.Set
}

// modeFor is the mode a VM runs in during a phase; ok is false when the VM is
// absent from it.
func modeFor(spec vmSpec, ph phase) (mode ids.Mode, ok bool) {
	switch {
	case ph == phasePass:
		return ids.Passthrough, true
	case ph == phaseRec && spec.djvm:
		return ids.Record, true
	case ph == phaseRec:
		return ids.Passthrough, true
	case spec.djvm:
		return ids.Replay, true
	}
	return 0, false
}

// buildVMs constructs the VMs of one phase. logs supplies the recorded sets
// in the replay phases; resume, when set, starts the replay at a checkpoint
// and lets it stop at the end of a salvaged log.
func (rc *repCtx) buildVMs(ph phase, logs map[string]*tracelog.Set, resume *checkpoint.Snapshot, stopAtLogEnd bool) (map[string]*core.VM, error) {
	vms := map[string]*core.VM{}
	for _, spec := range rc.prog.specs {
		mode, ok := modeFor(spec, ph)
		if !ok {
			continue
		}
		cfg := core.Config{
			ID:           spec.id,
			Mode:         mode,
			World:        spec.world,
			OrderMode:    spec.order,
			RecordJitter: rc.prog.jitter,
		}
		if mode == ids.Replay {
			cfg.ReplayLogs = logs[spec.name]
			cfg.StallTimeout = rc.r.opt.watchdog / 2
			cfg.StopAtLogEnd = stopAtLogEnd
			if resume != nil {
				cfg = checkpoint.ResumeConfig(cfg, logs[spec.name], resume)
			}
		}
		vm, err := core.NewVM(cfg)
		if err != nil {
			return nil, fmt.Errorf("vm %s: %w", spec.name, err)
		}
		vms[spec.name] = vm
	}
	return vms, nil
}

// exec runs the program on the given VMs under the phase watchdog.
func (rc *repCtx) exec(ph phase, vms map[string]*core.VM, resume *checkpoint.Snapshot) (*phaseResult, error) {
	e := &phaseEnv{
		rc:     rc,
		phase:  ph,
		net:    netsim.NewNetwork(netsim.Config{Chaos: rc.prog.chaos, Seed: rc.seed}),
		vms:    vms,
		resume: resume,
		failed: make(chan struct{}),
	}
	if rc.prog.prepare != nil {
		if err := rc.prog.prepare(e); err != nil {
			return nil, err
		}
	}
	// The injected hang stands for a replay that never finishes: nothing
	// starts, so nothing ever reports done.
	hang := rc.r.opt.inject == "hang" && ph == phaseRep && rc.idx == 1
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var collect func() outcome
	done := make(chan struct{})
	if !hang {
		collect = rc.prog.start(e)
		go e.waitVMs(done)
	}
	if err := e.wait(done, rc.r.opt.watchdog); err != nil {
		rc.dumpStacks(ph)
		return nil, err
	}
	res := &phaseResult{wall: time.Since(start)}
	for _, vm := range vms {
		vm.Close()
	}
	runtime.ReadMemStats(&after)
	res.allocBytes = after.TotalAlloc - before.TotalAlloc
	res.snaps = map[string]obs.Snapshot{}
	res.logs = map[string]*tracelog.Set{}
	for _, spec := range rc.prog.specs {
		vm := vms[spec.name]
		if vm == nil || vm.Mode() == ids.Passthrough {
			continue
		}
		res.events += vm.Stats().CriticalEvents
		res.snaps[spec.name] = vm.Metrics().Snapshot()
		if logs := vm.Logs(); logs != nil {
			res.logs[spec.name] = logs
		}
	}
	res.outcome = collect()
	res.latency, res.ops, res.opFails, res.notes = e.latency, e.ops, e.opFails, e.notes
	return res, nil
}

// runPhase builds a phase's VMs and executes it.
func (rc *repCtx) runPhase(ph phase) (*phaseResult, error) {
	vms, err := rc.buildVMs(ph, nil, nil, false)
	if err != nil {
		return nil, err
	}
	return rc.exec(ph, vms, nil)
}

// driverThread opens the trace of the driver's own work in a repetition:
// saving, loading, indexing, recovering.
func (rc *repCtx) driverThread(ph phase) *threadTrace {
	return rc.tr.thread(threadInfo{rep: rc.idx, phase: ph, mode: ph, vm: "driver", label: "driver"})
}

// timed runs fn inside a driver span and adds its duration, in ms, to the
// repetition's sample of the named metric.
func (rc *repCtx) timed(tt *threadTrace, sp spanName, metric string, fn func() error) error {
	tt.begin(sp)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	tt.end()
	rc.out.values[metric] += ms(d)
	return err
}

// startReplay saves the recorded sets, loads them back and constructs the
// replay VMs: what a user pays between "the logs are on disk" and "replay is
// running" is the repetition's replay_startup_ms.
func (rc *repCtx) startReplay(rec *phaseResult) (map[string]*core.VM, error) {
	tt := rc.driverThread(phaseRep)
	defer tt.finish()
	dir := filepath.Join(rc.r.dir, "logs")
	defer os.RemoveAll(dir)
	err := rc.timed(tt, spSave, "tracelog.save_ms", func() error {
		for name, set := range rec.logs {
			d := filepath.Join(dir, name)
			if err := os.MkdirAll(d, 0o755); err != nil {
				return err
			}
			if err := set.Save(d); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	loaded := map[string]*tracelog.Set{}
	var vms map[string]*core.VM
	start := time.Now()
	err = rc.timed(tt, spLoad, "tracelog.load_ms", func() error {
		for name := range rec.logs {
			set, err := tracelog.LoadSet(filepath.Join(dir, name))
			if err != nil {
				return err
			}
			loaded[name] = set
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = rc.timed(tt, spNewVM, "core.newvm_replay_ms", func() (err error) {
		vms, err = rc.buildVMs(phaseRep, loaded, nil, false)
		return err
	})
	if err != nil {
		return nil, err
	}
	rc.out.values["replay_startup_ms"] = ms(time.Since(start))

	// NewVM builds the three indexes itself; building them once more here is
	// the only way to time each from outside. It just succeeded on these logs.
	for _, set := range loaded {
		rc.timed(tt, spIndexSchedule, "tracelog.index.schedule_ms", func() error { _, err := tracelog.BuildScheduleIndex(set.Schedule); return err })
		rc.timed(tt, spIndexNetwork, "tracelog.index.network_ms", func() error { _, err := tracelog.BuildNetworkIndex(set.Network); return err })
		rc.timed(tt, spIndexDatagram, "tracelog.index.datagram_ms", func() error { _, err := tracelog.BuildDatagramIndex(set.Datagram); return err })
	}
	return vms, nil
}

// sameOutcome reports the first difference between what the record run and
// the replay produced, or "".
func sameOutcome(rec, rep outcome) string {
	for vm, want := range rec {
		got, ok := rep[vm]
		if !ok {
			continue // a plain VM, absent from the replay
		}
		if len(got) != len(want) {
			return fmt.Sprintf("vm %s: replay produced %d digests, record %d", vm, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				return fmt.Sprintf("vm %s: digest %d differs: record %016x, replay %016x", vm, i, want[i], got[i])
			}
		}
	}
	return ""
}

// repetition runs the program three times and checks the replay. It never
// fails the process: whatever goes wrong is the repetition's failure reason.
func (r *runner) repetition(idx int, tr *tracer) *repOut {
	out := &repOut{values: map[string]float64{}}
	rc := &repCtx{r: r, prog: r.prog, idx: idx, seed: r.opt.seed + int64(idx), tr: tr, out: out}
	runtime.GC()

	pass, err := rc.runPhase(phasePass)
	if err != nil {
		out.failure = "passthrough: " + err.Error()
		return out
	}
	rec, err := rc.runPhase(phaseRec)
	if err != nil {
		out.failure = "record: " + err.Error()
		return out
	}
	out.logs = rec.logs
	out.latency, out.ops, out.opFails = rec.latency, rec.ops, rec.opFails

	vms, err := rc.startReplay(rec)
	if err != nil {
		out.failure = "replay start-up: " + err.Error()
		return out
	}
	rep, err := rc.exec(phaseRep, vms, nil)
	if err != nil {
		out.failure = "replay: " + err.Error()
		return out
	}
	if r.opt.inject == "digest" && idx == 1 {
		for _, d := range rep.outcome {
			d[0] ^= 1
			break
		}
	}
	if diff := sameOutcome(rec.outcome, rep.outcome); diff != "" {
		out.failure = "replay: " + diff
		return out
	}
	if rep.events != rec.events {
		out.failure = fmt.Sprintf("replay: executed %d critical events, record %d", rep.events, rec.events)
		return out
	}
	rc.derive(pass, rec, rep)
	if r.prog.extra != nil {
		r.prog.extra(rc, rec)
	}
	return out
}

// derive turns the three phase results into the repetition's samples.
func (rc *repCtx) derive(pass, rec, rep *phaseResult) {
	v := rc.out.values
	kev := float64(rec.events) / 1000
	v["record_events_per_s"] = float64(rec.events) / rec.wall.Seconds()
	v["replay_events_per_s"] = float64(rep.events) / rep.wall.Seconds()
	v["record_slowdown"] = rec.wall.Seconds() / pass.wall.Seconds()
	v["replay_slowdown"] = rep.wall.Seconds() / pass.wall.Seconds()
	// The phases' wall times: runner.result forms the run's slowdowns from them.
	v["pass_wall_ms"] = ms(pass.wall)
	v["record_wall_ms"] = ms(rec.wall)
	v["replay_wall_ms"] = ms(rep.wall)

	var logBytes, intervals, objRuns, fast, contended, conns float64
	var turnWait, gcHold obs.HistogramSnapshot
	for _, s := range rec.snaps {
		ev := s.Events
		v["core.events.shared"] += float64(ev.Shared)
		v["core.events.monitor"] += float64(ev.MonitorEnter + ev.MonitorExit + ev.Wait + ev.Notify)
		v["core.events.socket"] += float64(ev.Socket)
		v["core.events.datagram"] += float64(ev.Datagram)
		v["core.events.thread"] += float64(ev.Thread)
		v["core.events.checkpoint"] += float64(ev.Checkpoint)
		v["tracelog.schedule_bytes"] += float64(s.Logs.Schedule.Bytes)
		v["tracelog.network_bytes"] += float64(s.Logs.Network.Bytes)
		v["tracelog.datagram_bytes"] += float64(s.Logs.Datagram.Bytes)
		v["tracelog.appends"] += float64(s.Logs.Schedule.Appends + s.Logs.Network.Appends + s.Logs.Datagram.Appends)
		v["tracelog.wal.syncs"] += float64(s.Faults.WALSyncs)
		intervals += float64(s.Intervals)
		objRuns += float64(s.Shard.ObjRuns)
		fast += float64(s.Shard.FastPath)
		contended += float64(s.Shard.Contended)
		if s.GCHold.Count > gcHold.Count {
			gcHold = s.GCHold
		}
	}
	for _, set := range rec.logs {
		logBytes += float64(set.TotalSize())
	}
	for _, s := range rep.snaps {
		v["rudp.retransmits"] += float64(s.Faults.RudpRetransmits)
		v["rudp.backoff_capped"] += float64(s.Faults.RudpBackoffCapped)
		if s.TurnWait.Count > turnWait.Count {
			turnWait = s.TurnWait
		}
	}
	if n := rec.notes["conns"]; len(n) > 0 {
		conns = n[0]
	}
	v["log_bytes_per_kevent"] = logBytes / kev
	v["core.intervals_per_kevent"] = intervals / kev
	v["core.shard.obj_runs_per_kevent"] = objRuns / kev
	v["core.shard.fast_share"] = ratio(fast, fast+contended)
	// The busiest VM's histograms: the one whose critical section the
	// workload leans on.
	v["core.replay.turn_wait_p99_us"] = us(turnWait.Quantile(0.99))
	v["core.record.gc_hold_p99_ns"] = float64(gcHold.Quantile(0.99))
	v["djsock.log_bytes_per_conn"] = ratio(v["tracelog.network_bytes"], conns)
	v["mem.rec_alloc_bytes_per_event"] = float64(rec.allocBytes) / float64(rec.events)
	v["mem.rep_alloc_bytes_per_event"] = float64(rep.allocBytes) / float64(rep.events)
	for name, samples := range rec.notes {
		if name != "conns" {
			v[name] = median(samples)
		}
	}
}
