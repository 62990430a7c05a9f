// Package core implements the DJVM replay runtime: the paper's primary
// contribution. One VM value corresponds to one DJVM instance — a Java
// virtual machine extended with record/replay support (§1).
//
// The runtime is built around a per-VM global counter (logical time stamp)
// shared by all threads (§2.2). The counter ticks at each execution of a
// critical event — a shared-variable access, a synchronization event, or a
// network event — uniquely identifying each critical event of the VM.
// Updating the global counter and executing the critical event happen in one
// atomic operation, the GC-critical section, during the record phase.
// Blocking events (monitor enter, wait, and the blocking socket calls) are
// executed outside the GC-critical section and only *marked* inside it once
// they complete, avoiding deadlock and whole-VM stalls (§2.2, §3).
//
// Record mode extracts the logical thread schedule as per-thread logical
// schedule intervals ⟨FirstCEvent, LastCEvent⟩ — maximal runs of consecutive
// critical events by one thread — so a schedule of millions of events
// compresses to a handful of counter pairs (§2.2).
//
// Replay mode enforces the recorded schedule: before a thread executes a
// critical event it waits until the global counter reaches the event's
// recorded value, executes the event, and advances the counter (§2.2). This
// requires no cooperation from the underlying scheduler — the property that
// makes the approach portable across thread schedulers, and what lets this
// reproduction run unchanged on the (uncontrollable) Go scheduler.
package core

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/tracelog"
)

// ObsSampleDefault is the default 1-in-N latency sampling rate applied to the
// GC-hold histogram's closure events and to turn waits (Config.ObsSampleRate).
const ObsSampleDefault = 64

// Config configures one DJVM instance.
type Config struct {
	// ID is the DJVM identity. Assigned (by the operator or harness) during
	// the record phase, logged, and reused during the replay phase (§4.1.3).
	ID ids.DJVMID
	// Mode selects record, replay, or passthrough (plain JVM baseline).
	Mode ids.Mode
	// World selects the closed/open/mixed-world network scheme (§4, §5).
	World ids.World
	// DJVMPeers lists, for the mixed world, the host names that run DJVMs.
	// Communication with these peers uses the closed-world scheme; all other
	// traffic is recorded with full contents as in the open world (§5).
	// Ignored in closed world (all peers DJVM) and open world (no peer DJVM).
	DJVMPeers map[string]bool
	// ReplayLogs supplies the record-phase logs when Mode is Replay. Its
	// schedule log need not be the recorded one: the schedule explorer
	// (internal/explore) pairs a synthesized schedule log with the recorded
	// network and datagram logs, and the VM enforces the synthesized
	// intervals (and per-object runs in sharded mode) while serving network
	// events from the recording. Any legal interleaving — one in which every
	// event's causal predecessors keep smaller counters — replays
	// deterministically; an illegal one surfaces as a replay stall (arm
	// StallTimeout) or a divergence, never as silent corruption.
	ReplayLogs *tracelog.Set
	// Resume, when non-nil in replay mode, starts replay from a checkpoint
	// instead of the beginning, bounding replay time (§8 future work; see
	// internal/checkpoint). The application must restore its own state to
	// the checkpointed snapshot before executing further critical events.
	Resume *ResumePoint
	// StallTimeout, when > 0 in replay mode, arms a watchdog that detects a
	// stalled replay: if the global counter makes no progress for the
	// timeout while threads are waiting for their turns, every waiting
	// thread panics with a DivergenceError describing which counter it
	// needed. Mismatched or truncated logs otherwise surface as silent
	// deadlocks. The watchdog cannot see threads blocked inside network
	// operations waiting on a stalled *peer* VM, so cross-VM stalls need
	// each VM's own watchdog armed.
	StallTimeout time.Duration
	// EventObserver, when non-nil, is invoked synchronously inside every
	// critical event (record and replay modes), with the executing thread
	// and the event's counter value. It is the hook debugger front-ends
	// build on: watching replay progress, breaking at a counter value (block
	// inside the callback), or cross-checking a record/replay pair.
	//
	// Ordering contract: because the callback runs inside the GC-critical
	// section, invocations are totally ordered and the observed counter
	// values are strictly increasing — gc is exactly 0, 1, 2, ... from the
	// start of the run (or from the resume counter). In replay mode this is
	// the recorded schedule order. The callback may block: the VM's critical
	// events pause until it returns, and the stall watchdog does not fire a
	// spurious stall while it blocks (the watchdog's progress check itself
	// serializes behind the GC-critical section). The callback must not
	// itself execute critical events. Recording, it may panic Crash to
	// fail-stop the VM at the observed event.
	EventObserver func(thread ids.ThreadNum, gc ids.GCount)
	// RecordJitter, when > 0, makes each thread yield the processor with
	// probability 1/RecordJitter after executing a critical event in record
	// (and passthrough) mode. The paper's JVM ran under a preemptive thread
	// scheduler whose timeslices interleave threads at critical-event
	// granularity; Go goroutines on few cores run long bursts uninterrupted,
	// which hides exactly the nondeterminism a replay tool exists to tame.
	// Jitter restores scheduler-driven interleaving without affecting
	// correctness: any record-phase schedule is a valid schedule, and replay
	// mode ignores the knob entirely.
	RecordJitter int
	// StopAtLogEnd, when true in replay mode, makes a thread that attempts a
	// critical event beyond its recorded schedule stop cleanly (its function
	// is abandoned, joiners are released) instead of panicking with a
	// DivergenceError. This is the mode crash recovery replays under: a log
	// salvaged from a crashed node ends mid-run, so every thread eventually
	// runs out of schedule — that is the crash point, not a divergence.
	// Events inside the recovered prefix are unaffected and replay exactly.
	StopAtLogEnd bool
	// OrderMode selects how the VM orders critical events. OrderGlobal (the
	// zero value) is the paper's scheme: one global counter totally orders
	// every critical event. OrderSharded records a per-object access order
	// for *registered* shared objects instead (see SharedInt.Register,
	// Monitor.Register): each registered object carries its own access
	// counter and replay enforces only per-object FIFO order, so threads
	// touching disjoint objects record and replay concurrently. Events with
	// no registered object — network, environment, thread lifecycle,
	// checkpoints, unregistered objects — keep the global mechanism.
	//
	// Sharded mode gives up the single total order some extensions need:
	// EventObserver, EnableCausalTrace, EnableWAL, and checkpoint Resume
	// all require OrderGlobal and fail with a clear error under OrderSharded.
	// A replay VM's OrderMode must match the recording's.
	OrderMode ids.OrderMode
	// ObsSampleRate controls 1-in-N sampling of the latency histograms:
	// GC-hold, the record phase's critical-section hold while it runs code (a
	// bare SharedInt Get or Set is never timed, and a replaying VM reports
	// none), and turn-wait, replay's wait for a turn. Events whose counter
	// value is a multiple of N are timed; every other event reads no clock.
	// Event *counts* stay exact — only latency observation is sampled. Zero
	// selects ObsSampleDefault; 1 times every timed kind of event; other
	// values round up to the next power of two. Because
	// sampling keys off the counter value, a workload whose latency varies
	// with a period equal to the rounded rate can alias; pick a different
	// power of two if that matters.
	ObsSampleRate int
}

// ResumePoint identifies where a resumed replay picks up.
type ResumePoint struct {
	// GC is the global counter value replay starts at: one past the
	// checkpoint event's counter.
	GC ids.GCount
	// NextThread is the thread number the next Spawn receives, preserving
	// record-phase thread identities across the skipped prefix.
	NextThread ids.ThreadNum
	// MainThread is the identity of the thread that took the checkpoint; the
	// resumed run's initial thread adopts it.
	MainThread ids.ThreadNum
	// MainEventNum is the checkpointing thread's network event counter at
	// the checkpoint.
	MainEventNum ids.EventNum
}

// VM is one DJVM instance.
type VM struct {
	id    ids.DJVMID
	mode  ids.Mode
	world ids.World
	peers map[string]bool

	// global is the VM's own order stream — the paper's global counter: its
	// lock is the GC-critical-section lock and its counter the global clock
	// (see stream). streams lists every order stream of the VM, global
	// first, then the registered objects' in ObjectID order; Close flushes
	// their open runs and the stall watchdog probes and wakes them through it.
	global    *stream
	streamsMu sync.Mutex
	streams   []*stream

	jitter     uint64 // yield 1-in-jitter after record-mode critical events
	sampleMask uint64 // counter values with n&mask==0 get their hold (recording, global stream) or turn wait (replaying) timed
	// epoch is the VM's creation time. A sampled hold or turn wait is timed
	// as two time.Since(epoch): each one read of the monotonic clock, where
	// time.Now would read the wall clock as well.
	epoch time.Time

	// unpublished is how many events a replaying thread may count locally,
	// and leave out of the words it holds the turn of, before it publishes:
	// publishBatch-1, and 0 while the stall watchdog is asking — every event
	// is then published as it executes. It is the one word an event inside a
	// run reads, and nobody writes it while replay moves.
	unpublished atomic.Uint32

	// stalled is set by the watchdog when replay stops progressing; every
	// parked thread then fails with the stall diagnostic, which names the
	// threads parked at detection (stallParked, written before the flag).
	stalled      atomic.Bool
	stallParked  []ParkedThread
	stopWatchdog chan struct{}

	orderMode ids.OrderMode

	logs *tracelog.Set // record mode

	// stopAtLogEnd makes threads that exhaust their recorded schedule stop
	// cleanly (crash-recovery replay); logEndStops counts them.
	stopAtLogEnd bool
	logEndStops  atomic.Uint64

	schedIdx *tracelog.ScheduleIndex // replay mode
	netIdx   *tracelog.NetworkIndex
	dgIdx    *tracelog.DatagramIndex

	threadsMu  sync.Mutex
	threads    []*Thread
	nextThread ids.ThreadNum
	resume     *ResumePoint
	activeWork sync.WaitGroup

	// metrics is the VM's always-on observability layer (internal/obs): the
	// counter word, per-kind event counters (published by threads in batches)
	// and latency histograms; what the VM and its logs hold themselves it
	// reads through fillSnapshot. Never nil.
	metrics *obs.Metrics

	crashed chan struct{} // closed when an observer panics (stream.exec; Thread.wait)
	closed  bool
	// walErr is the attached WAL's first write or sync failure, as Close or
	// TruncateWAL first saw it. Guarded by the global stream's lock.
	walErr error
}

// Stats aggregates the quantities the paper's tables report for one VM. It is
// the compact historical view; Metrics carries the full breakdown.
type Stats struct {
	// CriticalEvents is the total number of critical events executed
	// (the "#critical events" column of Tables 1 and 2).
	CriticalEvents uint64
	// NetworkEvents is the number of critical events that are also network
	// events (the "#nw events" column).
	NetworkEvents uint64
}

// NewVM creates a DJVM in the configured mode. In replay mode the logs
// recorded by the previous run must be supplied and are indexed up front.
func NewVM(cfg Config) (*VM, error) {
	vm := &VM{
		id:      cfg.ID,
		mode:    cfg.Mode,
		world:   cfg.World,
		peers:   cfg.DJVMPeers,
		metrics: &obs.Metrics{},
		epoch:   time.Now(),
		crashed: make(chan struct{}),
	}
	vm.global = vm.newStream()
	vm.global.clock = vm.metrics.Clock()
	vm.metrics.SetOwner(vm.fillSnapshot)
	vm.global.observer = cfg.EventObserver
	if cfg.RecordJitter > 0 {
		vm.jitter = uint64(cfg.RecordJitter)
	}
	rate := cfg.ObsSampleRate
	if rate <= 0 {
		rate = ObsSampleDefault
	}
	vm.sampleMask = 1<<bits.Len64(uint64(rate-1)) - 1
	vm.global.holdMask = vm.sampleMask
	vm.orderMode = cfg.OrderMode
	if cfg.OrderMode != ids.OrderGlobal && cfg.OrderMode != ids.OrderSharded {
		return nil, fmt.Errorf("core: vm %d: unknown order mode %v", cfg.ID, cfg.OrderMode)
	}
	if cfg.OrderMode == ids.OrderSharded && cfg.EventObserver != nil {
		return nil, fmt.Errorf("core: vm %d: EventObserver requires OrderGlobal — sharded mode has no single total event order to observe", cfg.ID)
	}
	if cfg.OrderMode == ids.OrderSharded && cfg.Resume != nil {
		return nil, fmt.Errorf("core: vm %d: checkpoint resume requires OrderGlobal — fast-forward is defined on the global schedule", cfg.ID)
	}
	switch cfg.Mode {
	case ids.Record:
		vm.logs = tracelog.NewSet()
		// A recording VM publishes its counter into the metrics' word per run,
		// not per event; a reader brings the word up to date itself whenever
		// no event is in flight. Try, never Lock: a supervisor polls the total
		// to detect a member frozen inside its critical section for good, and
		// must read the last published value then, not join the freeze.
		g := vm.global
		vm.metrics.SetClockRefresh(func() {
			if g.mu.TryLock() {
				g.publishLocked()
				g.mu.Unlock()
			}
		})
		if cfg.OrderMode == ids.OrderSharded {
			// Mark the log so the index, logcheck, and the causal analyzer
			// know a per-object order follows; global-mode logs omit the
			// record entirely for backward compatibility.
			vm.logs.Schedule.Append(&tracelog.OrderModeEntry{Mode: ids.OrderSharded})
		}
	case ids.Replay:
		if cfg.ReplayLogs == nil {
			return nil, fmt.Errorf("core: replay VM %d needs ReplayLogs", cfg.ID)
		}
		x, err := tracelog.IndexSet(cfg.ReplayLogs)
		if err != nil {
			return nil, fmt.Errorf("core: vm %d: %w", cfg.ID, err)
		}
		sched := x.Schedule
		if sched.Meta.VM != cfg.ID {
			return nil, fmt.Errorf("core: vm %d: schedule log belongs to vm %d", cfg.ID, sched.Meta.VM)
		}
		if sched.Meta.World != cfg.World {
			return nil, fmt.Errorf("core: vm %d: recorded world %v, configured %v", cfg.ID, sched.Meta.World, cfg.World)
		}
		if sched.OrderMode != cfg.OrderMode {
			return nil, fmt.Errorf("core: vm %d: recorded order mode %v, configured %v", cfg.ID, sched.OrderMode, cfg.OrderMode)
		}
		if sched.BaseGC > 0 && (cfg.Resume == nil || cfg.Resume.GC <= sched.BaseGC) {
			return nil, fmt.Errorf("core: vm %d: log truncated at counter %d — events below the base were compacted away, so replay must resume from a retained checkpoint at or past it", cfg.ID, sched.BaseGC)
		}
		vm.schedIdx, vm.netIdx, vm.dgIdx = sched, x.Network, x.Datagram
		vm.global.sched = sched.Stream(tracelog.GlobalStream)
		vm.unpublished.Store(publishBatch - 1)
		vm.stopAtLogEnd = cfg.StopAtLogEnd
		if cfg.Resume != nil {
			vm.resume = cfg.Resume
			vm.metrics.SetClockBase(uint64(cfg.Resume.GC))
			vm.nextThread = cfg.Resume.NextThread
		}
		if cfg.StallTimeout > 0 {
			vm.stopWatchdog = make(chan struct{})
			vm.metrics.SetWatchdogArmed(true)
			go vm.watchdog(cfg.StallTimeout)
		}
	case ids.Passthrough:
		// No logs, no enforcement: the plain-JVM baseline.
	default:
		return nil, fmt.Errorf("core: unknown mode %v", cfg.Mode)
	}
	return vm, nil
}

// ID reports the DJVM identity.
func (vm *VM) ID() ids.DJVMID { return vm.id }

// Mode reports the execution mode.
func (vm *VM) Mode() ids.Mode { return vm.mode }

// World reports the world configuration.
func (vm *VM) World() ids.World { return vm.world }

// OrderMode reports how the VM orders critical events.
func (vm *VM) OrderMode() ids.OrderMode { return vm.orderMode }

// IsDJVMPeer reports whether the named host runs a DJVM under the current
// world configuration: everyone in the closed world, nobody in the open
// world, and exactly the configured peer set in the mixed world (§5).
func (vm *VM) IsDJVMPeer(host string) bool {
	switch vm.world {
	case ids.ClosedWorld:
		return true
	case ids.OpenWorld:
		return false
	default:
		return vm.peers[host]
	}
}

// Logs exposes the record-phase log set (nil unless recording).
func (vm *VM) Logs() *tracelog.Set { return vm.logs }

// EnableWAL makes the record-phase logs durable: every subsequent log record
// is teed into the write-ahead log at path, fsynced per opts, and a vm-meta
// identity header is written first so tracelog.RecoverFile can rebuild a
// replayable set even when the VM never reaches Close. Call before the first
// critical event (the logs must still be empty). Close closes the WAL after
// appending the final vm-meta, so a graceful shutdown leaves a complete
// durable log; on a crash the file ends wherever the last fsync left it.
//
// A WAL write or sync failure after a successful EnableWAL does not stop the
// run: recording continues in memory and Logs() stays complete and
// replayable, but nothing further reaches the file. The failure is not
// silent: Close, Logs().SyncWAL and TruncateWAL return the first one, and
// Snapshot().Faults.WALErrors counts it.
func (vm *VM) EnableWAL(path string, opts tracelog.WALOptions) error {
	if vm.mode != ids.Record {
		return fmt.Errorf("core: vm %d: EnableWAL in %v mode", vm.id, vm.mode)
	}
	if vm.orderMode == ids.OrderSharded {
		return fmt.Errorf("core: vm %d: EnableWAL requires OrderGlobal — torn-write recovery repairs a global-schedule prefix", vm.id)
	}
	w, err := tracelog.CreateWAL(path, opts)
	if err != nil {
		return err
	}
	if err := vm.logs.AttachWAL(w); err != nil {
		w.Close()
		return err
	}
	vm.logs.Schedule.Append(&tracelog.VMMeta{VM: vm.id, World: vm.world})
	// Match the note cadence to the fsync cadence: finer notes would hit
	// disk no sooner, coarser ones would let a synced prefix go uncredited.
	if opts.SyncEvery > 0 {
		vm.global.noteEvery = uint64(opts.SyncEvery)
	} else {
		vm.global.noteEvery = tracelog.DefaultSyncEvery
	}
	return nil
}

// stampEvery is the cadence of causal tracing's wall-clock anchors: one every
// stampEvery critical events.
const stampEvery = 8

// EnableCausalTrace turns on the annotations the causal analyzer reads, both
// advisory — replay neither needs nor reads them:
//
//   - net spans: closed-world socket events additionally record the
//     connection id they acted on, their global counter value, and (for
//     reads/writes) the application-stream byte range — the correlation
//     records that become cross-VM message edges;
//   - wall-clock anchors: the schedule log gains a ⟨GC, wall-nanos⟩ record
//     now (at the current counter), every stampEvery critical events, and at
//     Close (at the final counter) — the counter→wall-time mapping of the
//     critical-path and timeline reconstruction.
//
// Record mode only; call before the first critical event for full-run
// coverage.
func (vm *VM) EnableCausalTrace() error {
	if vm.mode != ids.Record {
		return fmt.Errorf("core: vm %d: EnableCausalTrace in %v mode", vm.id, vm.mode)
	}
	if vm.orderMode == ids.OrderSharded {
		return fmt.Errorf("core: vm %d: EnableCausalTrace requires OrderGlobal — net spans and wall-clock anchors are keyed by global counter values", vm.id)
	}
	vm.global.mu.Lock()
	defer vm.global.mu.Unlock()
	vm.global.traced = true
	vm.appendTimestampLocked(vm.global.next)
	return nil
}

// CausalTraceLocked reports whether causal tracing is on. Callers hold the
// global stream's lock — every record-phase emission point runs inside the
// GC-critical section, so the flag needs no atomics.
func (vm *VM) CausalTraceLocked() bool { return vm.global.traced }

// appendTimestampLocked logs a wall-clock anchor for counter value gc.
// Caller holds the global stream's lock.
func (vm *VM) appendTimestampLocked(gc ids.GCount) {
	vm.logs.Schedule.Append(&tracelog.TimestampEntry{GC: gc, Wall: time.Now().UnixNano()})
}

// TruncateWAL compacts the attached WAL so it starts at a retained
// checkpoint, dropping records a checkpoint-resumed replay can no longer
// request: keep=1 anchors at the latest checkpoint, keep=N retains the N
// latest as resume points. Call from the checkpoint taker at the same
// quiescent point checkpoint.Take requires — typically right after taking
// the checkpoint — so every other thread has finished and the anchor's
// thread bookkeeping fully describes liveness. In replay and passthrough
// modes it is a no-op returning (nil, nil), letting application code call
// it unconditionally alongside checkpoint.Take; before `keep` checkpoints
// exist it reports tracelog.ErrNoAnchor.
func (vm *VM) TruncateWAL(keep int) (*tracelog.TruncateStats, error) {
	if vm.mode != ids.Record {
		return nil, nil
	}
	vm.global.mu.Lock()
	defer vm.global.mu.Unlock()
	if vm.logs.WAL() == nil {
		return nil, fmt.Errorf("core: vm %d: TruncateWAL without EnableWAL", vm.id)
	}
	// Flush the open schedule interval first: the compacted stream keeps no
	// OpenInterval notes, so coverage of [base, now) must be carried entirely
	// by flushed intervals. Splitting an interval is replay-safe — consecutive
	// same-thread intervals replay identically to one merged interval.
	vm.global.flushLocked()
	vm.global.publishLocked()
	st, err := vm.logs.WAL().TruncateWAL(keep)
	if err != nil {
		// ErrNoAnchor and a failed compaction leave the WAL healthy; only
		// the writer's own sticky error means durability is gone.
		vm.noteWALErrLocked(vm.logs.WAL().Err())
		return nil, err
	}
	vm.metrics.IncWALTruncate()
	return st, nil
}

// noteWALErrLocked remembers the WAL's first failure for Close to return and
// counts it, once, in Faults.WALErrors. Caller holds the global stream's lock.
func (vm *VM) noteWALErrLocked(err error) {
	if err != nil && vm.walErr == nil {
		vm.walErr = fmt.Errorf("core: vm %d: write-ahead log: %w", vm.id, err)
		vm.metrics.IncWALError()
	}
}

// NetworkIndex exposes the replay-phase network log index (nil unless
// replaying).
func (vm *VM) NetworkIndex() *tracelog.NetworkIndex { return vm.netIdx }

// DatagramIndex exposes the replay-phase datagram log index (nil unless
// replaying).
func (vm *VM) DatagramIndex() *tracelog.DatagramIndex { return vm.dgIdx }

// ScheduleIndex exposes the replay-phase schedule index (nil unless
// replaying).
func (vm *VM) ScheduleIndex() *tracelog.ScheduleIndex { return vm.schedIdx }

// Clock reports the current global counter value: the value the next critical
// event on the global stream receives. A recording VM reads it under the
// GC-critical-section lock — exact, but Clock must not be called from inside a
// critical event, whose op receives its own counter value, and waits behind an
// event in flight; the lock-free, slightly stale view is
// Metrics().TotalEvents() / Snapshot(). A replaying VM reads the counter word,
// which the thread that holds the counter's turn publishes per run
// (cursor.publish): exact after Wait, while that thread is parked or inside a
// blocking operation, and at every event with an EventObserver; less than
// publishBatch behind it, never ahead, while it is inside a recorded run. A
// thread that decides what to do next by the counter asks Thread.Clock, which
// is exact for it in every mode.
func (vm *VM) Clock() ids.GCount {
	g := vm.global
	if vm.mode != ids.Record {
		return ids.GCount(g.clock.Load())
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.next
}

// Stats returns a compact snapshot of the VM's event counters — the two
// columns of the paper's tables. The full breakdown lives on Metrics.
func (vm *VM) Stats() Stats {
	return Stats{
		CriticalEvents: vm.metrics.TotalEvents(),
		NetworkEvents:  vm.metrics.NetworkEvents(),
	}
}

// Metrics exposes the VM's observability layer. The returned value is live:
// its counters keep moving while the VM runs, and Snapshot() assembles
// consistent point-in-time views.
func (vm *VM) Metrics() *obs.Metrics { return vm.metrics }

// fillSnapshot is the VM's owner hook (obs.Metrics.SetOwner): it fills the
// snapshot fields whose numbers the VM and its logs already hold. It takes
// each log's lock for a read and streamsMu to list the streams, never a
// stream's lock, which a member frozen inside its critical section holds.
func (vm *VM) fillSnapshot(s *obs.Snapshot) {
	s.HistSampleRate = vm.sampleMask + 1
	s.Replay.Stalled = vm.stalled.Load()
	if vm.schedIdx != nil {
		s.Replay.FinalGC = uint64(vm.schedIdx.Meta.FinalGC)
	}
	vm.streamsMu.Lock()
	for _, st := range vm.streams {
		s.Replay.ParkedThreads += st.parked.Load()
	}
	vm.streamsMu.Unlock()
	s.Faults.LogEndStops = vm.logEndStops.Load()
	if vm.logs == nil {
		return
	}
	sched, net, dg := vm.logs.Schedule, vm.logs.Network, vm.logs.Datagram
	s.Logs = obs.LogStats{Schedule: logStats(sched), Network: logStats(net), Datagram: logStats(dg)}
	s.Intervals = uint64(sched.Count(tracelog.KindInterval))
	s.Shard.ObjRuns = uint64(sched.Count(tracelog.KindObjRun))
	s.Causal.Timestamps = uint64(sched.Count(tracelog.KindTimestamp))
	s.Causal.NetSpans = uint64(net.Count(tracelog.KindNetSpan))
	s.Recovery.GroupEpochs = uint64(sched.Count(tracelog.KindGroupEpoch))
	if w := vm.logs.WAL(); w != nil {
		_, s.Faults.WALSyncs = w.Stats()
	}
}

func logStats(l *tracelog.Log) obs.LogFileStats {
	return obs.LogFileStats{Appends: uint64(l.Len()), Bytes: uint64(l.Size())}
}

// Start creates the VM's initial thread (threadNum 0) running fn and returns
// immediately. Exactly one Start call is allowed per VM.
func (vm *VM) Start(fn func(t *Thread)) *Thread {
	vm.threadsMu.Lock()
	if len(vm.threads) != 0 {
		vm.threadsMu.Unlock()
		panic("core: VM.Start called twice")
	}
	t := vm.newThreadLocked()
	vm.threadsMu.Unlock()
	vm.launch(t, fn)
	return t
}

// newThreadLocked allocates the next thread. Caller holds threadsMu.
func (vm *VM) newThreadLocked() *Thread {
	t := &Thread{vm: vm}
	if vm.resume != nil && len(vm.threads) == 0 {
		// The resumed run's initial thread is the checkpointing thread,
		// resuming its recorded identity and event numbering; subsequent
		// spawns continue from the recorded next thread number.
		t.num = vm.resume.MainThread
		t.eventNum = vm.resume.MainEventNum
	} else {
		t.num = vm.nextThread
		vm.nextThread++
	}
	if vm.mode == ids.Replay {
		t.turnCh = make(chan struct{}, 1)
		schedule := vm.global.sched.Runs[t.num]
		if vm.resume != nil {
			var skipped uint64
			schedule, skipped = fastForward(schedule, vm.resume.GC)
			vm.metrics.AddFastForwardSkips(skipped)
		}
		t.cursors = []*cursor{newCursor(vm.global, schedule)} // slot 0: the global stream
		t.run = t.cursors[0]
	}
	vm.threads = append(vm.threads, t)
	return t
}

// fastForward trims a thread's schedule to the critical events at or after
// the resume counter, reporting how many recorded events were skipped.
func fastForward(schedule []tracelog.Interval, at ids.GCount) ([]tracelog.Interval, uint64) {
	var out []tracelog.Interval
	var skipped uint64
	for _, iv := range schedule {
		if iv.Last < at {
			skipped += uint64(iv.Last-iv.First) + 1
			continue
		}
		if iv.First < at {
			skipped += uint64(at - iv.First)
			iv.First = at
		}
		out = append(out, iv)
	}
	return out, skipped
}

// launch runs fn on its own goroutine, signaling joiners when fn returns.
func (vm *VM) launch(t *Thread, fn func(t *Thread)) {
	t.done = make(chan struct{})
	vm.activeWork.Add(1)
	go func() {
		defer close(t.done)
		defer vm.activeWork.Done()
		// Whatever way fn ends — return, divergence panic, end-of-log unwind —
		// the thread's counted events are published before Wait can return.
		defer t.publishCounts(nil)
		defer func() {
			// A crashed VM's threads abandon their functions by panicking
			// Crash, and under StopAtLogEnd a thread panics the private
			// end-of-schedule signal: absorb both so the thread winds down like
			// a normal return (joiners release, the VM's wait group drains).
			switch r := recover(); r.(type) {
			case nil, Crash:
			case replayLogEnd:
				vm.logEndStops.Add(1)
			default:
				panic(r)
			}
		}()
		fn(t)
	}()
}

// LogEndStops reports how many threads stopped at the end of a truncated
// recorded schedule (see Config.StopAtLogEnd). Once the VM has gone idle
// (Wait returned), replay has reached the crash point when this is nonzero.
func (vm *VM) LogEndStops() uint64 { return vm.logEndStops.Load() }

// Wait blocks until every thread of the VM has returned.
func (vm *VM) Wait() {
	vm.activeWork.Wait()
}

// watchdog monitors replay progress: if no critical event executes for the
// timeout while threads are parked on their turns, it flips the stall flag
// and wakes them to fail with diagnostics. Progress is witnessed by the
// counter words (see replayProgress) — and a thread inside a run moves its
// word once per batch, so words that stand still between two ticks prove
// nothing about a thread that executes an event every few milliseconds. The
// watchdog therefore asks before it counts: it lowers VM.unpublished to zero,
// which makes every event publish as it executes, and measures the timeout
// from that moment; the first word that moves ends the asking.
func (vm *VM) watchdog(timeout time.Duration) {
	defer vm.metrics.SetWatchdogArmed(false)
	tick := time.NewTicker(timeout / 4)
	defer tick.Stop()
	lastProgress := uint64(0)
	lastChange := time.Now()
	asking := false
	for {
		select {
		case <-vm.stopWatchdog:
			return
		case <-tick.C:
		}
		// Probe under the global stream's lock: an EventObserver callback
		// blocks inside it, so a blocked callback delays the probe instead of
		// reading as a stall.
		vm.global.mu.Lock()
		progress, parked := vm.replayProgress()
		vm.global.mu.Unlock()
		switch {
		case progress != lastProgress:
			lastProgress = progress
			lastChange = time.Now()
			if asking {
				asking = false
				vm.unpublished.Store(publishBatch - 1)
			}
		case !parked:
		case !asking:
			asking = true
			vm.unpublished.Store(0)
			lastChange = time.Now()
		case time.Since(lastChange) >= timeout:
			vm.stallParked = vm.parkedThreads()
			vm.stalled.Store(true)
			// The stall is the one case that must wake *every* parked thread,
			// so each fails with its own diagnostics. A thread that has not
			// registered yet sees the flag under the same lock hold as its
			// re-check. Registrations are left in place: each thread
			// unregisters itself on the way to its panic, so parkedThreads
			// stays accurate meanwhile.
			for _, s := range vm.allStreams() {
				s.mu.Lock()
				for _, t := range s.waiters {
					s.wakeLocked(t)
				}
				s.mu.Unlock()
			}
			return
		}
	}
}

// replayProgress sums every stream's counter — most sharded events advance
// only an object's, and a healthy sharded replay must not trip the watchdog
// because its global clock is idle — and reports whether any thread is parked.
func (vm *VM) replayProgress() (progress uint64, parked bool) {
	for _, s := range vm.allStreams() {
		progress += s.clock.Load()
		parked = parked || s.parked.Load() > 0
	}
	return progress, parked
}

// ThreadCount reports how many threads have been created so far in this run.
func (vm *VM) ThreadCount() int {
	vm.threadsMu.Lock()
	defer vm.threadsMu.Unlock()
	return len(vm.threads)
}

// NextThreadNum reports the thread number the next Spawn will assign.
func (vm *VM) NextThreadNum() ids.ThreadNum {
	vm.threadsMu.Lock()
	defer vm.threadsMu.Unlock()
	return vm.nextThread
}

// Close finalizes the VM. In record mode it flushes every stream's open run
// and appends the VMMeta record; the log set is then complete and can be
// saved or handed to a replay VM. Close is idempotent. It returns nil unless
// a WAL was enabled and failed (see EnableWAL): the in-memory logs are
// complete either way, the file is not.
func (vm *VM) Close() error {
	// One stream lock at a time: they are never nested.
	for _, s := range vm.allStreams() {
		s.mu.Lock()
		s.flushLocked()
		s.mu.Unlock()
	}

	vm.global.mu.Lock()
	defer vm.global.mu.Unlock()
	if vm.closed {
		return vm.walErr
	}
	vm.closed = true
	if vm.stopWatchdog != nil {
		close(vm.stopWatchdog)
	}
	if vm.mode == ids.Record {
		final := vm.global.next
		vm.global.publishLocked()
		if vm.global.traced {
			// Final anchor: ties FinalGC to wall time so interpolation covers
			// the whole run even when the cadence never fired near the end.
			vm.appendTimestampLocked(final)
		}
		vm.logs.Schedule.Append(&tracelog.VMMeta{
			VM:      vm.id,
			World:   vm.world,
			Threads: uint32(vm.ThreadCount()),
			FinalGC: final,
		})
		// With a WAL attached the final meta above is the last durable
		// record; syncing and closing here makes a graceful shutdown
		// indistinguishable from a plain saved log set.
		vm.noteWALErrLocked(vm.logs.CloseWAL())
		// Nothing more is recorded: a log that spilled moves its open chunk
		// to its file, so a retained recording holds no chunk array.
		vm.logs.Finish()
	}
	return vm.walErr
}
