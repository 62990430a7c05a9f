package core

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/tracelog"
)

// Thread is one application thread of a DJVM. Threads are created in the
// same order in the record and replay phases (thread creation is itself a
// critical event), so a thread has the same ThreadNum in both phases and the
// per-thread network-event numbering is reproducible (§4.1.3).
//
// A Thread value must only be used from the goroutine it was launched on:
// like a java.lang.Thread, it is the identity of one thread of execution.
type Thread struct {
	vm  *VM
	num ids.ThreadNum

	// eventNum counts this thread's network events (§4.1.3). Only the owning
	// goroutine touches it.
	eventNum ids.EventNum

	// Record-mode logical-schedule-interval state, guarded by vm.mu (every
	// mutation happens inside the GC-critical section).
	intFirst ids.GCount
	intLast  ids.GCount
	intOpen  bool
	finished bool

	// Last open-interval durability note written for this thread (WAL crash
	// recovery; see VM.noteOpenIntervalsLocked). Guarded by vm.mu.
	noted     bool
	noteFirst ids.GCount
	noteLast  ids.GCount

	// Replay-mode schedule cursor. Only the owning goroutine touches it.
	schedule []tracelog.Interval
	si       int
	pos      ids.GCount
	posInit  bool

	// turnCh delivers this thread's wake token when its awaited counter
	// value is reached (successor-directed wakeup; see VM.turnWaiters).
	// Buffered so the waker never blocks; at most one token is ever
	// outstanding because each counter value has a single waiter.
	turnCh chan struct{}

	// rng drives record-mode scheduler jitter. Only the owning goroutine
	// touches it; zero means unseeded.
	rng uint64

	// progSeq counts this thread's sharded-mode critical events in program
	// order — the lock-free thread-local counter of the DOR scheme. Only the
	// owning goroutine touches it; with per-object counters replacing the
	// global clock it is the per-thread coordinate of an event (the pair
	// ⟨object accessSeq, thread progSeq⟩ locates a sharded event the way a
	// GCount locates a global one), surfaced in divergence diagnostics.
	progSeq uint64

	// Event accounting, local to the owning goroutine: executed events by
	// kind (and, for sharded ones, how the object acquisition resolved) since
	// the last publishCounts. The shared obs counters see one add per kind per
	// batch instead of one per event.
	pending          [obs.NumEventKinds]uint32
	pendingN         uint32
	pendingFast      uint32
	pendingContended uint32

	// done is closed when the thread's function returns (after its final
	// interval is flushed); Join blocks on it.
	done chan struct{}
}

// maybeYield yields the processor with probability 1/vm.jitter, emulating a
// preemptive scheduler's timeslice switches (see Config.RecordJitter).
func (t *Thread) maybeYield() {
	vm := t.vm
	if vm.jitter == 0 || vm.mode == ids.Replay {
		return
	}
	if t.rng == 0 {
		// Seed from wall time so jitter varies across record runs.
		t.rng = (uint64(t.num)+1)*0x9E3779B97F4A7C15 ^ uint64(time.Now().UnixNano()) | 1
	}
	// xorshift64
	t.rng ^= t.rng << 13
	t.rng ^= t.rng >> 7
	t.rng ^= t.rng << 17
	if t.rng%vm.jitter == 0 {
		runtime.Gosched()
	}
}

// publishBatch bounds how many events a thread counts locally before it
// publishes them, whatever else happens: the per-kind counters of a snapshot
// lag the live total by less than this per running thread.
const publishBatch = 1024

// countEvent counts one executed critical event of the thread locally,
// publishing when an unbroken run fills a batch. Callers tick the event's
// counter (global clock or object sequence) first.
func (t *Thread) countEvent(kind obs.EventKind) {
	if int(kind) >= obs.NumEventKinds {
		kind = obs.KindOther
	}
	t.pending[kind]++
	t.pendingN++
	if t.pendingN >= publishBatch {
		t.publishCounts()
	}
}

// publishCounts moves the thread's locally counted events into the VM's
// metrics: at every interval or obj-run boundary the thread itself crosses,
// before an operation that may block, when a batch fills, and when the thread
// exits by any path. Owning goroutine only.
func (t *Thread) publishCounts() {
	if t.pendingN == 0 {
		return
	}
	m := t.vm.metrics
	// Sharded totals before kinds: a snapshot reads them in the opposite
	// order, so its per-kind sum never exceeds its total.
	m.AddShardEvents(uint64(t.pendingFast), uint64(t.pendingContended))
	for k, n := range t.pending {
		if n != 0 {
			m.AddEvents(obs.EventKind(k), uint64(n))
		}
	}
	t.pending = [obs.NumEventKinds]uint32{}
	t.pendingN, t.pendingFast, t.pendingContended = 0, 0, 0
}

// Num reports the thread's creation-order number.
func (t *Thread) Num() ids.ThreadNum { return t.num }

// VM reports the thread's DJVM.
func (t *Thread) VM() *VM { return t.vm }

// NextEventNum allocates the next per-thread network event number.
func (t *Thread) NextEventNum() ids.EventNum {
	n := t.eventNum
	t.eventNum++
	return n
}

// EventID builds the networkEventId ⟨threadNum, eventNum⟩ for a given event
// number of this thread.
func (t *Thread) EventID(ev ids.EventNum) ids.NetworkEventID {
	return ids.NetworkEventID{Thread: t.num, Event: ev}
}

// CurrentEventNum reports the thread's next unallocated network event
// number. The checkpoint layer records it so a resumed replay continues the
// thread's event numbering where the record phase left off.
func (t *Thread) CurrentEventNum() ids.EventNum { return t.eventNum }

// ProgramOrder reports how many sharded-mode critical events this thread has
// executed (0 outside sharded mode). Must be called from the owning
// goroutine, like every Thread method.
func (t *Thread) ProgramOrder() uint64 { return t.progSeq }

// DivergenceError is thrown (via panic) when a replaying thread's execution
// departs from the recorded schedule — e.g. it attempts more critical events
// than were recorded. Replay of a deterministic re-execution never diverges;
// divergence indicates the program, its inputs, or the logs changed.
type DivergenceError struct {
	VM     ids.DJVMID
	Thread ids.ThreadNum
	Msg    string

	// GC is the global counter value at the moment divergence was detected —
	// the anchor the causal analyzer's WhyDiverged walks backwards from.
	GC ids.GCount
	// Waiting maps each parked thread to the counter value it was waiting
	// for when the divergence was detected (nil when no threads were parked
	// or the failure was not a stall).
	Waiting map[ids.ThreadNum]ids.GCount
}

func (e *DivergenceError) Error() string {
	return fmt.Sprintf("core: replay divergence on vm %d thread %d: %s", e.VM, e.Thread, e.Msg)
}

func (t *Thread) diverge(format string, args ...any) {
	panic(&DivergenceError{
		VM:     t.vm.id,
		Thread: t.num,
		Msg:    fmt.Sprintf(format, args...),
		GC:     ids.GCount(t.vm.clock.Load()),
	})
}

// replayLogEnd is the private panic signal a thread raises to abandon its
// function when it runs out of recorded schedule under Config.StopAtLogEnd;
// VM.launch absorbs it and winds the thread down as a normal return.
type replayLogEnd struct{}

// endOfSchedule resolves a replay attempt beyond the recorded schedule:
// a clean stop under StopAtLogEnd (crash-recovery replay reached the crash
// point), a divergence otherwise. Never returns.
func (t *Thread) endOfSchedule(what string) {
	if t.vm.stopAtLogEnd {
		panic(replayLogEnd{})
	}
	t.diverge("%s attempted beyond recorded schedule", what)
}

// Critical executes op as one non-blocking critical event.
//
//   - Record: op runs inside the GC-critical section, atomically with the
//     global counter update (§2.2); op receives the event's counter value.
//   - Replay: the thread waits until the global counter equals the event's
//     recorded value, runs op, and advances the counter (§2.2).
//   - Passthrough: op(0) runs with no synchronization; primitives supply
//     their own atomicity (they model unmodified-JVM behavior).
//
// op must not block on any other thread's critical event, or the VM
// deadlocks — that is what Blocking is for.
//
// Events issued through Critical are attributed to obs.KindOther in the VM's
// metrics; runtime subsystems use CriticalKind to tag their events.
func (t *Thread) Critical(op func(gc ids.GCount)) {
	t.CriticalKind(obs.KindOther, op)
}

// CriticalKind is Critical with an explicit event-kind tag for the per-kind
// counters of the observability layer.
func (t *Thread) CriticalKind(kind obs.EventKind, op func(gc ids.GCount)) {
	vm := t.vm
	switch vm.mode {
	case ids.Passthrough:
		op(0)
		t.maybeYield()
	case ids.Record:
		vm.recordEvent(t, kind, op)
		t.maybeYield()
	case ids.Replay:
		next, ok := t.nextScheduled()
		if !ok {
			t.endOfSchedule("critical event")
		}
		vm.replayEvent(t, kind, next, op)
		t.advanceCursor()
	}
}

// recordEvent is the GC-critical section of the record phase: counter update
// and event execution as one atomic operation (§2.2). The deferred unlock
// keeps the VM consistent when op panics (e.g. a MonitorStateError the
// application recovers from): the counter has not ticked and no interval was
// extended, as if the event never happened.
func (vm *VM) recordEvent(t *Thread, kind obs.EventKind, op func(gc ids.GCount)) {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	gc := ids.GCount(vm.clock.Load())
	sampled := uint64(gc)&vm.sampleMask == 0
	var start time.Time
	if sampled {
		start = time.Now()
	}
	op(gc)
	if vm.observer != nil {
		vm.observer(t.num, gc)
	}
	if sampled {
		vm.metrics.ObserveGCHold(time.Since(start))
	}
	vm.clock.Store(uint64(gc) + 1)
	t.countEvent(kind)
	t.extendIntervalLocked(gc)
	if vm.noteEvery != 0 && (uint64(gc)+1)%vm.noteEvery == 0 {
		vm.noteOpenIntervalsLocked()
	}
	if vm.tsEvery != 0 && (uint64(gc)+1)%vm.tsEvery == 0 {
		vm.appendTimestampLocked(gc + 1)
	}
}

// replayEvent waits for the event's turn, executes it, and advances the
// counter (§2.2).
//
// With no EventObserver installed the thread touches one shared word per
// event, the counter: the recorded schedule admits exactly one thread per
// counter value, so until this thread advances the clock no other thread may
// execute a critical event — the schedule itself provides the mutual
// exclusion. Everything else happens once per interval. A thread can only be
// parked on the first value of one of its own intervals, and the value after
// any event but the interval's Last is this thread's own; so only the Last
// event looks for a parked successor (taking mu to hand it the wake token),
// and that is also where the thread publishes its event counts. With an
// observer the event keeps the GC-critical section locked, preserving the
// documented contract that the stall watchdog's progress probe serializes
// behind a blocking callback.
func (vm *VM) replayEvent(t *Thread, kind obs.EventKind, next ids.GCount, op func(gc ids.GCount)) {
	if vm.observer == nil {
		if ids.GCount(vm.clock.Load()) != next {
			vm.awaitTurn(t, next)
		}
		sampled := uint64(next)&vm.sampleMask == 0
		var start time.Time
		if sampled {
			start = time.Now()
		}
		op(next)
		if sampled {
			vm.metrics.ObserveGCHold(time.Since(start))
		}
		after := uint64(next) + 1
		vm.clock.Store(after)
		t.countEvent(kind)
		if next != t.schedule[t.si].Last {
			return
		}
		// Store-buffering pairing with waitTurnLocked: the clock store above
		// is sequenced before this parked load, and a waiter publishes its
		// parked count before re-checking the clock — so either the waiter is
		// visible here, or it sees the advanced clock and never parks.
		if vm.parked.Load() != 0 {
			vm.mu.Lock()
			vm.wakeTurnLocked(ids.GCount(after))
			vm.mu.Unlock()
		}
		t.publishCounts()
		return
	}

	vm.mu.Lock()
	defer vm.mu.Unlock()
	vm.waitTurnLocked(t, next)
	sampled := uint64(next)&vm.sampleMask == 0
	var start time.Time
	if sampled {
		start = time.Now()
	}
	op(next)
	vm.observer(t.num, next)
	if sampled {
		vm.metrics.ObserveGCHold(time.Since(start))
	}
	after := uint64(next) + 1
	vm.clock.Store(after)
	t.countEvent(kind)
	vm.wakeTurnLocked(ids.GCount(after))
	if next == t.schedule[t.si].Last {
		t.publishCounts()
	}
}

// wakeTurnLocked hands the turn to the thread whose recorded event is gc, if
// one is parked. At most one thread ever waits per counter value, so this
// wakes exactly the successor; the watchdog's stall broadcast is the only
// all-waiter wakeup. The registration stays in place — the woken thread
// unregisters itself once it reacquires mu. Caller holds vm.mu.
func (vm *VM) wakeTurnLocked(gc ids.GCount) {
	if t := vm.turnWaiters[gc]; t != nil {
		select {
		case t.turnCh <- struct{}{}:
		default:
		}
	}
}

// awaitTurn blocks until the global counter reaches next without executing
// anything — the first half of a replayed blocking event.
func (vm *VM) awaitTurn(t *Thread, next ids.GCount) {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	vm.waitTurnLocked(t, next)
}

// waitTurnLocked parks the thread until the global counter reaches next,
// registering it in the successor-directed wakeup table (and with it the
// stall watchdog) and feeding the sampled turn-wait latency histogram.
// Caller holds vm.mu.
func (vm *VM) waitTurnLocked(t *Thread, next ids.GCount) {
	if ids.GCount(vm.clock.Load()) == next {
		return // its turn already: no wait to observe
	}
	sampled := uint64(next)&vm.sampleMask == 0
	var start time.Time
	if sampled {
		start = time.Now()
	}
	// Publish the parked count before re-checking the clock: a lock-free
	// advancer that misses it must have stored the new clock value first,
	// which the loop's re-check then sees (pairing in replayEvent).
	vm.parked.Add(1)
	vm.metrics.IncParked()
	for ids.GCount(vm.clock.Load()) != next {
		if vm.stalled.Load() {
			vm.parked.Add(-1)
			vm.metrics.DecParked()
			waiting := vm.waitingLocked()
			if waiting == nil {
				waiting = make(map[ids.ThreadNum]ids.GCount, 1)
			}
			waiting[t.num] = next // this thread is not in turnWaiters yet
			gc := ids.GCount(vm.clock.Load())
			panic(&DivergenceError{
				VM:     vm.id,
				Thread: t.num,
				Msg: fmt.Sprintf("replay stalled at counter %d; this thread waits for counter %d (parked threads: %v)",
					gc, next, waiting),
				GC:      gc,
				Waiting: waiting,
			})
		}
		vm.turnWaiters[next] = t
		vm.mu.Unlock()
		<-t.turnCh
		vm.mu.Lock()
		delete(vm.turnWaiters, next)
	}
	vm.parked.Add(-1)
	vm.metrics.DecParked()
	if sampled {
		vm.metrics.ObserveTurnWait(time.Since(start))
	}
}

// Blocking executes a critical event with blocking semantics, following the
// paper's marking strategy (§3, §4.1.3): performing such events inside the
// GC-critical section could deadlock the entire DJVM, so:
//
//   - Record: op runs outside the GC-critical section (it may block for as
//     long as it likes, other threads proceed); when it completes, the event
//     is marked — mark runs atomically with the counter update and receives
//     the event's counter value, which is therefore assigned at *completion*
//     of the blocking operation.
//   - Replay: the thread first waits (without executing any critical event)
//     until the global counter reaches the event's recorded value; it then
//     runs op *without holding the GC lock* — no other critical event can
//     proceed, since the counter has not advanced, but threads blocked in
//     their own Blocking ops or non-critical code continue — and finally
//     marks the event and advances the counter. Because record-phase
//     counters are assigned at completion, every event op causally depends
//     on has a smaller counter, so op cannot block indefinitely here.
//   - Passthrough: op runs bare; mark is skipped.
//
// Events issued through Blocking are attributed to obs.KindOther in the VM's
// metrics; runtime subsystems use BlockingKind to tag their events.
func (t *Thread) Blocking(op func(), mark func(gc ids.GCount)) {
	t.BlockingKind(obs.KindOther, op, mark)
}

// BlockingKind is Blocking with an explicit event-kind tag for the per-kind
// counters of the observability layer.
func (t *Thread) BlockingKind(kind obs.EventKind, op func(), mark func(gc ids.GCount)) {
	vm := t.vm
	switch vm.mode {
	case ids.Passthrough:
		op()
		t.maybeYield()
	case ids.Record:
		t.publishCounts()
		op()
		vm.recordEvent(t, kind, mark)
		t.maybeYield()
	case ids.Replay:
		next, ok := t.nextScheduled()
		if !ok {
			t.endOfSchedule("blocking critical event")
		}
		if ids.GCount(vm.clock.Load()) != next {
			vm.awaitTurn(t, next)
		}
		t.publishCounts()
		op()
		// Only this thread may advance the counter past next, so the inner
		// turn check in replayEvent passes immediately; the shared path keeps
		// the panic-safety discipline in one place.
		vm.replayEvent(t, kind, next, mark)
		t.advanceCursor()
	}
}

// CountNetworkEvent bumps the VM's network-event counter (the "#nw events"
// column of the tables). Called by the socket layer once per network event,
// in record and replay modes alike — event identification is independent of
// the recording methodology (§6). Lock-free: a single atomic add.
func (t *Thread) CountNetworkEvent() {
	vm := t.vm
	if vm.mode == ids.Passthrough {
		return
	}
	vm.metrics.IncNetworkEvent()
}

// Join blocks until the other thread's function has returned —
// Thread.join. The completion is witnessed by a blocking critical event
// marked after the child finished, so everything the child did is ordered
// before everything the joiner does next, in record and replay alike.
func (t *Thread) Join(other *Thread) {
	if other == t {
		panic("core: thread joining itself")
	}
	t.BlockingKind(obs.KindThread, func() { <-other.done }, func(ids.GCount) {})
}

// Sleep suspends the thread for d — Thread.sleep. The wakeup is a blocking
// critical event marked at completion, so everything that executed during
// the sleep is ordered before it. During replay the actual delay is elided:
// the recorded ordering alone reproduces the behavior, so replay runs
// "faster than real time" while remaining deterministic.
func (t *Thread) Sleep(d time.Duration) {
	switch t.vm.mode {
	case ids.Passthrough:
		time.Sleep(d)
	case ids.Record:
		t.BlockingKind(obs.KindThread, func() { time.Sleep(d) }, func(ids.GCount) {})
	case ids.Replay:
		t.BlockingKind(obs.KindThread, func() {}, func(ids.GCount) {})
	}
}

// Spawn creates a child thread running fn. Thread creation is a critical
// event, so creation order — and with it ThreadNum assignment — is identical
// in record and replay.
func (t *Thread) Spawn(fn func(t *Thread)) *Thread {
	vm := t.vm
	var child *Thread
	if vm.mode == ids.Passthrough {
		vm.threadsMu.Lock()
		child = vm.newThreadLocked()
		vm.threadsMu.Unlock()
	} else {
		t.CriticalKind(obs.KindThread, func(ids.GCount) {
			vm.threadsMu.Lock()
			child = vm.newThreadLocked()
			vm.threadsMu.Unlock()
		})
	}
	vm.launch(child, fn)
	return child
}

// extendIntervalLocked folds one critical event into the thread's current
// logical schedule interval, flushing the previous interval — and publishing
// the thread's event counts — when another thread's event broke
// consecutiveness (§2.2). Caller holds vm.mu and runs on t's goroutine.
func (t *Thread) extendIntervalLocked(gc ids.GCount) {
	if t.intOpen && gc == t.intLast+1 {
		t.intLast = gc
		return
	}
	t.flushIntervalLocked()
	t.intFirst, t.intLast, t.intOpen = gc, gc, true
	t.publishCounts()
}

// flushIntervalLocked appends the open interval, if any, to the schedule log.
// Caller holds vm.mu.
func (t *Thread) flushIntervalLocked() {
	if !t.intOpen {
		return
	}
	t.intOpen = false
	if t.vm.logs != nil {
		t.vm.logs.Schedule.Append(&tracelog.Interval{
			Thread: t.num,
			First:  t.intFirst,
			Last:   t.intLast,
		})
		t.vm.metrics.IncInterval()
	}
}

// finish closes the thread's record-mode interval state. Idempotent; called
// when the thread function returns and again defensively from VM.Close.
func (t *Thread) finish() {
	vm := t.vm
	if vm.mode != ids.Record {
		return
	}
	vm.mu.Lock()
	if !t.finished {
		t.finished = true
		t.flushIntervalLocked()
	}
	vm.mu.Unlock()
}

// nextScheduled reports the counter value of this thread's next recorded
// critical event.
func (t *Thread) nextScheduled() (ids.GCount, bool) {
	for t.si < len(t.schedule) {
		iv := t.schedule[t.si]
		if !t.posInit {
			t.pos = iv.First
			t.posInit = true
		}
		if t.pos <= iv.Last {
			return t.pos, true
		}
		t.si++
		t.posInit = false
	}
	return 0, false
}

// advanceCursor moves past the critical event just executed.
func (t *Thread) advanceCursor() {
	t.pos++
	if t.si < len(t.schedule) && t.pos > t.schedule[t.si].Last {
		t.si++
		t.posInit = false
	}
}

// RemainingScheduled reports how many recorded critical events this thread
// has not yet replayed. Zero for non-replay modes.
func (t *Thread) RemainingScheduled() uint64 {
	var total uint64
	for i := t.si; i < len(t.schedule); i++ {
		iv := t.schedule[i]
		first := iv.First
		if i == t.si && t.posInit {
			first = t.pos
		}
		if first <= iv.Last {
			total += uint64(iv.Last-first) + 1
		}
	}
	return total
}
