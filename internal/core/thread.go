package core

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/ids"
	"repro/internal/obs"
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

	// Replay-mode schedule cursors, indexed by stream slot: the global
	// stream's is built at thread creation, an object's on first access.
	// Only the owning goroutine touches them.
	cursors []*cursor
	// run is the cursor of the stream of the thread's last replayed event (the
	// global stream's at first), the one that may hold an armed stretch.
	run *cursor

	// turnCh delivers this thread's wake token when its awaited counter
	// value is reached (successor-directed wakeup; see stream.waiters).
	// Buffered so the waker never blocks; at most one token is ever
	// outstanding because each counter value has a single waiter.
	turnCh chan struct{}

	// rng drives record-mode scheduler jitter. Only the owning goroutine
	// touches it; zero means unseeded.
	rng uint64

	// Event accounting, local to the owning goroutine: executed events by
	// kind (and, for sharded ones, how the object acquisition resolved) since
	// the last publishCounts. The shared obs counters see one add per kind per
	// batch instead of one per event.
	pending          [obs.NumEventKinds]uint32
	pendingN         uint32
	pendingFast      uint32
	pendingContended uint32

	// done is closed when the thread's function returns; Join blocks on it.
	done chan struct{}

	// Threads are allocated side by side, and each writes its counts and
	// reads its header on every event: a Thread fills whole cache lines (the
	// allocator puts an object whose size is a multiple of 64 bytes on a line
	// boundary), so no two threads running in parallel share one.
	// TestThreadFillsWholeCacheLines keeps it so.
	_ [64]byte
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
// lag the live total by less than this per running thread, and a counter's
// published word lags the counter — while a thread records — or the position
// of the thread that holds its turn — while one replays — by less than this.
// A replaying thread reads the bound through VM.unpublished, which the stall
// watchdog lowers to zero while it needs every word exact.
const publishBatch = 1024

// countEvents counts n executed critical events of kind locally; the caller
// publishes when an unbroken run fills a batch. Callers tick the events'
// stream counter first.
func (t *Thread) countEvents(kind obs.EventKind, n uint32) {
	if int(kind) >= obs.NumEventKinds {
		kind = obs.KindOther
	}
	t.pending[kind] += n
	t.pendingN += n
}

// publishCounts moves the thread's locally counted events into the VM's
// metrics: at every run boundary the thread itself crosses, when a batch
// fills, before an operation that may block, and when the thread exits by any
// path. Owning goroutine only.
//
// It is the one place a thread's counts become visible, and it publishes the
// counter first: the word then covers every event about to be counted by
// kind, so a reader's per-kind sum never runs ahead of its total. While
// recording that is the global counter (stream.publishLocked): held is the
// stream whose lock the caller holds, nil for none; the first two sites
// publish from inside the section they are already in, the other two pay one
// round trip on the global lock. An object's section never holds uncounted
// global events (record publishes them on the way in), so stream locks
// still never nest. While replaying it is the word of every stream whose turn
// the thread holds (cursor.publish), so words and counts go out together: a
// word trails its holder by no more than the holder's unpublished counts, and
// a thread with nothing counted locally has every word it holds exact.
func (t *Thread) publishCounts(held *stream) {
	t.settle()
	if t.pendingN == 0 {
		return
	}
	vm := t.vm
	if vm.mode == ids.Record && t.pendingN != t.pendingFast+t.pendingContended {
		if g := vm.global; held == g {
			g.publishLocked()
		} else {
			g.mu.Lock()
			g.publishLocked()
			g.mu.Unlock()
		}
	}
	for _, c := range t.cursors { // replay only
		if c != nil {
			c.publish()
		}
	}
	m := vm.metrics
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

// Clock reports the VM's global counter as the calling thread may rely on it:
// exact in every mode for the thread that asks between two of its own events,
// which is what a program needs to decide its control flow by the counter — a
// loop bounded by it runs the same number of rounds in record and in replay.
// A replaying thread publishes its own position first (it may hold the
// counter's turn, with the word up to a batch behind); a recording one reads
// under the lock like VM.Clock, and must not call it from inside an event.
// Owning goroutine only.
func (t *Thread) Clock() ids.GCount {
	if t.vm.mode == ids.Replay {
		t.publishCounts(nil)
	}
	return t.vm.Clock()
}

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
	// Parked lists, by thread number, the threads parked when a stall was
	// detected, each with the order stream it was parked on and the value it
	// waited for there (nil when the failure was not a stall).
	Parked []ParkedThread
}

func (e *DivergenceError) Error() string {
	return fmt.Sprintf("core: replay divergence on vm %d thread %d: %s", e.VM, e.Thread, e.Msg)
}

func (t *Thread) diverge(format string, args ...any) {
	panic(&DivergenceError{
		VM:     t.vm.id,
		Thread: t.num,
		Msg:    fmt.Sprintf(format, args...),
		GC:     t.Clock(),
	})
}

// Crash is the value an EventObserver panics with to fail-stop its recording
// VM at the observed event, as a kill stops a process between two
// instructions: the event is not logged, no later event of the VM runs, and
// each of its threads — queued on the section, waiting in a monitor, or
// joining a crashed one — ends as if returned (VM.launch absorbs the value).
type Crash struct{}

// wait blocks until ch is closed, or unwinds the thread once its VM crashes.
func (t *Thread) wait(ch chan struct{}) {
	select {
	case <-ch:
	case <-t.vm.crashed:
		panic(Crash{})
	}
}

// replayLogEnd is the private panic signal a thread raises to abandon its
// function when it runs out of recorded schedule under Config.StopAtLogEnd;
// VM.launch absorbs it and winds the thread down as a normal return.
type replayLogEnd struct{}

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
	t.critical(t.vm.global, kind, op)
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
	t.blocking(t.vm.global, kind, op, mark)
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
	t.BlockingKind(obs.KindThread, func() {
		if t.vm.mode != ids.Replay {
			time.Sleep(d)
		}
	}, func(ids.GCount) {})
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

// EndOfSchedule is endOfSchedule on the global stream for the network-event
// layer, which can tell before it asks for a turn that the thread has run off
// its recording: the event at hand left no record and RemainingScheduled is
// zero. what names the event. Replay only; never returns.
func (t *Thread) EndOfSchedule(what string) {
	t.endOfSchedule(t.vm.global, what)
}

// RemainingScheduled reports how many recorded critical events this thread
// has not yet replayed, on every order stream. Zero for non-replay modes.
func (t *Thread) RemainingScheduled() uint64 {
	if t.vm.mode != ids.Replay {
		return 0
	}
	var total uint64
	for _, s := range t.vm.allStreams() {
		total += t.cursor(s).remaining()
	}
	return total
}
