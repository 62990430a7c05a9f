package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/tracelog"
)

// Sharded object-order recording (Config.OrderMode == OrderSharded).
//
// The paper's scheme totally orders every critical event of a VM through one
// global counter, which serializes record-mode threads on vm.mu and replays
// one event at a time VM-wide. The DOR/iReplayer relaxation recorded here
// instead gives each *registered shared object* its own access counter: the
// recorder logs per-object access runs ⟨objectId, firstSeq, lastSeq, thread⟩
// (run-length-compressed exactly like schedule intervals), and replay enforces
// only each object's recorded access order via a per-object FIFO turnstile
// whose ticket is the recorded accessSeq. Per-thread program order is implicit
// (a thread executes its own events sequentially; progSeq counts them
// lock-free for diagnostics), and the combination of per-object total order
// with per-thread program order reproduces the recorded execution: any two
// conflicting events touch the same object and are ordered by its counter,
// and all cross-object ordering is induced transitively through program order.
//
// Events with no registered object — network, environment, thread lifecycle,
// checkpoints, and accesses to *unregistered* objects (e.g. a Barrier's
// internal monitor) — keep the global mechanism unchanged: they tick the
// global counter, record schedule intervals, and replay through the global
// turnstile. The two mechanisms compose because a thread participates in only
// one of them at a time and both assign counters at event completion.
//
// Registration contract: objects must be registered in a deterministic order
// — the same order in the record and the replay run — and before the threads
// that access them start. ObjectIDs are assigned sequentially at registration,
// so deterministic registration order is what makes an object's identity
// stable across phases (the way creation order makes ThreadNum stable).

// objState is the per-object order state: the sharded-mode analogue of the
// VM-global clock + turnWaiters pair, scoped to one registered object.
type objState struct {
	vm *VM
	id ids.ObjectID

	// mu is the short per-object lock: the record-phase access-counter
	// critical section, and the replay-phase park/wake bookkeeping lock.
	// It is never held across a blocking operation, and never nested with
	// vm.mu or another object's mu.
	mu sync.Mutex

	// Record state, guarded by mu: the next access sequence number and the
	// open access run (maximal span of consecutive accesses by one thread),
	// run-length-compressed like a thread's schedule interval.
	seq       ids.AccessSeq
	runOpen   bool
	runThread ids.ThreadNum
	runFirst  ids.AccessSeq
	runLast   ids.AccessSeq

	// Replay state. next is the turnstile: the access sequence number
	// currently admitted. The recorded order admits exactly one thread per
	// seq value, so the turnstile itself provides mutual exclusion and the
	// admitted thread advances it lock-free; mu guards only waiters.
	// cursors is built at registration and read-only afterwards; each thread
	// touches only its own cursor.
	next    atomic.Uint64
	parked  atomic.Int64
	waiters map[ids.AccessSeq]*Thread
	cursors map[ids.ThreadNum]*objCursor
}

// objCursor walks one thread's recorded access runs of one object, mirroring
// the thread's global schedule cursor. Only the owning thread touches it.
type objCursor struct {
	runs    []tracelog.ObjRun
	ri      int
	pos     ids.AccessSeq
	posInit bool
}

func (c *objCursor) nextSeq() (ids.AccessSeq, bool) {
	if c == nil {
		return 0, false
	}
	for c.ri < len(c.runs) {
		r := c.runs[c.ri]
		if !c.posInit {
			c.pos = r.First
			c.posInit = true
		}
		if c.pos <= r.Last {
			return c.pos, true
		}
		c.ri++
		c.posInit = false
	}
	return 0, false
}

func (c *objCursor) advance() {
	c.pos++
	if c.ri < len(c.runs) && c.pos > c.runs[c.ri].Last {
		c.ri++
		c.posInit = false
	}
}

// remaining counts the not-yet-replayed accesses on this cursor.
func (c *objCursor) remaining() uint64 {
	if c == nil {
		return 0
	}
	var total uint64
	for i := c.ri; i < len(c.runs); i++ {
		r := c.runs[i]
		first := r.First
		if i == c.ri && c.posInit {
			first = c.pos
		}
		if first <= r.Last {
			total += uint64(r.Last-first) + 1
		}
	}
	return total
}

// Sharded reports whether the VM records/replays per-object access order.
func (vm *VM) Sharded() bool { return vm.orderMode == ids.OrderSharded }

// registerObject allocates the next ObjectID and its order state. Outside
// sharded record/replay it returns nil and consumes no ID, so applications
// can register unconditionally and flip OrderMode in the config; in sharded
// mode the record and replay runs consume IDs identically.
func (vm *VM) registerObject() *objState {
	if vm.orderMode != ids.OrderSharded || vm.mode == ids.Passthrough {
		return nil
	}
	o := &objState{vm: vm, id: ids.ObjectID(vm.nextObjID.Add(1) - 1)}
	if vm.mode == ids.Replay {
		runs := vm.schedIdx.ObjRuns[o.id]
		o.cursors = make(map[ids.ThreadNum]*objCursor, 4)
		for _, r := range runs {
			c := o.cursors[r.Thread]
			if c == nil {
				c = &objCursor{}
				o.cursors[r.Thread] = c
			}
			c.runs = append(c.runs, r)
		}
		o.waiters = make(map[ids.AccessSeq]*Thread)
	}
	vm.objsMu.Lock()
	vm.objs = append(vm.objs, o)
	vm.objsMu.Unlock()
	return o
}

// ObjectCount reports how many objects have been registered for sharded
// ordering (0 outside sharded mode).
func (vm *VM) ObjectCount() int {
	vm.objsMu.Lock()
	defer vm.objsMu.Unlock()
	return len(vm.objs)
}

// criticalObj executes op as one non-blocking critical event of object o —
// the sharded analogue of CriticalKind. op receives the event's accessSeq.
func (t *Thread) criticalObj(o *objState, kind obs.EventKind, op func(seq ids.AccessSeq)) {
	switch t.vm.mode {
	case ids.Record:
		o.record(t, kind, op)
		t.maybeYield()
	case ids.Replay:
		cur := o.cursors[t.num]
		seq, ok := cur.nextSeq()
		if !ok {
			t.endOfScheduleObj(o, "critical event")
		}
		o.replayEvent(t, cur, kind, seq, op)
		cur.advance()
	}
}

// blockingObj executes a blocking critical event of object o — the sharded
// analogue of BlockingKind: op runs outside the per-object critical section
// and the event is marked (and its accessSeq assigned) at completion.
func (t *Thread) blockingObj(o *objState, kind obs.EventKind, op func(), mark func(seq ids.AccessSeq)) {
	switch t.vm.mode {
	case ids.Record:
		t.publishCounts()
		op()
		o.record(t, kind, mark)
		t.maybeYield()
	case ids.Replay:
		cur := o.cursors[t.num]
		seq, ok := cur.nextSeq()
		if !ok {
			t.endOfScheduleObj(o, "blocking critical event")
		}
		// Wait for the object turn first, without executing anything: every
		// event op causally depends on carries a smaller accessSeq (counters
		// are assigned at completion), so once this seq is admitted op cannot
		// block indefinitely.
		if ids.AccessSeq(o.next.Load()) != seq {
			o.awaitSeq(t, seq)
		}
		t.publishCounts()
		op()
		o.replayEvent(t, cur, kind, seq, mark)
		cur.advance()
	}
}

// endOfScheduleObj resolves a sharded replay attempt beyond the object's
// recorded accesses; never returns.
func (t *Thread) endOfScheduleObj(o *objState, what string) {
	if t.vm.stopAtLogEnd {
		panic(replayLogEnd{})
	}
	t.diverge("%s on %v attempted beyond recorded schedule (program-order event %d)",
		what, o.id, t.progSeq)
}

// record is the per-object critical section of the record phase: access
// counter update and event execution as one atomic operation, under the
// object's own lock instead of vm.mu. The deferred unlock keeps the object
// consistent when op panics: seq has not ticked and no run was extended, as
// if the event never happened.
func (o *objState) record(t *Thread, kind obs.EventKind, op func(seq ids.AccessSeq)) {
	fast := o.mu.TryLock()
	if !fast {
		o.mu.Lock()
	}
	defer o.mu.Unlock()
	seq := o.seq
	op(seq)
	o.seq = seq + 1
	t.progSeq++
	t.countShardEvent(kind, fast)
	if o.runOpen && o.runThread == t.num {
		o.runLast = seq
	} else {
		o.flushRunLocked()
		o.runThread, o.runFirst, o.runLast, o.runOpen = t.num, seq, seq, true
		t.publishCounts()
	}
}

// countShardEvent is countEvent for a sharded event, which also counts how
// its object acquisition resolved.
func (t *Thread) countShardEvent(kind obs.EventKind, fast bool) {
	if fast {
		t.pendingFast++
	} else {
		t.pendingContended++
	}
	t.countEvent(kind)
}

// flushRunLocked appends the open access run, if any, to the schedule log.
// Caller holds o.mu; per-object append order is access order, which is what
// BuildScheduleIndex validates.
func (o *objState) flushRunLocked() {
	if !o.runOpen {
		return
	}
	o.runOpen = false
	o.vm.logs.Schedule.Append(&tracelog.ObjRun{
		Obj:    o.id,
		Thread: o.runThread,
		First:  o.runFirst,
		Last:   o.runLast,
	})
	o.vm.metrics.IncObjRun()
}

// flushObjRuns closes every registered object's open access run (record-mode
// finalization, called from VM.Close before the final vm-meta record).
func (vm *VM) flushObjRuns() {
	vm.objsMu.Lock()
	objs := vm.objs
	vm.objsMu.Unlock()
	for _, o := range objs {
		o.mu.Lock()
		o.flushRunLocked()
		o.mu.Unlock()
	}
}

// replayEvent admits the thread through the object's turnstile at seq,
// executes op, and advances the turnstile — the per-object mirror of the
// VM-global replayEvent fast path. The recorded order admits exactly one
// thread per seq value, so op needs no lock: until the turnstile advances no
// other thread may execute an event on this object, and threads replaying
// *other* objects proceed concurrently — the point of the mode. As in the
// global path, a successor can only be parked on the value after the Last
// access of the thread's current run (cur), so only that access looks for one.
func (o *objState) replayEvent(t *Thread, cur *objCursor, kind obs.EventKind, seq ids.AccessSeq, op func(seq ids.AccessSeq)) {
	fast := true
	if ids.AccessSeq(o.next.Load()) != seq {
		o.awaitSeq(t, seq)
		fast = false
	}
	op(seq)
	after := uint64(seq) + 1
	o.next.Store(after)
	t.progSeq++
	t.countShardEvent(kind, fast)
	if seq != cur.runs[cur.ri].Last {
		return
	}
	// Store-buffering pairing with awaitSeq, as in the global fast path: the
	// turnstile store above is sequenced before this parked load, and a
	// waiter publishes its parked count before re-checking the turnstile — so
	// either the waiter is visible here, or it sees the advanced turnstile
	// and never parks.
	if o.parked.Load() != 0 {
		o.mu.Lock()
		if w := o.waiters[ids.AccessSeq(after)]; w != nil {
			select {
			case w.turnCh <- struct{}{}:
			default:
			}
		}
		o.mu.Unlock()
	}
	t.publishCounts()
}

// awaitSeq parks the thread until the object's turnstile admits seq,
// registering it for successor-directed wakeup (and, via objParked, with the
// stall watchdog). The thread's turnCh is reused across the global and
// per-object turnstiles — a thread waits on at most one at a time, and both
// wait loops re-check their condition, so a stale token from a previous wake
// causes one spurious loop iteration at worst.
func (o *objState) awaitSeq(t *Thread, seq ids.AccessSeq) {
	vm := o.vm
	o.mu.Lock()
	defer o.mu.Unlock()
	if ids.AccessSeq(o.next.Load()) == seq {
		return
	}
	sampled := uint64(seq)&vm.sampleMask == 0
	var start time.Time
	if sampled {
		start = time.Now()
	}
	o.parked.Add(1)
	vm.objParked.Add(1)
	vm.metrics.IncParked()
	for ids.AccessSeq(o.next.Load()) != seq {
		if vm.stalled.Load() {
			o.parked.Add(-1)
			vm.objParked.Add(-1)
			vm.metrics.DecParked()
			panic(&DivergenceError{
				VM:     vm.id,
				Thread: t.num,
				Msg: fmt.Sprintf("replay stalled; this thread waits for access %d of %v (turnstile at %d, program-order event %d)",
					seq, o.id, o.next.Load(), t.progSeq),
				GC: ids.GCount(vm.clock.Load()),
			})
		}
		o.waiters[seq] = t
		o.mu.Unlock()
		<-t.turnCh
		o.mu.Lock()
		delete(o.waiters, seq)
	}
	o.parked.Add(-1)
	vm.objParked.Add(-1)
	vm.metrics.DecParked()
	if sampled {
		vm.metrics.ObserveTurnWait(time.Since(start))
	}
}

// wakeAllObjWaiters sends a wake token to every thread parked on an object
// turnstile — the watchdog's stall broadcast for the sharded side. Caller
// must NOT hold vm.mu (lock order: o.mu is never nested inside vm.mu).
func (vm *VM) wakeAllObjWaiters() {
	vm.objsMu.Lock()
	objs := append([]*objState(nil), vm.objs...)
	vm.objsMu.Unlock()
	for _, o := range objs {
		o.mu.Lock()
		for _, t := range o.waiters {
			select {
			case t.turnCh <- struct{}{}:
			default:
			}
		}
		o.mu.Unlock()
	}
}
