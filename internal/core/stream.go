package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/tracelog"
)

// stream is one order stream: a counter that ticks once per critical event,
// the lock that makes tick + event one atomic operation while recording, the
// one open run ⟨thread, first, last⟩ of consecutive ticks by a single thread,
// and the replay turnstile that admits each counter value to the thread that
// recorded it. It is the paper's whole mechanism (§2.2) — one counter, one
// interval list, one wait-for-your-turn rule — and the runtime has exactly one
// implementation of it, instantiated
//
//   - once per VM for the global counter (VM.global): every network,
//     environment, thread-lifecycle and checkpoint event, and every access to
//     an unregistered object, is an access to this one distinguished stream;
//   - once per registered object under OrderSharded (Fu et al.'s distributed
//     order recording): the object's accesses are ordered by its own counter,
//     so threads touching disjoint objects record and replay concurrently.
//
// The two mechanisms compose because a thread takes part in one stream at a
// time and every stream assigns counter values at event completion: any two
// conflicting events share a stream and are ordered by its counter, and all
// cross-stream order is induced through per-thread program order.
//
// What is paid per event is the event itself and, while recording, one lock
// round trip — the counter is a plain field the lock guards, so nothing else
// on the path is atomic — or, while replaying, no access to the counter word
// and no write to anything shared: a thread takes the turn at a run's first
// event (one load of the word) and gives it up at its last (one store), and
// in between its position is its own. Everything else is per run too: the log
// record, the parked-successor lookup, the publication of the counter and the
// counts.
//
// At most one run is open per stream. A run ends when another thread takes
// the counter over, and the taker flushes it — so a stream's runs reach the
// schedule log in counter order, and a thread parked in a long blocking event
// never holds an unflushed run hostage: the next event on the stream, whoever
// executes it, flushes it.
//
// Counter values are typed ids.GCount on every stream; on an object's stream
// they are its ids.AccessSeq values, converted where log records are built.
type stream struct {
	// Fixed once the stream is set up, so this cache line is only ever read.
	vm *VM
	// slot is the stream's rank among the VM's streams: 0 is the global
	// stream, slot-1 the ObjectID of a registered object. It also indexes each
	// thread's cursor table.
	slot int
	// clock is the counter word. Replay's turnstile runs on it: it admits the
	// thread whose run starts at the value it holds, and that thread — the
	// word's only writer until it stores its run's Last+1 — publishes its
	// position into it per run, not per event (cursor.publish has the rule). A
	// recording stream counts in next, below, under mu; the global stream then
	// publishes next into the word at run granularity for readers outside the
	// lock (publishLocked), and an object's stream never writes it. The global
	// stream's word lives in obs.Metrics, alone on its cache line, where the
	// clock gauge and the event total read it; an object's is own, below.
	clock *atomic.Uint64
	// Cadences of the global stream; nil/0 (holdMask: all ones) on every other.
	//
	// holdMask selects the recorded events whose execution time is sampled
	// into the GC-hold histogram — those with n&holdMask == 0. The histogram
	// describes the record phase's global critical section, so an object's
	// stream contributes nothing past its first event, threads on disjoint
	// objects never meet on the histogram's words, and replay, which holds no
	// section, never reads the mask. observer is Config.EventObserver.
	// noteEvery is the open-run durability note cadence (events between notes)
	// while a WAL is attached: each note snapshots the still-open run into the
	// WAL so crash recovery can credit events no flushed interval covers yet.
	// traced is EnableCausalTrace's switch: a wall-clock stamp every
	// stampEvery events (stamps carry no schedule semantics) and net spans.
	holdMask  uint64
	observer  func(thread ids.ThreadNum, gc ids.GCount)
	noteEvery uint64
	traced    bool
	// waiters is the replay turnstile's table: a parked thread registers under
	// the counter value it awaits; each value belongs to at most one thread,
	// so advancing the counter wakes exactly the successor (the stall
	// watchdog's broadcast is the only all-waiter wakeup). Guarded by mu.
	waiters map[ids.GCount]*Thread

	// mu is the critical-section lock. Record: counter tick + event execution
	// are atomic under it. Replay: the recorded order admits one thread per
	// counter value, so the schedule itself is the mutual exclusion and mu
	// guards only the park/wake bookkeeping — except with an observer, whose
	// events keep the section locked. Never held across a blocking operation
	// and never nested with another stream's. parked counts the threads
	// registered in waiters and is the cue for a thread ending a run to take
	// mu and hand over the turn. Recorders waiting for mu fight over this
	// cache line, so it holds nothing the lock's holder touches per event: the
	// fields above and below sit on lines of their own (the struct is three
	// lines long and allocated line-aligned).
	mu     sync.Mutex
	parked atomic.Int64
	_      [48]byte

	// What the thread whose turn it is writes: replaying, an object stream's
	// counter word; recording, the counter itself — next, the value the next
	// event receives — and the open run, all guarded by mu. sched is the
	// stream's recorded schedule while replaying, read-only: each thread's
	// runs, its notifies and timed waits (the global stream's runs are handed
	// to each thread at creation, VM.newThreadLocked).
	own       atomic.Uint64
	next      ids.GCount
	open      bool
	dead      bool // an observer panicked (exec)
	runThread ids.ThreadNum
	first     ids.GCount
	last      ids.GCount
	sched     *tracelog.StreamSchedule
	_         [16]byte
}

// newStream allocates the VM's next stream. Caller holds streamsMu (or is
// NewVM).
func (vm *VM) newStream() *stream {
	s := &stream{vm: vm, slot: len(vm.streams), holdMask: ^uint64(0)}
	s.clock = &s.own
	if vm.mode == ids.Replay {
		s.waiters = make(map[ids.GCount]*Thread)
	}
	vm.streams = append(vm.streams, s)
	return s
}

// registerObject gives a shared object its own order stream. Outside sharded
// record/replay it returns nil — the object stays on the global stream — and
// consumes no ObjectID, so applications can register unconditionally and
// select the mode in the config.
//
// Registration contract: objects must be registered in a deterministic order —
// the same in the record and the replay run — and before the threads that
// access them start. ObjectIDs are assigned sequentially, so registration
// order is what makes an object's identity stable across phases (the way
// creation order makes ThreadNum stable).
func (vm *VM) registerObject() *stream {
	if vm.orderMode != ids.OrderSharded || vm.mode == ids.Passthrough {
		return nil
	}
	vm.streamsMu.Lock()
	defer vm.streamsMu.Unlock()
	s := vm.newStream()
	if vm.mode == ids.Replay {
		s.sched = vm.schedIdx.Stream(s.id())
	}
	return s
}

// allStreams snapshots the VM's streams, the global one first.
func (vm *VM) allStreams() []*stream {
	vm.streamsMu.Lock()
	defer vm.streamsMu.Unlock()
	return append([]*stream(nil), vm.streams...)
}

// streamFor resolves a primitive's stream: the object's own when it was
// registered on this thread's VM, the VM's global stream otherwise.
func (t *Thread) streamFor(s *stream) *stream {
	if s != nil && s.vm == t.vm {
		return s
	}
	return t.vm.global
}

// cursor walks one thread's recorded runs of one stream. Only the owning
// thread touches it. While ri < len(runs), pos is the thread's next recorded
// counter value on the stream and last the Last of the run it lies in; obj is
// the stream as a primitive names it (nil for the global one: SharedInt.order).
//
// held says the thread has the stream's turn: its wait for the word to reach
// the First of the run (or the resume counter, inside one) has passed, and
// until it stores the run's Last+1 no other thread can be admitted, whatever
// the word reads in between. pub is what the word reads while held — this
// thread last wrote it. On Thread.run's cursor, the stretch from from to stop
// runs in place — events of kind, no load or store of the word, no count —
// and Thread.settle counts it. replayEvent arms it with stop short of the
// run's Last and of the room left in the thread's batch, never on an
// observed stream.
type cursor struct {
	pos, stop, from ids.GCount
	s, obj          *stream
	kind            obs.EventKind
	runs            []tracelog.Interval
	ri              int
	last, pub       ids.GCount
	held            bool
}

func newCursor(s *stream, runs []tracelog.Interval) *cursor {
	c := &cursor{s: s, runs: runs}
	if !s.isGlobal() {
		c.obj = s
	}
	if len(runs) > 0 {
		c.pos, c.from, c.last = runs[0].First, runs[0].First, runs[0].Last
	}
	return c
}

// publish makes the stream's word exact: the position of the thread that
// holds the turn. It is the replay path's one store of a counter word, and the
// publication rule is the mirror of the recorder's (stream.publishLocked):
// the word is exact wherever the runtime takes its holder off the event path
// — it is stored when a run ends (Last+1, which admits the successor), before
// the op of a blocking event, when the thread parks on another stream or in a
// monitor's wait set, asks for its clock, diverges, or leaves its function by
// any path — and inside a run, running or paused in code the runtime cannot
// see, it trails the position by less than publishBatch, never leads it, and
// is stored before the event counts it covers (Thread.publishCounts). Nobody
// can be waiting for a value inside a run, so between those points the store
// would have no reader that acts on it.
func (c *cursor) publish() {
	if c.held && c.pub != c.pos {
		c.s.clock.Store(uint64(c.pos))
		c.pub = c.pos
	}
}

// nextRun moves past the run whose Last event just executed.
func (c *cursor) nextRun() {
	if c.ri++; c.ri < len(c.runs) {
		r := c.runs[c.ri]
		c.pos, c.from, c.last = r.First, r.First, r.Last
	}
}

// remaining counts the recorded events not yet replayed.
func (c *cursor) remaining() uint64 {
	var total uint64
	for i := c.ri; i < len(c.runs); i++ {
		first := c.runs[i].First
		if i == c.ri {
			first = c.pos
		}
		total += uint64(c.runs[i].Last-first) + 1
	}
	return total
}

// cursor returns the thread's cursor over s, built from the stream's recorded
// runs on first use.
func (t *Thread) cursor(s *stream) *cursor {
	if s.slot < len(t.cursors) {
		if c := t.cursors[s.slot]; c != nil {
			return c
		}
	}
	for len(t.cursors) <= s.slot {
		t.cursors = append(t.cursors, nil)
	}
	c := newCursor(s, s.sched.Runs[t.num])
	t.cursors[s.slot] = c
	return c
}

// endOfSchedule resolves a replay attempt beyond the thread's recorded events
// on s: a clean stop under StopAtLogEnd (crash-recovery replay reached the
// crash point), a divergence otherwise. Never returns.
func (t *Thread) endOfSchedule(s *stream, what string) {
	if t.vm.stopAtLogEnd {
		panic(replayLogEnd{})
	}
	t.diverge("%s attempted beyond the recorded schedule of the %s", what, s.id())
}

// critical executes op as one non-blocking critical event of stream s; see
// Thread.Critical for the per-mode discipline.
//
// The Replay arm replays the event in place when t.run is s's cursor and
// inPlace allows it: op, then the position. Every other event is
// replayEvent's.
func (t *Thread) critical(s *stream, kind obs.EventKind, op func(ids.GCount)) {
	switch t.vm.mode {
	case ids.Passthrough:
		op(0)
		t.maybeYield()
	case ids.Record:
		t.record(s, kind, op, nil, false, 0)
	case ids.Replay:
		if c := t.run; c.s != s {
			t.replayEvent(s, t.cursor(s), kind, op)
		} else if t.inPlace(c, kind) {
			op(c.pos)
			c.pos++
		} else {
			t.replayEvent(s, c, kind, op)
		}
	}
}

// inPlace reports whether the thread's next event, of kind on the stream of
// c = t.run, is in c's armed stretch while the stall watchdog is not asking
// (then every event publishes). Such an event is its body and then c.pos++,
// in critical or inline in SharedInt.Get and Set: if the body panics, the
// position has not moved and the turn stays held.
func (t *Thread) inPlace(c *cursor, kind obs.EventKind) bool {
	return c.kind == kind && c.pos < c.stop && t.vm.unpublished.Load() != 0
}

// settle counts t.run's stretch so far: in replayEvent, and in publishCounts,
// which every block, park, exit, Clock and full batch passes.
func (t *Thread) settle() {
	if c := t.run; c != nil && c.pos != c.from {
		t.countEvents(c.kind, uint32(c.pos-c.from))
		if c.obj != nil {
			t.pendingFast += uint32(c.pos - c.from)
		}
		c.from = c.pos
	}
}

// blocking executes a blocking critical event of stream s: op runs outside
// the critical section and the event is marked, and its counter value
// assigned, at completion; see Thread.Blocking.
func (t *Thread) blocking(s *stream, kind obs.EventKind, op func(), mark func(ids.GCount)) {
	switch t.vm.mode {
	case ids.Passthrough:
		op()
		t.maybeYield()
	case ids.Record:
		t.publishCounts(nil)
		op()
		t.record(s, kind, mark, nil, false, 0)
	case ids.Replay:
		c := t.cursor(s)
		// Take the turn first, without executing anything: every event op
		// causally depends on carries a smaller counter value (values are
		// assigned at completion), so once this one is admitted op cannot
		// block indefinitely.
		t.takeTurn(s, c, "blocking critical event")
		// op may block for as long as it likes: the thread stops running
		// events, so its words and counts become exact first.
		t.publishCounts(nil)
		op()
		// The turn is held, so the mark runs without waiting.
		t.replayEvent(s, c, kind, mark)
	}
}

// exec executes the recorded event with counter value n under mu — the
// critical section: op, or with op nil recordInt's SharedInt access — timing
// it into the GC-hold histogram when n is sampled and reporting it to the
// observer when there is one. It is the path of every event that runs code
// which may panic (a MonitorStateError the application recovers from, say, or
// an observer's Crash): the deferred unlock then releases the section before
// the counter ticks, as if the event never happened. An observer's panic
// first leaves the stream dead: no later event of the VM runs (VM.crashed).
// Replay holds no section (its turn is the mutual exclusion): GC-hold is a
// record-phase histogram.
func (s *stream) exec(t *Thread, n ids.GCount, op func(ids.GCount), p *int64, set bool, v int64) int64 {
	if s.dead {
		s.mu.Unlock()
		panic(Crash{})
	}
	done := false
	defer func() {
		if !done {
			if s.dead {
				close(s.vm.crashed)
			}
			s.mu.Unlock()
		}
	}()
	sampled := uint64(n)&s.holdMask == 0
	var start time.Duration
	if sampled {
		start = time.Since(s.vm.epoch)
	}
	if op != nil {
		op(n)
	} else {
		v = accessInt(p, set, v)
	}
	if s.observer != nil {
		s.dead = true // until the observer returns
		s.observer(t.num, n)
		s.dead = false
	}
	if sampled {
		s.vm.metrics.ObserveGCHold(time.Since(s.vm.epoch) - start)
	}
	done = true
	return v
}

// lockedTick is a replayed event inside the critical section — the replay of
// an observed stream, preserving the EventObserver contract that callbacks are
// totally ordered under the lock and that the stall watchdog's progress probe
// serializes behind a blocking callback. The word is exact at every event: an
// observer may stop inside one for good.
func (s *stream) lockedTick(t *Thread, c *cursor, op func(ids.GCount)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	op(c.pos)
	s.observer(t.num, c.pos)
	c.pos++
	c.publish()
}

// publishLocked copies the recording global stream's counter into its word,
// for the readers that hold no lock (the clock gauge, the event total, a
// supervisor's progress poll). Caller holds mu. The word is only ever written
// here, from next, so it never decreases and is never ahead of the counter;
// see Thread.publishCounts for when, and record, which also publishes before
// a WAL durability note.
func (s *stream) publishLocked() {
	s.clock.Store(uint64(s.next))
}

// recordInt records a SharedInt access — a load of *p, or with set a store of
// v — and returns its value. Inlined into SharedInt.Get and Set, it is their
// one call while recording.
func (t *Thread) recordInt(s *stream, p *int64, set bool, v int64) int64 {
	return t.record(s, obs.KindShared, nil, p, set, v)
}

func accessInt(p *int64, set bool, v int64) int64 {
	if set {
		*p = v
		return v
	}
	return *p
}

// record is the critical section of the record phase: counter update and
// event execution as one atomic operation (§2.2), then the run bookkeeping.
// The lock is what makes the two one step, so the counter is a plain field
// and the section's only atomic operations are the lock's own. It is every
// recorded event's entry (publish, lock, read next) and tail (tick, counts,
// run flush and open, publication, WAL note, timestamp); the event between
// them is op, or with op nil the access recordInt asked for. That access
// cannot panic: unless it is sampled or observed it runs in place, with no
// closure and no defer. Everything that can runs in exec.
func (t *Thread) record(s *stream, kind obs.EventKind, op func(ids.GCount), p *int64, set bool, v int64) int64 {
	if !s.isGlobal() && t.pendingN != t.pendingFast+t.pendingContended {
		// Global events still counted locally: publish them on the way in,
		// as stream locks never nest.
		t.publishCounts(nil)
	}
	fast := s.mu.TryLock()
	if !fast {
		s.stepAside()
	}
	n := s.next
	if op == nil && uint64(n)&s.holdMask != 0 && s.observer == nil {
		v = accessInt(p, set, v)
	} else {
		v = s.exec(t, n, op, p, set, v)
	}
	s.next = n + 1
	s.countAcquire(t, fast)
	t.countEvents(kind, 1)
	newRun := !s.open || s.runThread != t.num
	if newRun {
		// Another thread's event broke consecutiveness: its run is complete,
		// and this thread's counts so far belong to a finished run of its own.
		s.flushLocked()
		s.open, s.runThread, s.first = true, t.num, n
	}
	s.last = n
	if newRun || t.pendingN >= publishBatch {
		t.publishCounts(s)
	} else if s.observer != nil {
		// An observer may park inside the section for good (a breakpoint, a
		// hang): the word stays exact, event by event.
		s.publishLocked()
	}
	if s.noteEvery != 0 && (uint64(n)+1)%s.noteEvery == 0 {
		// The open run contains n, so it has grown since any earlier note; the
		// note claims only events whose records precede it in the WAL stream,
		// which crash recovery credits. The word goes first: the note's fsync
		// may hold the section past a supervisor's fail window.
		s.publishLocked()
		s.vm.logs.Schedule.Append(&tracelog.OpenInterval{Thread: s.runThread, First: s.first, Last: s.last})
	}
	if s.traced && (uint64(n)+1)%stampEvery == 0 {
		s.vm.appendTimestampLocked(n + 1)
	}
	s.mu.Unlock()
	t.maybeYield()
	return v
}

// stepAside takes mu after a failed TryLock without racing the holder for the
// lock word: a yield, a few TryLocks each after the shortest sleep, then Lock,
// whose starvation mode hands over within 1 ms and parks the contenders of a
// frozen holder. DESIGN "A contender steps aside" has why, and the bound's sweep.
func (s *stream) stepAside() {
	const sleeps = 16
	runtime.Gosched()
	for i := 0; !s.mu.TryLock(); i++ {
		if i == sleeps {
			s.mu.Lock()
			return
		}
		time.Sleep(time.Microsecond)
	}
}

// takeTurn waits, without executing anything, until the thread may execute
// its next recorded event on s: the word has reached the First of the run the
// event lies in. The thread then holds the turn for the whole run, so every
// later event of the run passes straight through. It reports whether the turn
// came without waiting.
func (t *Thread) takeTurn(s *stream, c *cursor, what string) (fast bool) {
	if c.held {
		return true
	}
	if c.ri == len(c.runs) {
		t.endOfSchedule(s, what)
	}
	fast = ids.GCount(s.clock.Load()) == c.pos
	if !fast {
		s.await(t, c.pos)
	}
	c.held, c.pub = true, c.pos
	return fast
}

// replayEvent executes the thread's next recorded event on s: it waits for
// the turn, executes the event, and advances the counter (§2.2) — once per
// run, not per event. The recorded schedule gives the run's thread every
// counter value up to the run's Last and nobody can be parked on a value
// inside it, so between taking the turn at First and handing it over after
// Last the thread neither loads nor stores the word and writes nothing shared:
// position, per-kind counts and program order are its own, and the one shared
// word an event inside the run reads, VM.unpublished, nobody writes while
// replay moves. Those events are replayed in place (inPlace); this function
// is every other case — a run's first or Last event, a change of stream or
// kind, a full batch, an observed stream, the watchdog asking, a Blocking
// mark — and, settling t.run first, makes c t.run and arms its stretch. The
// Last event stores Last+1, which admits the successor; only it looks for one
// parked and publishes the thread's counts. Everything the thread wrote inside
// the run precedes that store, which the successor's load observes before its
// first event. If op panics the position has not moved and the turn stays
// held: a retry runs without waiting.
func (t *Thread) replayEvent(s *stream, c *cursor, kind obs.EventKind, op func(ids.GCount)) {
	t.settle()
	t.run, c.stop = c, c.pos
	fast := t.takeTurn(s, c, "critical event")
	n := c.pos
	if s.observer == nil {
		op(n)
		c.pos++
	} else {
		s.lockedTick(t, c, op)
	}
	c.from = c.pos
	s.countAcquire(t, fast)
	t.countEvents(kind, 1)
	if n != c.last {
		u := t.vm.unpublished.Load()
		if t.pendingN > u {
			t.publishCounts(nil)
		}
		if s.observer == nil && t.pendingN < u {
			c.kind, c.stop = kind, c.pos+min(c.last-c.pos, ids.GCount(u-t.pendingN))
		}
		return
	}
	// Store-buffering pairing with await: the counter store is sequenced
	// before this parked load, and a waiter publishes its parked count before
	// re-checking the counter — so either the waiter is visible here, or it
	// sees the advanced counter and never parks.
	c.publish()
	c.held = false
	if s.parked.Load() != 0 {
		s.mu.Lock()
		s.wakeLocked(s.waiters[n+1])
		s.mu.Unlock()
	}
	t.publishCounts(nil)
	c.nextRun()
}

// wakeLocked hands a parked thread its wake token. The registration stays in
// place — the woken thread unregisters itself once it reacquires mu. Caller
// holds mu.
func (s *stream) wakeLocked(t *Thread) {
	if t != nil {
		select {
		case t.turnCh <- struct{}{}:
		default:
		}
	}
}

// await parks the thread until the stream's counter reaches next, without
// executing anything, registering it for successor-directed wakeup (and with
// it the stall watchdog) and feeding the sampled turn-wait histogram. A
// thread's turnCh serves every stream — it waits on at most one at a time and
// the loop re-checks its condition, so a stale token costs one iteration.
func (s *stream) await(t *Thread, next ids.GCount) {
	vm := s.vm
	// The thread is about to stop running events: what it holds on other
	// streams becomes exact, for the stall diagnostic among others.
	t.publishCounts(nil)
	s.mu.Lock()
	if ids.GCount(s.clock.Load()) == next {
		s.mu.Unlock()
		return // its turn already: no wait to observe
	}
	sampled := uint64(next)&vm.sampleMask == 0
	var start time.Duration
	if sampled {
		start = time.Since(vm.epoch)
	}
	// Publish the parked count before re-checking the counter: a lock-free
	// advancer that misses it must have stored the new value first, which the
	// loop's re-check then sees (pairing in replayEvent).
	s.parked.Add(1)
	for ids.GCount(s.clock.Load()) != next {
		if vm.stalled.Load() {
			s.parked.Add(-1)
			s.mu.Unlock()
			panic(vm.stallError(t, s, next))
		}
		s.waiters[next] = t
		s.mu.Unlock()
		<-t.turnCh
		s.mu.Lock()
		delete(s.waiters, next)
	}
	s.parked.Add(-1)
	s.mu.Unlock()
	if sampled {
		vm.metrics.ObserveTurnWait(time.Since(vm.epoch) - start)
	}
}

// ParkedThread is one replaying thread parked on an order stream's turnstile.
type ParkedThread struct {
	Thread ids.ThreadNum
	// Stream is the order stream the thread waits on and Next the counter
	// value it waits for there: a global counter value, or an access
	// sequence number of a registered object.
	Stream tracelog.Stream
	Next   ids.GCount
}

// Awaited names what the thread waits for: "counter 7" on the global stream,
// "access 7 of obj2" on an object's.
func (p ParkedThread) Awaited() string { return p.Stream.At(p.Next) }

func (p ParkedThread) String() string { return fmt.Sprintf("thread %d: %s", p.Thread, p.Awaited()) }

// parkedThreads lists the threads parked on any stream, in no particular order.
func (vm *VM) parkedThreads() []ParkedThread {
	var out []ParkedThread
	for _, s := range vm.allStreams() {
		s.mu.Lock()
		for n, t := range s.waiters {
			out = append(out, ParkedThread{Thread: t.num, Stream: s.id(), Next: n})
		}
		s.mu.Unlock()
	}
	return out
}

// stallError builds the diagnostic a thread fails with when the watchdog has
// declared the replay stalled while it waits for next on s: every thread that
// was parked at detection, on whichever stream, and this one. It is the one
// place stall errors are built; the caller holds no stream lock.
func (vm *VM) stallError(t *Thread, s *stream, next ids.GCount) *DivergenceError {
	self := ParkedThread{Thread: t.num, Stream: s.id(), Next: next}
	parked := []ParkedThread{self} // listed even if it parked after detection
	for _, p := range vm.stallParked {
		if p.Thread != t.num {
			parked = append(parked, p)
		}
	}
	sort.Slice(parked, func(i, j int) bool { return parked[i].Thread < parked[j].Thread })
	gc := vm.Clock()
	return &DivergenceError{
		VM:     vm.id,
		Thread: t.num,
		Msg:    fmt.Sprintf("replay stalled at counter %d; this thread waits for %s (parked threads: %v)", gc, self.Awaited(), parked),
		GC:     gc,
		Parked: parked,
	}
}

// The methods below are where a stream's numbering meets the schedule log and
// the sharded-order counters: tracelog maps a stream's runs, notifies and timed
// waits onto its record kinds, and the stream's recorded schedule (sched)
// holds them while replaying. Nothing on the event path — record, replay,
// await, wake, cursor — asks which stream it is on.

func (s *stream) isGlobal() bool      { return s.slot == 0 }
func (s *stream) id() tracelog.Stream { return tracelog.Stream(s.slot) }

// countAcquire accounts one executed event to the sharded-order counters when
// s is an object's stream: whether the object was acquired without waiting.
// Global-stream events need no count — their total is the counter word
// itself.
func (s *stream) countAcquire(t *Thread, fast bool) {
	if s.isGlobal() {
		return
	}
	if fast {
		t.pendingFast++
	} else {
		t.pendingContended++
	}
}

// flushLocked appends the open run, if any, to the schedule log. Caller holds
// mu; a stream's append order is its counter order, which BuildScheduleIndex
// validates.
func (s *stream) flushLocked() {
	if !s.open {
		return
	}
	s.open = false
	s.vm.logs.Schedule.AppendRun(s.id(), s.runThread, s.first, s.last)
}

// logNotify records which threads the notify event at n woke.
func (s *stream) logNotify(n ids.GCount, woken []ids.ThreadNum) {
	s.vm.logs.Schedule.AppendNotify(s.id(), n, woken)
}

// notified reports which threads the recorded notify event at n woke.
func (s *stream) notified(n ids.GCount) []ids.ThreadNum { return s.sched.Notifies[n] }

// logTimedWait records how the timed wait entered at n resolved.
func (s *stream) logTimedWait(n ids.GCount, check, timedOut bool) {
	s.vm.logs.Schedule.AppendTimedWait(s.id(), n, check, timedOut)
}

// timedWait looks up how the recorded timed wait entered at n resolved.
func (s *stream) timedWait(n ids.GCount) (check, timedOut, ok bool) {
	e, ok := s.sched.TimedWaits[n]
	return e.Check, e.TimedOut, ok
}
