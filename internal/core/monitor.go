package core

import (
	"fmt"
	"time"

	"repro/internal/ids"
	"repro/internal/obs"
)

// Monitor is the DJVM's equivalent of a Java object monitor: it provides
// mutual exclusion (synchronized blocks) and the wait/notify condition
// protocol. Monitor operations are synchronization critical events (§2.1):
//
//   - Enter is a blocking event, executed outside the GC-critical section
//     and marked on completion (monitorenter, §2.2);
//   - Exit is a non-blocking critical event;
//   - Wait splits into two critical events — releasing the monitor and
//     entering the wait set, then (after being notified) re-acquiring the
//     monitor — with the actual blocking in between, outside any critical
//     section;
//   - Notify/NotifyAll are non-blocking critical events; in record mode the
//     identity of the woken threads is logged so replay wakes exactly the
//     same threads.
//
// The same state machine serves all three modes; Critical/Blocking supply
// the per-mode counter discipline.
type Monitor struct {
	lk      chan struct{} // 1-buffered: the internal state lock
	held    bool
	holder  ids.ThreadNum
	queue   []*parked // threads blocked in Enter, FIFO
	waiters []*parked // the wait set, FIFO
	order   *stream   // see SharedInt.order
}

// parked is one thread blocked on the monitor, woken by closing ch.
type parked struct {
	t  ids.ThreadNum
	ch chan struct{}
}

// MonitorStateError is thrown (via panic) on misuse, mirroring Java's
// IllegalMonitorStateException.
type MonitorStateError struct {
	Op     string
	Thread ids.ThreadNum
}

func (e *MonitorStateError) Error() string {
	return fmt.Sprintf("core: %s by thread %d not owning the monitor", e.Op, e.Thread)
}

// NewMonitor creates an unlocked monitor.
func NewMonitor() *Monitor {
	m := &Monitor{lk: make(chan struct{}, 1)}
	m.lk <- struct{}{}
	return m
}

func (m *Monitor) lock()   { <-m.lk }
func (m *Monitor) unlock() { m.lk <- struct{}{} }

// lockHeld takes the state lock when t holds the monitor, and otherwise
// panics with a MonitorStateError naming op.
func (m *Monitor) lockHeld(t *Thread, op string) {
	m.lock()
	if !m.held || m.holder != t.num {
		m.unlock()
		panic(&MonitorStateError{Op: op, Thread: t.num})
	}
}

// Register enrolls the monitor for sharded order recording on vm: its
// critical events are then ordered by the monitor's own access counter
// instead of the global clock. See SharedInt.Register for the determinism
// contract. Unregistered monitors (including runtime-internal ones like a
// Barrier's) stay on the global stream even in sharded mode.
func (m *Monitor) Register(vm *VM) {
	if m.order != nil {
		panic("core: Monitor registered twice")
	}
	m.order = vm.registerObject()
}

// Enter acquires the monitor (monitorenter).
func (m *Monitor) Enter(t *Thread) {
	t.blocking(t.streamFor(m.order), obs.KindMonitorEnter, func() { m.acquire(t) }, func(ids.GCount) {})
}

// acquire blocks until the monitor is free and takes it. FIFO handoff keeps
// record-phase acquisition order a pure race between the queue arrivals —
// which is itself scheduler-dependent, i.e. genuinely nondeterministic.
func (m *Monitor) acquire(t *Thread) {
	m.lock()
	if !m.held {
		m.held = true
		m.holder = t.num
		m.unlock()
		return
	}
	p := &parked{t: t.num, ch: make(chan struct{})}
	m.queue = append(m.queue, p)
	m.unlock()
	t.wait(p.ch)
	// The releaser handed the monitor to us directly.
}

// Exit releases the monitor (monitorexit).
func (m *Monitor) Exit(t *Thread) {
	t.critical(t.streamFor(m.order), obs.KindMonitorExit, func(ids.GCount) { m.release(t, "monitorexit") })
}

// release hands the monitor to the next queued enterer, or frees it.
func (m *Monitor) release(t *Thread, op string) {
	m.lockHeld(t, op)
	if len(m.queue) > 0 {
		next := m.queue[0]
		m.queue = m.queue[1:]
		m.holder = next.t
		close(next.ch)
	} else {
		m.held = false
	}
	m.unlock()
}

// Wait releases the monitor, blocks until another thread notifies this one,
// and re-acquires the monitor before returning — Object.wait semantics
// (minus timeouts and spurious wakeups).
func (m *Monitor) Wait(t *Thread) {
	s := t.streamFor(m.order)
	var p *parked
	// First critical event: move self to the wait set and release the
	// monitor, atomically with the counter tick.
	t.critical(s, obs.KindWait, func(ids.GCount) { p = m.park(t, "wait") })
	// Block outside any critical section until a notify picks us.
	t.awaitNotify(p)
	// Second critical event: re-acquire the monitor. Counter assigned at
	// completion in record mode, so replay finds the monitor free at this
	// event's turn.
	t.blocking(s, obs.KindWait, func() { m.acquire(t) }, func(ids.GCount) {})
}

// park is the first step of every wait: it checks that t holds the monitor,
// puts t at the tail of the wait set and releases the monitor. op names the
// operation in a MonitorStateError.
func (m *Monitor) park(t *Thread, op string) *parked {
	m.lockHeld(t, op)
	p := &parked{t: t.num, ch: make(chan struct{})}
	m.waiters = append(m.waiters, p)
	m.unlock()
	m.release(t, op)
	return p
}

// TimedWait is Object.wait(timeout): it releases the monitor and blocks
// until notified or until d elapses, then re-acquires the monitor and
// reports whether it timed out.
//
// The race between the timer and a concurrent notify is itself a source of
// nondeterminism, so its resolution is part of the schedule: when the timer
// fires, the waiter executes a *check* critical event that removes it from
// the wait set if (and only if) no notify picked it first. The record phase
// logs a timed-wait record keyed by the wait-enter event's counter value on
// the monitor's stream — whether the check event happened and how it
// resolved — and the replay phase re-drives exactly that path, with the real
// timer elided (like Sleep, replay does not wait out the timeout).
// Passthrough runs the record phase's race and logs nothing.
func (m *Monitor) TimedWait(t *Thread, d time.Duration) (timedOut bool) {
	s := t.streamFor(m.order)
	mode := t.vm.mode
	var (
		p  *parked
		c0 ids.GCount
	)
	t.critical(s, obs.KindWait, func(n ids.GCount) { c0, p = n, m.park(t, "timed-wait") })
	check := false
	if mode == ids.Replay {
		var ok bool
		if check, timedOut, ok = s.timedWait(c0); !ok {
			t.diverge("timed wait entered at %s has no recorded resolution", s.id().At(c0))
		}
	} else {
		timer := time.NewTimer(d)
		select {
		case <-p.ch:
			timer.Stop()
		case <-timer.C:
			check = true
		}
	}
	if check {
		t.critical(s, obs.KindWait, func(ids.GCount) {
			m.lock()
			removed := m.removeParked(p)
			m.unlock()
			if mode != ids.Replay {
				timedOut = removed
			} else if removed != timedOut {
				t.diverge("timed wait at %s: the recorded check resolved timedOut=%v, the replayed one %v", s.id().At(c0), timedOut, removed)
			}
		})
	}
	if mode == ids.Record {
		s.logTimedWait(c0, check, timedOut)
	}
	if !timedOut {
		// Notified, or a notify won the race and signals (or already has).
		t.awaitNotify(p)
	}
	t.blocking(s, obs.KindWait, func() { m.acquire(t) }, func(ids.GCount) {})
	return timedOut
}

// awaitNotify blocks the thread, in the wait set, until a notify picks it. A
// replaying thread stops running events here for as long as the notifier
// takes, so what it holds becomes exact first (cursor.publish).
func (t *Thread) awaitNotify(p *parked) {
	if t.vm.mode == ids.Replay {
		t.publishCounts(nil)
	}
	t.wait(p.ch)
}

// removeParked removes the exact entry p from the wait set, reporting
// whether it was still there. Caller holds the state lock.
func (m *Monitor) removeParked(p *parked) bool {
	for i, q := range m.waiters {
		if q == p {
			m.waiters = append(m.waiters[:i], m.waiters[i+1:]...)
			return true
		}
	}
	return false
}

// Notify wakes one thread from the wait set; NotifyAll wakes all of them.
// Record mode logs which threads were woken (keyed by the event's counter
// value on the monitor's stream); replay consults the log and wakes exactly
// those threads.
func (m *Monitor) Notify(t *Thread) { m.notify(t, false) }

// NotifyAll wakes every thread currently in the wait set.
func (m *Monitor) NotifyAll(t *Thread) { m.notify(t, true) }

func (m *Monitor) notify(t *Thread, all bool) {
	vm := t.vm
	s := t.streamFor(m.order)
	t.critical(s, obs.KindNotify, func(n ids.GCount) {
		m.lockHeld(t, "notify")
		var woken []ids.ThreadNum
		if vm.mode == ids.Replay {
			for _, tn := range s.notified(n) {
				p := m.takeWaiter(tn)
				if p == nil {
					m.unlock()
					t.diverge("notify at %s expected thread %d in wait set", s.id().At(n), tn)
				}
				close(p.ch)
				woken = append(woken, tn)
			}
		} else {
			woken = m.wakeFIFOLocked(all)
		}
		m.unlock()
		if vm.mode == ids.Record && len(woken) > 0 {
			s.logNotify(n, woken)
		}
	})
}

// wakeFIFOLocked wakes the head of the wait set (or all of it), reporting who
// was woken — the record/passthrough wake policy. Caller holds the state lock.
func (m *Monitor) wakeFIFOLocked(all bool) []ids.ThreadNum {
	var woken []ids.ThreadNum
	k := 1
	if all {
		k = len(m.waiters)
	}
	for i := 0; i < k && len(m.waiters) > 0; i++ {
		p := m.waiters[0]
		m.waiters = m.waiters[1:]
		close(p.ch)
		woken = append(woken, p.t)
	}
	return woken
}

// takeWaiter removes and returns the wait-set entry for thread tn, or nil.
// Caller holds the state lock.
func (m *Monitor) takeWaiter(tn ids.ThreadNum) *parked {
	for i, p := range m.waiters {
		if p.t == tn {
			m.waiters = append(m.waiters[:i], m.waiters[i+1:]...)
			return p
		}
	}
	return nil
}
