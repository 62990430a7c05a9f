package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/ids"
	"repro/internal/obs"
)

// SharedInt is a shared integer variable. Every access is a critical event
// (§2.1): the order of accesses across threads is exactly what distinguishes
// one logical thread schedule from another, so Get and Set are individually
// atomic but sequences of them race at application level — as racy Java field
// accesses do. In passthrough mode accesses compile down to plain atomics,
// modeling the unmodified JVM. Get and Set carry the workloads' racy idiom: a
// replayed one inside an armed stretch is the access and one store of the
// thread's position (Thread.inPlace), a recorded one the access under the
// stream's lock (Thread.recordInt). Every other access goes through critical.
type SharedInt struct {
	v     int64
	order *stream // the variable's own order stream after Register on a sharded VM; nil: the VM's global one
}

// Register enrolls the variable for sharded order recording on vm (see
// Config.OrderMode). Outside sharded mode it is a no-op, so applications can
// register unconditionally and select the mode in the config. Registration
// must happen in a deterministic order — identical in the record and replay
// runs, before the threads that access the object start — because the
// object's identity across phases is its registration rank. Registering the
// same object twice panics.
func (s *SharedInt) Register(vm *VM) {
	if s.order != nil {
		panic("core: SharedInt registered twice")
	}
	s.order = vm.registerObject()
}

// Get reads the variable as a critical event of thread t.
func (s *SharedInt) Get(t *Thread) int64 {
	if t.vm.mode == ids.Passthrough {
		v := atomic.LoadInt64(&s.v)
		t.maybeYield()
		return v
	}
	if c := t.run; c != nil && c.obj == s.order && t.inPlace(c, obs.KindShared) {
		c.pos++
		return s.v
	}
	st := t.streamFor(s.order)
	if t.vm.mode == ids.Record {
		return t.recordInt(st, &s.v, false, 0)
	}
	var out int64
	t.critical(st, obs.KindShared, func(ids.GCount) { out = s.v })
	return out
}

// Set writes the variable as a critical event of thread t.
func (s *SharedInt) Set(t *Thread, v int64) {
	if t.vm.mode == ids.Passthrough {
		atomic.StoreInt64(&s.v, v)
		t.maybeYield()
		return
	}
	if c := t.run; c != nil && c.obj == s.order && t.inPlace(c, obs.KindShared) {
		s.v = v
		c.pos++
		return
	}
	st := t.streamFor(s.order)
	if t.vm.mode == ids.Record {
		t.recordInt(st, &s.v, true, v)
		return
	}
	t.critical(st, obs.KindShared, func(ids.GCount) { s.v = v })
}

// Add atomically adds delta as a single critical event and returns the new
// value. Note that x.Set(t, x.Get(t)+1) is *two* critical events and is the
// racy idiom the paper's benchmark uses ("a shared variable that is updated
// without exclusive access", §6); Add is the non-racy counterpart.
func (s *SharedInt) Add(t *Thread, delta int64) int64 {
	if t.vm.mode == ids.Passthrough {
		v := atomic.AddInt64(&s.v, delta)
		t.maybeYield()
		return v
	}
	var out int64
	t.critical(t.streamFor(s.order), obs.KindShared, func(ids.GCount) {
		s.v += delta
		out = s.v
	})
	return out
}

// Restore writes the variable without generating a critical event. It exists
// for checkpoint restoration only: a resumed replay reconstructs its state
// before any concurrent activity, and the restoration is not part of the
// recorded schedule (the checkpointed events it summarizes were skipped).
// Never call it while other threads are running.
func (s *SharedInt) Restore(v int64) {
	atomic.StoreInt64(&s.v, v)
}

// Load reads the variable without generating a critical event. It is for
// inspecting final state after the VM's threads have finished (or initial
// state before they start); while threads run it reads racy, non-replayable
// state.
func (s *SharedInt) Load() int64 {
	return atomic.LoadInt64(&s.v)
}

// SharedVar is a shared variable of arbitrary type with critical-event access
// semantics. The zero value holds the zero value of T.
type SharedVar[T any] struct {
	mu    sync.Mutex // passthrough-mode atomicity only
	v     T
	order *stream // see SharedInt.order
}

// Register enrolls the variable for sharded order recording on vm; see
// SharedInt.Register for the determinism contract.
func (s *SharedVar[T]) Register(vm *VM) {
	if s.order != nil {
		panic("core: SharedVar registered twice")
	}
	s.order = vm.registerObject()
}

// Get reads the variable as a critical event of thread t.
func (s *SharedVar[T]) Get(t *Thread) T {
	if t.vm.mode == ids.Passthrough {
		s.mu.Lock()
		v := s.v
		s.mu.Unlock()
		t.maybeYield()
		return v
	}
	var out T
	t.critical(t.streamFor(s.order), obs.KindShared, func(ids.GCount) { out = s.v })
	return out
}

// Set writes the variable as a critical event of thread t.
func (s *SharedVar[T]) Set(t *Thread, v T) {
	if t.vm.mode == ids.Passthrough {
		s.mu.Lock()
		s.v = v
		s.mu.Unlock()
		t.maybeYield()
		return
	}
	t.critical(t.streamFor(s.order), obs.KindShared, func(ids.GCount) { s.v = v })
}

// Restore writes the variable without generating a critical event; see
// SharedInt.Restore.
func (s *SharedVar[T]) Restore(v T) {
	s.mu.Lock()
	s.v = v
	s.mu.Unlock()
}

// Load reads the variable without generating a critical event; see
// SharedInt.Load.
func (s *SharedVar[T]) Load() T {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.v
}

// Update applies fn to the variable as one critical event and returns the
// new value.
func (s *SharedVar[T]) Update(t *Thread, fn func(T) T) T {
	if t.vm.mode == ids.Passthrough {
		s.mu.Lock()
		v := fn(s.v)
		s.v = v
		s.mu.Unlock()
		t.maybeYield()
		return v
	}
	var out T
	t.critical(t.streamFor(s.order), obs.KindShared, func(ids.GCount) {
		s.v = fn(s.v)
		out = s.v
	})
	return out
}
