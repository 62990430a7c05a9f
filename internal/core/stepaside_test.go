package core

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ids"
)

// A recorder that finds the section taken steps aside (stream.stepAside)
// instead of racing its holder for the lock word. The tests below pin both
// halves of that rule: the holder keeps the counter for long runs, and a
// contender of a holder that never leaves ends up asleep on the mutex.
// TestObjectSectionNeverWaitsForGlobalLock and TestThreadFillsWholeCacheLines
// cover the rest of the contended path.

// TestContendedRecordKeepsLongRuns: two threads at real parallelism, each
// incrementing its own object on the global stream (par-global's shape). A
// contender that raced for the lock would catch the holder between events
// and end a run every few hundred events; one that steps aside leaves runs of
// a timeslice. The recording replays to the same per-thread values.
func TestContendedRecordKeepsLongRuns(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const nThreads, iters = 2, 100_000 // 200 000 events per thread
	rec, recVM := runDisjoint(t, Config{ID: 97, Mode: ids.Record}, nThreads, iters)
	events := uint64(nThreads * iters * 2)
	if n := recVM.Metrics().Snapshot().Intervals; n*2000 >= events {
		t.Errorf("%d intervals for %d contended events: want fewer than 1 per 2 000", n, events)
	}
	rep, _ := runDisjoint(t, Config{ID: 97, Mode: ids.Replay, ReplayLogs: recVM.Logs()}, nThreads, iters)
	for i := range rec {
		if rec[i] != iters || rep[i] != rec[i] {
			t.Errorf("thread %d: recorded %d, replayed %d, want %d each", i, rec[i], rep[i], iters)
		}
	}
}

// TestContenderOfFrozenHolderParks: an observer that never returns (a chaos
// kill, a breakpoint) freezes its thread inside the global section. Another
// recorder yields and retries for a bounded while, then waits in Lock — asleep
// on the mutex, not polling for ever. Whichever thread's event comes first
// once the observer is armed freezes; the others contend.
func TestContenderOfFrozenHolderParks(t *testing.T) {
	var armed, tripped atomic.Bool
	spawned, start, frozen, release := make(chan struct{}), make(chan struct{}), make(chan struct{}), make(chan struct{})
	vm := startVM(t, Config{ID: 98, Mode: ids.Record, EventObserver: func(ids.ThreadNum, ids.GCount) {
		if armed.Load() {
			if tripped.CompareAndSwap(false, true) {
				close(frozen)
			}
			<-release
		}
	}})
	var x, y SharedInt
	vm.Start(func(main *Thread) {
		main.Spawn(func(th *Thread) { <-start; x.Add(th, 1) })
		main.Spawn(func(th *Thread) { <-frozen; y.Add(th, 1) })
		close(spawned)
	})
	<-spawned
	armed.Store(true)
	close(start)
	<-frozen
	parked := false
	for deadline := time.Now().Add(2 * time.Second); !parked && time.Now().Before(deadline); {
		time.Sleep(50 * time.Millisecond)
		parked = contenderInLock()
	}
	if !parked {
		t.Error("no recorder of the frozen section is waiting in sync.(*Mutex).Lock")
	}
	close(release)
	vm.Wait()
	vm.Close()
}

// contenderInLock reports whether some goroutine of the package's record path
// is blocked in sync.(*Mutex).Lock under stepAside.
func contenderInLock() bool {
	buf := make([]byte, 1<<20)
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "sync.(*Mutex).Lock") && strings.Contains(g, "core.(*stream).stepAside") {
			return true
		}
	}
	return false
}
