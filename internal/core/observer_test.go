package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/ids"
)

// eventTrace collects (thread, gc) pairs from an EventObserver. The observer
// runs inside the GC-critical section, so no extra locking is needed.
type eventTrace struct {
	events []string
}

func (e *eventTrace) observe(tn ids.ThreadNum, gc ids.GCount) {
	e.events = append(e.events, fmt.Sprintf("t%d@%d", tn, gc))
}

// TestEventObserverSeesIdenticalSequences is the debugger-hook contract: the
// observed (thread, counter) sequence of a replay is exactly the record
// phase's sequence.
func TestEventObserverSeesIdenticalSequences(t *testing.T) {
	run := func(cfg Config, trace *eventTrace) *VM {
		cfg.EventObserver = trace.observe
		vm, err := NewVM(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var x SharedInt
		mon := NewMonitor()
		vm.Start(func(main *Thread) {
			done := make(chan struct{}, 3)
			for i := 0; i < 3; i++ {
				main.Spawn(func(th *Thread) {
					defer func() { done <- struct{}{} }()
					for j := 0; j < 30; j++ {
						mon.Enter(th)
						x.Set(th, x.Get(th)+1)
						mon.Exit(th)
					}
				})
			}
			for i := 0; i < 3; i++ {
				<-done
			}
		})
		vm.Wait()
		vm.Close()
		return vm
	}
	var recTrace, repTrace eventTrace
	recVM := run(Config{ID: 60, Mode: ids.Record, RecordJitter: 4}, &recTrace)
	run(Config{ID: 60, Mode: ids.Replay, ReplayLogs: recVM.Logs()}, &repTrace)

	if len(recTrace.events) == 0 {
		t.Fatal("observer saw no events")
	}
	if len(recTrace.events) != len(repTrace.events) {
		t.Fatalf("observer saw %d events in record, %d in replay",
			len(recTrace.events), len(repTrace.events))
	}
	for i := range recTrace.events {
		if recTrace.events[i] != repTrace.events[i] {
			t.Fatalf("event %d: record %s, replay %s", i, recTrace.events[i], repTrace.events[i])
		}
	}
	// Counters are observed in strictly increasing order (the total order of
	// critical events).
	for i, ev := range recTrace.events {
		var tn, gc int
		fmt.Sscanf(ev, "t%d@%d", &tn, &gc)
		if gc != i {
			t.Fatalf("event %d observed at counter %d", i, gc)
		}
	}
}

// TestObservedReplayTicksEveryAccessLocked: with an EventObserver a replayed
// run has no in-place events — replayEvent never arms a stretch, so neither
// SharedInt.Get and Set inline nor critical replays one in place — and every
// access goes through lockedTick: the callback runs under the global stream's
// lock, after the access, with the counter word exact at the access's own
// value. One thread's one long run of Get, Set and Add is the case the
// in-place path would otherwise serve.
func TestObservedReplayTicksEveryAccessLocked(t *testing.T) {
	const iters = 300
	program := func(vm *VM, x *SharedInt) {
		vm.Start(func(main *Thread) {
			for i := 0; i < iters; i++ {
				x.Set(main, x.Get(main)+1)
				x.Add(main, 1)
			}
		})
		vm.Wait()
		vm.Close()
	}
	var x SharedInt
	rec := startVM(t, Config{ID: 62, Mode: ids.Record})
	program(rec, &x)

	var rep *VM
	var y SharedInt
	var seen ids.GCount
	rep = startVM(t, Config{ID: 62, Mode: ids.Replay, ReplayLogs: rec.Logs(), EventObserver: func(_ ids.ThreadNum, gc ids.GCount) {
		// Events 3k, 3k+1 and 3k+2 are the k-th Get, Set and Add: y holds 2k
		// at the Get, 2k+1 after the Set and 2k+2 after the Add.
		want := 2*(int64(gc)/3) + int64(gc%3)
		if rep.global.mu.TryLock() {
			rep.global.mu.Unlock()
			t.Errorf("event %d observed outside the global stream's lock", gc)
		}
		if w := rep.Clock(); w != gc || gc != seen || y.Load() != want {
			t.Errorf("event %d (%d observed so far): word %d, variable %d; want word %d, variable %d", gc, seen, w, y.Load(), gc, want)
		}
		seen++
	}})
	program(rep, &y)
	if seen != 3*iters || y.Load() != x.Load() {
		t.Errorf("observed %d events, final %d; recorded %d events, final %d", seen, y.Load(), 3*iters, x.Load())
	}
}

// TestSMPRecordReplay runs the racy workload with several OS-level
// processors: the paper's approach needs no scheduler control, so it carries
// to SMP unchanged (its §8 mentions applying the techniques to Jalapeño, an
// SMP JVM). The GC-critical section serializes critical events regardless of
// how many cores execute non-critical code in parallel.
func TestSMPRecordReplay(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	const nThreads, iters = 8, 250
	recTraces, recFinal, recVM := runRacyCounter(t,
		Config{ID: 61, Mode: ids.Record, RecordJitter: 3}, nThreads, iters)
	repTraces, repFinal, _ := runRacyCounter(t,
		Config{ID: 61, Mode: ids.Replay, ReplayLogs: recVM.Logs()}, nThreads, iters)
	if recFinal != repFinal {
		t.Errorf("SMP replay final %d, record %d", repFinal, recFinal)
	}
	if !tracesEqual(recTraces, repTraces) {
		t.Error("SMP replay traces differ from record")
	}
}
