package core

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ids"
)

// mixedWorkload exercises every local critical-event kind: shared accesses,
// monitor enter/exit, wait/notify, and thread spawn/join.
func mixedWorkload(t *testing.T, cfg Config) *VM {
	vm, _ := mixedWorkloadBare(t, cfg)
	return vm
}

// mixedWorkloadBare is mixedWorkload, also returning how many of its events
// were bare SharedInt accesses (Get and Set): the events that run no closure.
func mixedWorkloadBare(t *testing.T, cfg Config) (*VM, uint64) {
	t.Helper()
	vm, err := NewVM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var x, released SharedInt
	var bare atomic.Uint64
	mon := NewMonitor()
	vm.Start(func(main *Thread) {
		waiter := main.Spawn(func(th *Thread) {
			mon.Enter(th)
			for bare.Add(1); released.Get(th) == 0; bare.Add(1) {
				mon.Wait(th)
			}
			mon.Exit(th)
		})
		worker := main.Spawn(func(th *Thread) {
			for i := 0; i < 50; i++ {
				x.Add(th, 1)
			}
			// Wake the waiter only once it is provably in the wait set, so the
			// workload deterministically produces wait and notify events.
			for {
				mon.Enter(th)
				if waiterCount(mon) == 1 {
					released.Set(th, 1)
					bare.Add(1)
					mon.Notify(th)
					mon.Exit(th)
					return
				}
				mon.Exit(th)
			}
		})
		main.Join(waiter)
		main.Join(worker)
	})
	vm.Wait()
	vm.Close()
	return vm, bare.Load()
}

// TestObsRecordReplayKindCountsMatch is the layer's integration check: the
// per-kind critical-event counts of a replay are identical to the record
// phase's, and the replay progress gauges land on 100%.
func TestObsRecordReplayKindCountsMatch(t *testing.T) {
	// ObsSampleRate 1 selects exhaustive latency timing, so GC-hold times
	// every event that runs a closure: all of them but the bare accesses.
	recVM, bare := mixedWorkloadBare(t, Config{ID: 80, Mode: ids.Record, RecordJitter: 3, ObsSampleRate: 1})
	rec := recVM.Metrics().Snapshot()
	if rec.Events.Shared == 0 || rec.Events.MonitorEnter == 0 || rec.Events.MonitorExit == 0 ||
		rec.Events.Wait == 0 || rec.Events.Notify == 0 || rec.Events.Thread == 0 {
		t.Fatalf("record workload missed a kind: %+v", rec.Events)
	}
	if rec.Events.Other != 0 {
		t.Errorf("instrumented paths produced %d untagged events", rec.Events.Other)
	}
	if rec.Intervals == 0 {
		t.Error("record emitted no schedule intervals")
	}
	if rec.Logs.Schedule.Bytes == 0 || int(rec.Logs.Schedule.Bytes) != recVM.Logs().Schedule.Size() {
		t.Errorf("obs schedule bytes %d, log reports %d", rec.Logs.Schedule.Bytes, recVM.Logs().Schedule.Size())
	}
	if bare == 0 || rec.GCHold.Count != rec.TotalEvents-bare {
		t.Errorf("GCHold observed %d holds for %d events, %d of them bare accesses", rec.GCHold.Count, rec.TotalEvents, bare)
	}

	repVM := mixedWorkload(t, Config{ID: 80, Mode: ids.Replay, ReplayLogs: recVM.Logs()})
	rep := repVM.Metrics().Snapshot()
	if rep.Events != rec.Events {
		t.Errorf("per-kind counts diverged:\nrecord %+v\nreplay %+v", rec.Events, rep.Events)
	}
	if rep.TotalEvents != rec.TotalEvents {
		t.Errorf("totals diverged: record %d, replay %d", rec.TotalEvents, rep.TotalEvents)
	}
	if rep.Replay.FinalGC == 0 {
		t.Fatal("replay snapshot has no recorded schedule length")
	}
	if pct := rep.Replay.Percent(); pct != 100 {
		t.Errorf("finished replay at %.1f%%, gc %d/%d", pct, rep.Replay.CurrentGC, rep.Replay.FinalGC)
	}
	if rep.Replay.ParkedThreads != 0 {
		t.Errorf("%d threads still parked after completion", rep.Replay.ParkedThreads)
	}
}

// TestObsPassthroughCountsNothing pins the baseline: passthrough mode executes
// no critical events, so the metric layer must stay at zero.
func TestObsPassthroughCountsNothing(t *testing.T) {
	vm := mixedWorkload(t, Config{ID: 81, Mode: ids.Passthrough})
	s := vm.Metrics().Snapshot()
	if s.TotalEvents != 0 || s.Intervals != 0 || s.Logs.TotalBytes() != 0 {
		t.Errorf("passthrough recorded metrics: %+v", s)
	}
}

// TestObserverStrictOrderInReplay pins the EventObserver contract in replay
// mode specifically: counters arrive strictly in 0,1,2,... order even though
// many OS threads execute concurrently.
func TestObserverStrictOrderInReplay(t *testing.T) {
	recVM := mixedWorkload(t, Config{ID: 82, Mode: ids.Record, RecordJitter: 3})

	var seen []ids.GCount
	cfg := Config{ID: 82, Mode: ids.Replay, ReplayLogs: recVM.Logs(),
		EventObserver: func(_ ids.ThreadNum, gc ids.GCount) { seen = append(seen, gc) }}
	mixedWorkload(t, cfg)

	if len(seen) == 0 {
		t.Fatal("observer saw no replayed events")
	}
	for i, gc := range seen {
		if gc != ids.GCount(i) {
			t.Fatalf("observation %d carried counter %d; replay order is not strict", i, gc)
		}
	}
}

// TestBlockingObserverDoesNotFalseStall is the watchdog regression test: an
// EventObserver that blocks far longer than the stall timeout holds the
// GC-critical section, so the watchdog (whose progress probe serializes
// behind that section) must neither flag a stall nor deadlock — the replay
// completes normally once the observer returns.
func TestBlockingObserverDoesNotFalseStall(t *testing.T) {
	recVM := mixedWorkload(t, Config{ID: 83, Mode: ids.Record, RecordJitter: 3})

	const stall = 50 * time.Millisecond
	blocked := false
	cfg := Config{
		ID: 83, Mode: ids.Replay, ReplayLogs: recVM.Logs(),
		StallTimeout: stall,
		EventObserver: func(_ ids.ThreadNum, gc ids.GCount) {
			if gc == 3 && !blocked {
				blocked = true
				time.Sleep(4 * stall) // several watchdog periods
			}
		},
	}
	done := make(chan *VM, 1)
	go func() { done <- mixedWorkload(t, cfg) }()
	select {
	case vm := <-done:
		s := vm.Metrics().Snapshot()
		if s.Replay.Stalled {
			t.Error("watchdog flagged a stall caused only by a blocking observer")
		}
		if pct := s.Replay.Percent(); pct != 100 {
			t.Errorf("replay finished at %.1f%%", pct)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("replay deadlocked with a blocking observer")
	}
	if !blocked {
		t.Fatal("observer never reached the blocking event")
	}
}
