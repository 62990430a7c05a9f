package core

import (
	"testing"
	"time"

	"repro/internal/ids"
)

func TestTimedWaitTimeoutPath(t *testing.T) {
	// No notifier: the wait must time out, in record, replay and passthrough
	// — and replay alone must elide the real delay.
	run := func(cfg Config) (bool, time.Duration, *VM) {
		vm := startVM(t, cfg)
		mon := NewMonitor()
		var timedOut bool
		start := time.Now()
		vm.Start(func(main *Thread) {
			mon.Enter(main)
			timedOut = mon.TimedWait(main, 50*time.Millisecond)
			mon.Exit(main)
		})
		vm.Wait()
		elapsed := time.Since(start)
		vm.Close()
		return timedOut, elapsed, vm
	}
	recOut, recElapsed, recVM := run(Config{ID: 90, Mode: ids.Record})
	if !recOut {
		t.Fatal("record-phase timed wait did not time out")
	}
	if recElapsed < 50*time.Millisecond {
		t.Fatalf("record run took %v, less than the timeout", recElapsed)
	}
	repOut, repElapsed, _ := run(Config{ID: 90, Mode: ids.Replay, ReplayLogs: recVM.Logs()})
	if !repOut {
		t.Error("replay-phase timed wait did not time out")
	}
	if repElapsed >= 50*time.Millisecond {
		t.Errorf("replay took %v; the timeout was not elided", repElapsed)
	}
	passOut, passElapsed, passVM := run(Config{ID: 90, Mode: ids.Passthrough, RecordJitter: 1})
	if !passOut || passElapsed < 50*time.Millisecond {
		t.Errorf("passthrough timed wait: timedOut=%v after %v, want a timeout after at least 50ms", passOut, passElapsed)
	}
	if n := passVM.Stats().CriticalEvents; n != 0 {
		t.Errorf("passthrough counted %d critical events", n)
	}
}

func TestTimedWaitNotifiedPath(t *testing.T) {
	run := func(cfg Config) (bool, *VM) {
		vm := startVM(t, cfg)
		mon := NewMonitor()
		var timedOut bool
		vm.Start(func(main *Thread) {
			started := make(chan struct{})
			done := make(chan struct{})
			main.Spawn(func(th *Thread) {
				defer close(done)
				mon.Enter(th)
				close(started)
				timedOut = mon.TimedWait(th, time.Hour) // notified long before
				mon.Exit(th)
			})
			<-started
			mon.Enter(main)
			mon.Notify(main)
			mon.Exit(main)
			<-done
		})
		vm.Wait()
		vm.Close()
		return timedOut, vm
	}
	recOut, recVM := run(Config{ID: 91, Mode: ids.Record})
	if recOut {
		t.Fatal("record-phase wait timed out despite notify")
	}
	repOut, _ := run(Config{ID: 91, Mode: ids.Replay, ReplayLogs: recVM.Logs()})
	if repOut {
		t.Error("replay-phase wait timed out despite notify")
	}
	if passOut, _ := run(Config{ID: 91, Mode: ids.Passthrough, RecordJitter: 1}); passOut {
		t.Error("passthrough wait timed out despite notify")
	}
}

// TestTimedWaitRaceReplaysConsistently races notifies against short
// timeouts many times; whatever mix of outcomes the record phase produced,
// replay must reproduce it exactly. Main notifies every round, whether or
// not the waiter is still in the wait set: a notify of an empty wait set is a
// critical event that wakes nobody, whereas choosing to skip it would read
// the wait set outside the schedule, and replay could choose differently.
func TestTimedWaitRaceReplaysConsistently(t *testing.T) {
	const rounds = 20
	run := func(cfg Config) ([]bool, *VM) {
		vm := startVM(t, cfg)
		mon := NewMonitor()
		outcomes := make([]bool, rounds)
		vm.Start(func(main *Thread) {
			for r := 0; r < rounds; r++ {
				r := r
				started := make(chan struct{})
				done := make(chan struct{})
				main.Spawn(func(th *Thread) {
					defer close(done)
					mon.Enter(th)
					close(started)
					outcomes[r] = mon.TimedWait(th, 300*time.Microsecond)
					mon.Exit(th)
				})
				<-started
				// Race the timer: sometimes the notify lands first,
				// sometimes the timeout does.
				if cfg.Mode == ids.Record || cfg.Mode == ids.Passthrough {
					time.Sleep(time.Duration(r%5) * 150 * time.Microsecond)
				}
				mon.Enter(main)
				mon.Notify(main)
				mon.Exit(main)
				<-done
			}
		})
		vm.Wait()
		vm.Close()
		return outcomes, vm
	}
	recOutcomes, recVM := run(Config{ID: 92, Mode: ids.Record})
	// A divergence fails within seconds instead of hanging the test.
	repOutcomes, _ := run(Config{ID: 92, Mode: ids.Replay, ReplayLogs: recVM.Logs(), StallTimeout: 5 * time.Second})
	for i := range recOutcomes {
		if recOutcomes[i] != repOutcomes[i] {
			t.Fatalf("round %d: record timedOut=%v, replay timedOut=%v (all: rec=%v rep=%v)",
				i, recOutcomes[i], repOutcomes[i], recOutcomes, repOutcomes)
		}
	}
}

func TestTimedWaitWithoutHoldingPanics(t *testing.T) {
	vm := startVM(t, Config{ID: 93, Mode: ids.Record})
	mon := NewMonitor()
	got := make(chan any, 1)
	vm.Start(func(main *Thread) {
		defer func() { got <- recover() }()
		mon.TimedWait(main, time.Millisecond)
	})
	if _, ok := (<-got).(*MonitorStateError); !ok {
		t.Fatal("timed wait without holding did not raise MonitorStateError")
	}
	vm.Wait()
}
