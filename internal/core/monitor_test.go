package core

import (
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/tracelog"
)

func startVM(t *testing.T, cfg Config) *VM {
	t.Helper()
	vm, err := NewVM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return vm
}

func TestMonitorExitWithoutEnterPanics(t *testing.T) {
	vm := startVM(t, Config{ID: 1, Mode: ids.Record})
	mon := NewMonitor()
	got := make(chan any, 1)
	vm.Start(func(main *Thread) {
		defer func() { got <- recover() }()
		mon.Exit(main)
	})
	if r := <-got; r == nil {
		t.Fatal("exit without enter did not panic")
	} else if _, ok := r.(*MonitorStateError); !ok {
		t.Fatalf("recovered %T, want *MonitorStateError", r)
	}
	vm.Wait()
}

func TestMonitorNotifyWithoutHoldingPanics(t *testing.T) {
	vm := startVM(t, Config{ID: 2, Mode: ids.Record})
	mon := NewMonitor()
	got := make(chan any, 1)
	vm.Start(func(main *Thread) {
		defer func() { got <- recover() }()
		mon.Notify(main)
	})
	if _, ok := (<-got).(*MonitorStateError); !ok {
		t.Fatal("notify without holding did not raise MonitorStateError")
	}
	vm.Wait()
}

func TestMonitorWaitWithoutHoldingPanics(t *testing.T) {
	vm := startVM(t, Config{ID: 3, Mode: ids.Record})
	mon := NewMonitor()
	got := make(chan any, 1)
	vm.Start(func(main *Thread) {
		defer func() { got <- recover() }()
		mon.Wait(main)
	})
	if _, ok := (<-got).(*MonitorStateError); !ok {
		t.Fatal("wait without holding did not raise MonitorStateError")
	}
	vm.Wait()
}

func TestMonitorExitByNonHolderPanics(t *testing.T) {
	vm := startVM(t, Config{ID: 4, Mode: ids.Passthrough})
	mon := NewMonitor()
	got := make(chan any, 1)
	vm.Start(func(main *Thread) {
		mon.Enter(main)
		child := make(chan struct{})
		main.Spawn(func(th *Thread) {
			defer func() { got <- recover() }()
			defer close(child)
			mon.Exit(th) // not the holder
		})
		<-child
		mon.Exit(main)
	})
	if _, ok := (<-got).(*MonitorStateError); !ok {
		t.Fatal("exit by non-holder did not raise MonitorStateError")
	}
	vm.Wait()
}

func TestNotifyWithEmptyWaitSetIsNoOp(t *testing.T) {
	for _, mode := range []ids.Mode{ids.Record, ids.Passthrough} {
		vm := startVM(t, Config{ID: 5, Mode: mode})
		mon := NewMonitor()
		vm.Start(func(main *Thread) {
			mon.Enter(main)
			mon.Notify(main)    // nobody waiting
			mon.NotifyAll(main) // still nobody
			mon.Exit(main)
		})
		vm.Wait()
		vm.Close()
		if mode == ids.Record {
			// Empty notifies are not logged (nothing to replay).
			idx, err := tracelog.BuildScheduleIndex(vm.Logs().Schedule)
			if err != nil {
				t.Fatal(err)
			}
			if len(idx.Streams[0].Notifies) != 0 {
				t.Errorf("empty notifies were logged: %v", idx.Streams[0].Notifies)
			}
		}
	}
}

func TestNotifyAllWakesEveryWaiter(t *testing.T) {
	run := func(cfg Config) (int64, *VM) {
		vm := startVM(t, cfg)
		mon := NewMonitor()
		var released SharedInt
		var ready SharedInt
		const waiters = 4
		vm.Start(func(main *Thread) {
			done := make(chan struct{}, waiters)
			for i := 0; i < waiters; i++ {
				main.Spawn(func(th *Thread) {
					defer func() { done <- struct{}{} }()
					mon.Enter(th)
					ready.Add(th, 1)
					mon.Wait(th)
					released.Add(th, 1)
					mon.Exit(th)
				})
			}
			// Wait until every waiter is in the wait set, then wake all.
			for {
				mon.Enter(main)
				n := ready.Get(main)
				w := waiterCount(mon)
				if n == int64(waiters) && w == waiters {
					mon.NotifyAll(main)
					mon.Exit(main)
					break
				}
				mon.Exit(main)
			}
			for i := 0; i < waiters; i++ {
				<-done
			}
		})
		vm.Wait()
		vm.Close()
		return released.v, vm
	}
	recN, recVM := run(Config{ID: 6, Mode: ids.Record, RecordJitter: 4})
	if recN != 4 {
		t.Fatalf("record released %d waiters, want 4", recN)
	}
	repN, _ := run(Config{ID: 6, Mode: ids.Replay, ReplayLogs: recVM.Logs()})
	if repN != 4 {
		t.Fatalf("replay released %d waiters, want 4", repN)
	}
}

func TestMonitorHolderQuery(t *testing.T) {
	vm := startVM(t, Config{ID: 7, Mode: ids.Passthrough})
	mon := NewMonitor()
	vm.Start(func(main *Thread) {
		if _, held := holder(mon); held {
			panic("fresh monitor held")
		}
		mon.Enter(main)
		if h, held := holder(mon); !held || h != main.Num() {
			panic("holder query wrong while held")
		}
		mon.Exit(main)
		if _, held := holder(mon); held {
			panic("monitor still held after exit")
		}
	})
	vm.Wait()
}

// TestBlockingEventCounterAssignedAtCompletion verifies the marking strategy
// (§3): a blocking event that completes after other threads' critical events
// receives a later counter value than all of them, so replay's
// wait-before-op discipline cannot deadlock on it.
func TestBlockingEventCounterAssignedAtCompletion(t *testing.T) {
	vm := startVM(t, Config{ID: 8, Mode: ids.Record})
	var blockerGC, lastFastGC ids.GCount
	release := make(chan struct{})
	var fast SharedInt

	vm.Start(func(main *Thread) {
		done := make(chan struct{}, 2)
		main.Spawn(func(th *Thread) { // blocker
			defer func() { done <- struct{}{} }()
			th.Blocking(func() {
				<-release // blocks until the fast thread finished
			}, func(gc ids.GCount) {
				blockerGC = gc
			})
		})
		main.Spawn(func(th *Thread) { // fast worker
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				fast.Set(th, int64(i))
			}
			th.Critical(func(gc ids.GCount) { lastFastGC = gc })
			close(release)
		})
		<-done
		<-done
	})
	vm.Wait()
	vm.Close()
	if blockerGC <= lastFastGC {
		t.Errorf("blocking event got counter %d, before the fast thread's last event %d",
			blockerGC, lastFastGC)
	}
}

// TestReplayBlockingDoesNotStallOthers verifies that while a replaying
// thread is inside a blocking op (its turn held, counter not advanced),
// threads executing non-critical code keep running.
func TestReplayBlockingDoesNotStallOthers(t *testing.T) {
	// Record: blocker waits on a channel closed by a plain goroutine-side
	// effect of the worker's non-critical loop.
	run := func(cfg Config) *VM {
		vm := startVM(t, cfg)
		release := make(chan struct{})
		vm.Start(func(main *Thread) {
			done := make(chan struct{}, 2)
			main.Spawn(func(th *Thread) {
				defer func() { done <- struct{}{} }()
				th.Blocking(func() { <-release }, func(ids.GCount) {})
			})
			main.Spawn(func(th *Thread) {
				defer func() { done <- struct{}{} }()
				// Non-critical work only; no counter involvement.
				time.Sleep(100 * time.Microsecond)
				close(release)
			})
			<-done
			<-done
		})
		vm.Wait()
		vm.Close()
		return vm
	}
	recVM := run(Config{ID: 9, Mode: ids.Record})
	run(Config{ID: 9, Mode: ids.Replay, ReplayLogs: recVM.Logs()})
}

func TestFastForward(t *testing.T) {
	sched := []tracelog.Interval{
		{Thread: 0, First: 0, Last: 9},
		{Thread: 0, First: 20, Last: 29},
		{Thread: 0, First: 40, Last: 49},
	}
	cases := []struct {
		at          ids.GCount
		wantLen     int
		wantFirst   ids.GCount
		wantSkipped uint64
	}{
		{at: 0, wantLen: 3, wantFirst: 0, wantSkipped: 0},
		{at: 5, wantLen: 3, wantFirst: 5, wantSkipped: 5},
		{at: 10, wantLen: 2, wantFirst: 20, wantSkipped: 10},
		{at: 25, wantLen: 2, wantFirst: 25, wantSkipped: 15},
		{at: 45, wantLen: 1, wantFirst: 45, wantSkipped: 25},
		{at: 50, wantLen: 0, wantSkipped: 30},
	}
	for _, c := range cases {
		got, skipped := fastForward(sched, c.at)
		if len(got) != c.wantLen {
			t.Errorf("fastForward(at=%d) kept %d intervals, want %d", c.at, len(got), c.wantLen)
			continue
		}
		if skipped != c.wantSkipped {
			t.Errorf("fastForward(at=%d) skipped %d events, want %d", c.at, skipped, c.wantSkipped)
		}
		if c.wantLen > 0 && got[0].First != c.wantFirst {
			t.Errorf("fastForward(at=%d) first = %d, want %d", c.at, got[0].First, c.wantFirst)
		}
	}
}

func TestCountNetworkEventModes(t *testing.T) {
	for _, mode := range []ids.Mode{ids.Record, ids.Passthrough} {
		vm := startVM(t, Config{ID: 11, Mode: mode})
		vm.Start(func(main *Thread) {
			main.CountNetworkEvent()
			main.CountNetworkEvent()
		})
		vm.Wait()
		vm.Close()
		want := uint64(2)
		if mode == ids.Passthrough {
			want = 0
		}
		if got := vm.Stats().NetworkEvents; got != want {
			t.Errorf("%v: NetworkEvents = %d, want %d", mode, got, want)
		}
	}
}

// TestRemainingScheduled counts a thread's unreplayed events on every order
// stream: under OrderSharded the ten accesses are on x's own stream, where a
// count of the global schedule alone reads 0.
func TestRemainingScheduled(t *testing.T) {
	for _, order := range []ids.OrderMode{ids.OrderGlobal, ids.OrderSharded} {
		vm := startVM(t, Config{ID: 12, Mode: ids.Record, OrderMode: order})
		var x SharedInt
		x.Register(vm)
		vm.Start(func(main *Thread) {
			for i := 0; i < 10; i++ {
				x.Set(main, int64(i))
			}
		})
		vm.Wait()
		vm.Close()

		rep := startVM(t, Config{ID: 12, Mode: ids.Replay, OrderMode: order, ReplayLogs: vm.Logs()})
		var y SharedInt
		y.Register(rep)
		var remaining []uint64
		rep.Start(func(main *Thread) {
			remaining = append(remaining, main.RemainingScheduled())
			y.Set(main, 0)
			remaining = append(remaining, main.RemainingScheduled())
			for i := 1; i < 10; i++ {
				y.Set(main, int64(i))
			}
			remaining = append(remaining, main.RemainingScheduled())
		})
		rep.Wait()
		rep.Close()
		if remaining[0] != 10 || remaining[1] != 9 || remaining[2] != 0 {
			t.Errorf("%v: RemainingScheduled sequence %v, want [10 9 0]", order, remaining)
		}
	}
}
