package core

import (
	"testing"
	"time"

	"repro/internal/ids"
)

func TestAccessors(t *testing.T) {
	vm := startVM(t, Config{ID: 123, Mode: ids.Record, World: ids.MixedWorld,
		DJVMPeers: map[string]bool{"friend": true}})
	if vm.ID() != 123 {
		t.Error("ID")
	}
	if vm.Mode() != ids.Record {
		t.Error("Mode")
	}
	if vm.World() != ids.MixedWorld {
		t.Error("World")
	}
	if !vm.IsDJVMPeer("friend") || vm.IsDJVMPeer("stranger") {
		t.Error("IsDJVMPeer in mixed world")
	}
	if vm.NetworkIndex() != nil || vm.DatagramIndex() != nil || vm.ScheduleIndex() != nil {
		t.Error("record-mode VM has replay indexes")
	}
	if vm.NextThreadNum() != 0 {
		t.Error("NextThreadNum before Start")
	}

	var x SharedInt
	var s SharedVar[string]
	vm.Start(func(main *Thread) {
		if main.VM() != vm {
			t.Error("Thread.VM")
		}
		if main.Num() != 0 {
			t.Error("main thread num")
		}
		ev := main.NextEventNum()
		if main.EventID(ev) != (ids.NetworkEventID{Thread: 0, Event: ev}) {
			t.Error("EventID")
		}
		if main.CurrentEventNum() != ev+1 {
			t.Error("CurrentEventNum")
		}
		x.Set(main, 7)
		s.Set(main, "v")
		if vm.Clock() == 0 {
			t.Error("Clock did not advance")
		}
	})
	vm.Wait()
	vm.Close()
	if x.Load() != 7 || s.Load() != "v" {
		t.Error("Load after run")
	}
	x.Restore(9)
	s.Restore("w")
	if x.Load() != 9 || s.Load() != "w" {
		t.Error("Restore")
	}

	bar := NewBarrier(3)
	if bar.parties != 3 {
		t.Error("Barrier parties")
	}

	// Error strings.
	de := &DivergenceError{VM: 1, Thread: 2, Msg: "boom"}
	if de.Error() == "" {
		t.Error("DivergenceError.Error empty")
	}
	me := &MonitorStateError{Op: "exit", Thread: 3}
	if me.Error() == "" {
		t.Error("MonitorStateError.Error empty")
	}

	// Replay-mode accessors.
	rep := startVM(t, Config{ID: 123, Mode: ids.Replay, World: ids.MixedWorld, ReplayLogs: vm.Logs()})
	if rep.NetworkIndex() == nil || rep.DatagramIndex() == nil || rep.ScheduleIndex() == nil {
		t.Error("replay-mode VM lacks indexes")
	}
}

func TestTimedWaitPassthroughPaths(t *testing.T) {
	vm := startVM(t, Config{ID: 124, Mode: ids.Passthrough})
	mon := NewMonitor()
	var outcomes SharedVar[[]bool]
	vm.Start(func(main *Thread) {
		// Timeout path.
		mon.Enter(main)
		to1 := mon.TimedWait(main, 2*time.Millisecond)
		mon.Exit(main)

		// Notified path.
		entered := make(chan struct{})
		var to2 bool
		waiter := main.Spawn(func(th *Thread) {
			mon.Enter(th)
			close(entered)
			to2 = mon.TimedWait(th, time.Hour)
			mon.Exit(th)
		})
		<-entered
		mon.Enter(main)
		mon.Notify(main)
		mon.Exit(main)
		main.Join(waiter)
		outcomes.Set(main, []bool{to1, to2})
	})
	vm.Wait()
	vm.Close()
	got := outcomes.Load()
	if !got[0] {
		t.Error("passthrough timed wait without notify did not time out")
	}
	if got[1] {
		t.Error("passthrough notified wait reported timeout")
	}
}

// waiterCount, holder and objectCount read state a program must not branch
// on, since the log records none of these reads; tests read it here.
func waiterCount(m *Monitor) int {
	m.lock()
	defer m.unlock()
	return len(m.waiters)
}

func holder(m *Monitor) (ids.ThreadNum, bool) {
	m.lock()
	defer m.unlock()
	return m.holder, m.held
}

func objectCount(vm *VM) int { return len(vm.allStreams()) - 1 }
