package core

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/tracelog"
)

// TestObserverCrashEndsEveryThread: an observer that panics Crash at counter
// k fail-stops its recording VM there. The killed thread holds a monitor, and
// around it one thread waits to enter that monitor, one sits in another
// monitor's wait set, one joins the killed thread, and two are queued on the
// critical section (a Blocking mark and a Critical op). Every one of them
// ends, no op or mark runs at or after k but the killing event's own, and
// neither the schedule log nor the WAL covers k. A panic from an op that is
// not a Crash still reaches the application as it was.
func TestObserverCrashEndsEveryThread(t *testing.T) {
	t.Run("threads", func(t *testing.T) {
		const k = 50
		path := filepath.Join(t.TempDir(), "crash.wal")
		crashed := make(chan struct{})
		vm, err := NewVM(Config{ID: 1, Mode: ids.Record, EventObserver: func(_ ids.ThreadNum, gc ids.GCount) {
			if gc == k {
				close(crashed)
				time.Sleep(50 * time.Millisecond) // the queued threads reach the section's lock
				panic(Crash{})
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		if err := vm.EnableWAL(path, tracelog.WALOptions{SyncEvery: 1}); err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var ran []ids.GCount // the counter of every op and mark that ran
		note := func(gc ids.GCount) {
			mu.Lock()
			ran = append(ran, gc)
			mu.Unlock()
		}
		held, waitSet := NewMonitor(), NewMonitor()
		waiting := func(m *Monitor, list *[]*parked) bool {
			m.lock()
			defer m.unlock()
			return len(*list) > 0
		}
		joining := make(chan struct{})
		vm.Start(func(main *Thread) {
			main.Spawn(func(th *Thread) {
				waitSet.Enter(th)
				waitSet.Wait(th) // nobody notifies
			})
			held.Enter(main)
			main.Spawn(func(th *Thread) { held.Enter(th) })
			main.Spawn(func(th *Thread) {
				close(joining)
				th.Join(main)
			})
			main.Spawn(func(th *Thread) { th.Blocking(func() { <-crashed }, note) })
			main.Spawn(func(th *Thread) {
				<-crashed
				th.Critical(note)
			})
			<-joining
			for !waiting(waitSet, &waitSet.waiters) || !waiting(held, &held.queue) {
				time.Sleep(time.Millisecond)
			}
			for {
				main.Critical(note)
			}
		})
		<-crashed
		done := make(chan struct{})
		go func() {
			vm.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(time.Second):
			t.Fatal("the crashed VM's threads did not all end within 1 s")
		}
		if last := ran[len(ran)-1]; last != k {
			t.Fatalf("ops and marks ran at %v: the last must be the killing event's own, at %d", ran, k)
		}
		for _, gc := range ran[:len(ran)-1] {
			if gc >= k {
				t.Fatalf("an op or mark ran at %d, at or after the crash at %d: %v", gc, k, ran)
			}
		}
		salvaged, _, err := tracelog.RecoverFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for name, l := range map[string]*tracelog.Log{"schedule log": vm.Logs().Schedule, "WAL": salvaged.Schedule} {
			entries, err := l.Entries()
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				switch r := e.(type) {
				case *tracelog.Interval:
					if r.Last >= k {
						t.Fatalf("%s: %+v covers the crashed event %d", name, r, k)
					}
				case *tracelog.OpenInterval:
					if r.Last >= k {
						t.Fatalf("%s: %+v covers the crashed event %d", name, r, k)
					}
				}
			}
		}
		if err := vm.Close(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("op-panic", func(t *testing.T) {
		vm, err := NewVM(Config{ID: 1, Mode: ids.Record, EventObserver: func(ids.ThreadNum, ids.GCount) {}})
		if err != nil {
			t.Fatal(err)
		}
		boom := errors.New("boom")
		var got any
		var x SharedInt
		vm.Start(func(main *Thread) {
			func() {
				defer func() { got = recover() }()
				main.Critical(func(ids.GCount) { panic(boom) })
			}()
			x.Set(main, 1) // the VM lives on
		})
		vm.Wait()
		if got != boom || x.Load() != 1 {
			t.Fatalf("recovered %v, x = %d: want the op's own panic value and a live VM", got, x.Load())
		}
		vm.Close()
	})
}
