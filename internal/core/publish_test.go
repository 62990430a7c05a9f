package core

import (
	"sync"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/logcheck"
	"repro/internal/obs"
)

// A recording VM counts under its lock and publishes the counter word per run
// or batch; these tests pin what readers outside the lock may rely on. They
// drive events through Thread.critical so an op can stop in flight — inside
// the section, where a reader's refresh cannot get the lock and the word is
// whatever was last published.

// within runs f on its own goroutine and fails the test unless it returns
// inside the limit: the readers under test must never wait for the section.
func within(t *testing.T, limit time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); f() }()
	select {
	case <-done:
	case <-time.After(limit):
		t.Fatalf("%s blocked for more than %v", what, limit)
	}
}

// TestKindsNeverAheadOfTotal: one recording thread executes 3 batches + 7
// events in a single run — after the first event the only publications are the
// full batches, the site where per-kind counts could overtake a lazily
// published total. A sampler looks between events, and the test itself looks
// while chosen events are in flight. Then the same with every thread crossing
// between the global stream and an object's, where the counts of one stream's
// events are published from inside the other's section.
func TestKindsNeverAheadOfTotal(t *testing.T) {
	const events = 3*publishBatch + 7
	check := func(t *testing.T, prev *obs.Snapshot, s obs.Snapshot) {
		t.Helper()
		if sum := s.Events.Total(); sum > s.TotalEvents {
			t.Errorf("per-kind sum %d ahead of total %d", sum, s.TotalEvents)
		}
		if s.TotalEvents < prev.TotalEvents {
			t.Errorf("total went back from %d to %d", prev.TotalEvents, s.TotalEvents)
		}
		*prev = s
	}
	// sample takes checked snapshots until stop closes; the counter is read
	// after each, so a word ahead of it shows.
	sample := func(t *testing.T, vm *VM, stop chan struct{}) {
		var prev obs.Snapshot
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := vm.Metrics().Snapshot()
			check(t, &prev, s)
			if clock := uint64(vm.Clock()); s.Replay.CurrentGC > clock {
				t.Errorf("published counter %d ahead of vm.Clock() %d", s.Replay.CurrentGC, clock)
				return
			}
			time.Sleep(20 * time.Microsecond)
		}
	}

	for _, order := range []ids.OrderMode{ids.OrderGlobal, ids.OrderSharded} {
		t.Run("single-run/"+order.String(), func(t *testing.T) {
			vm := startVM(t, Config{ID: 90, Mode: ids.Record, OrderMode: order})
			var x SharedInt
			x.Register(vm)
			// The events at which the thread stops in flight: before the first
			// batch fills, and a few events after each batch was published.
			pauses := map[ids.GCount]bool{
				publishBatch - 1: true, publishBatch + 5: true, 2*publishBatch + 5: true, 3*publishBatch + 5: true,
			}
			inFlight, resume := make(chan ids.GCount), make(chan struct{})
			vm.Start(func(th *Thread) {
				s := th.streamFor(x.order)
				for i := 0; i < events; i++ {
					th.critical(s, obs.KindShared, func(n ids.GCount) {
						if pauses[n] {
							inFlight <- n
							<-resume
						}
					})
				}
			})
			stop := make(chan struct{})
			var sampler sync.WaitGroup
			sampler.Add(1)
			go func() { defer sampler.Done(); sample(t, vm, stop) }()
			var prev obs.Snapshot
			for range pauses {
				n := uint64(<-inFlight) // events 0..n-1 are complete, n is in flight
				var s obs.Snapshot
				within(t, 100*time.Millisecond, "Snapshot with an event in flight", func() { s = vm.Metrics().Snapshot() })
				check(t, &prev, s)
				if s.TotalEvents > n || n-s.TotalEvents >= publishBatch {
					t.Errorf("event %d in flight: total %d, want in (%d-%d, %d]", n, s.TotalEvents, n, publishBatch, n)
				}
				resume <- struct{}{}
			}
			vm.Wait()
			close(stop)
			sampler.Wait()
			s := vm.Metrics().Snapshot()
			if s.TotalEvents != events || s.Events.Total() != events || s.Events.Shared != events {
				t.Errorf("after Wait: total %d, per-kind sum %d, shared %d, want %d each", s.TotalEvents, s.Events.Total(), s.Events.Shared, events)
			}
			if order == ids.OrderGlobal && vm.Clock() != events {
				t.Errorf("vm.Clock() = %d, want %d", vm.Clock(), events)
			}
			if order == ids.OrderSharded && x.order.own.Load() != 0 {
				t.Errorf("a recording object stream stored its counter word: %d", x.order.own.Load())
			}
			vm.Close()
		})
	}

	t.Run("crossing-streams", func(t *testing.T) {
		const nThreads, iters = 4, 3000
		vm := startVM(t, Config{ID: 91, Mode: ids.Record, OrderMode: ids.OrderSharded, RecordJitter: 7})
		var global SharedInt // unregistered: the global stream
		own := make([]SharedInt, nThreads)
		for i := range own {
			own[i].Register(vm)
		}
		stop := make(chan struct{})
		var sampler sync.WaitGroup
		sampler.Add(1)
		go func() { defer sampler.Done(); sample(t, vm, stop) }()
		vm.Start(func(main *Thread) {
			kids := make([]*Thread, nThreads)
			for i := range kids {
				i := i
				kids[i] = main.Spawn(func(th *Thread) {
					for j := 0; j < iters; j++ {
						// Bursts on one stream, then the other, of lengths
						// that drift against each other and the batch size.
						for k := 0; k <= j%5; k++ {
							global.Add(th, 1)
						}
						for k := 0; k <= j%3; k++ {
							own[i].Add(th, 1)
						}
					}
				})
			}
			for _, k := range kids {
				main.Join(k)
			}
		})
		vm.Wait()
		close(stop)
		sampler.Wait()
		s := vm.Metrics().Snapshot()
		if s.TotalEvents != s.Events.Total() || s.Replay.CurrentGC != uint64(vm.Clock()) {
			t.Errorf("after Wait: total %d, per-kind sum %d; published counter %d, vm.Clock() %d",
				s.TotalEvents, s.Events.Total(), s.Replay.CurrentGC, vm.Clock())
		}
		vm.Close()
	})
}

// TestFrozenSectionNeverBlocksReaders: a thread that stops inside the critical
// section for good — an observer's breakpoint, a chaos kill, an op that never
// returns — must not take the readers with it: a supervisor polls the total
// to notice exactly that. With an observer the word is exact at the frozen
// event; without one it is the last published value.
func TestFrozenSectionNeverBlocksReaders(t *testing.T) {
	const k = 37
	read := func(t *testing.T, vm *VM) (total uint64, snap obs.Snapshot) {
		within(t, 100*time.Millisecond, "TotalEvents", func() { total = vm.Metrics().TotalEvents() })
		within(t, 100*time.Millisecond, "Snapshot", func() { snap = vm.Metrics().Snapshot() })
		return total, snap
	}
	t.Run("observer", func(t *testing.T) {
		frozen, release := make(chan struct{}), make(chan struct{})
		vm := startVM(t, Config{ID: 92, Mode: ids.Record, EventObserver: func(_ ids.ThreadNum, gc ids.GCount) {
			if gc == k {
				close(frozen)
				<-release
			}
		}})
		var x SharedInt
		vm.Start(func(th *Thread) {
			for i := 0; i <= k; i++ {
				x.Add(th, 1)
			}
		})
		<-frozen
		total, snap := read(t, vm)
		if total != k || snap.TotalEvents != k || snap.Replay.CurrentGC != k {
			t.Errorf("frozen inside observer(%d): TotalEvents %d, snapshot total %d, CurrentGC %d, want %d each",
				k, total, snap.TotalEvents, snap.Replay.CurrentGC, k)
		}
		close(release)
		vm.Wait()
	})
	t.Run("op", func(t *testing.T) {
		frozen, release := make(chan struct{}), make(chan struct{})
		vm := startVM(t, Config{ID: 93, Mode: ids.Record})
		vm.Start(func(th *Thread) {
			for i := 0; i <= k; i++ {
				th.Critical(func(gc ids.GCount) {
					if gc == k {
						close(frozen)
						<-release
					}
				})
			}
		})
		<-frozen
		total, snap := read(t, vm)
		// One run, no full batch: the word was published at the run's start.
		if total != 1 || snap.TotalEvents != 1 || snap.Events.Total() != 1 {
			t.Errorf("frozen inside op %d of one run: TotalEvents %d, snapshot total %d, per-kind sum %d, want the run's start, 1",
				k, total, snap.TotalEvents, snap.Events.Total())
		}
		close(release)
		vm.Wait()
		if total := vm.Metrics().TotalEvents(); total != k+1 {
			t.Errorf("released and finished: TotalEvents %d, want %d", total, k+1)
		}
	})
}

// TestPausedThreadReadsExact: a thread stopped between two events of an open
// run — blocked in plain Go code, which the runtime cannot see — holds no
// lock, so a reader's refresh brings the word up to the counter. The raw word
// shows the mechanism: it sits at a publication point, here the run's start.
func TestPausedThreadReadsExact(t *testing.T) {
	vm := startVM(t, Config{ID: 94, Mode: ids.Record})
	paused, resume := make(chan struct{}), make(chan struct{})
	var x SharedInt
	vm.Start(func(th *Thread) {
		for i := 0; i < 10; i++ {
			x.Add(th, 1)
		}
		close(paused)
		<-resume
		x.Add(th, 1)
	})
	<-paused
	if raw := vm.Metrics().Clock().Load(); raw != 1 {
		t.Errorf("raw counter word %d with 10 events of one open run executed, want its first publication point, 1", raw)
	}
	if s := vm.Metrics().Snapshot(); s.Replay.CurrentGC != 10 || s.TotalEvents != 10 {
		t.Errorf("paused after 10 events: CurrentGC %d, TotalEvents %d", s.Replay.CurrentGC, s.TotalEvents)
	}
	if raw := vm.Metrics().Clock().Load(); raw != 10 {
		t.Errorf("raw counter word %d after a reader refreshed it, want 10", raw)
	}
	if total := vm.Metrics().TotalEvents(); total != 10 {
		t.Errorf("TotalEvents %d, want 10", total)
	}
	close(resume)
	vm.Wait()
	if total := vm.Metrics().TotalEvents(); total != 11 || vm.Clock() != 11 {
		t.Errorf("after Wait: TotalEvents %d, vm.Clock() %d, want 11", total, vm.Clock())
	}
	vm.Close()
}

// TestPanickingEventDoesNotTick: an op that panics inside the section — a
// monitor exited by a thread that does not hold it — and is recovered by its
// thread is as if the event never happened: no counter value, no count, no
// record. Four threads interleave such events with racy accesses; the
// recording is well-formed and replays to the same state and the same counter.
// Each panicking exit is followed by a proper enter of the same monitor: a
// replayed event waits for its thread's next turn on its stream before it
// runs, panic or not, so under OrderSharded that turn must not lie behind
// events the thread has yet to execute on another stream.
func TestPanickingEventDoesNotTick(t *testing.T) {
	const nThreads, iters = 4, 200
	run := func(t *testing.T, cfg Config) (final int64, vm *VM) {
		vm = startVM(t, cfg)
		var x SharedInt
		mon := NewMonitor()
		x.Register(vm)
		mon.Register(vm)
		badExit := func(th *Thread) {
			defer func() {
				if _, ok := recover().(*MonitorStateError); !ok {
					t.Error("exit of a monitor not held did not raise MonitorStateError")
				}
			}()
			mon.Exit(th)
		}
		vm.Start(func(main *Thread) {
			kids := make([]*Thread, nThreads)
			for i := range kids {
				kids[i] = main.Spawn(func(th *Thread) {
					for j := 0; j < iters; j++ {
						x.Set(th, x.Get(th)+1)
						badExit(th)
						mon.Enter(th)
						mon.Exit(th)
						x.Set(th, x.Get(th)+1)
					}
				})
			}
			for _, k := range kids {
				main.Join(k)
			}
		})
		vm.Wait()
		vm.Close()
		return x.Load(), vm
	}
	for _, order := range []ids.OrderMode{ids.OrderGlobal, ids.OrderSharded} {
		t.Run(order.String(), func(t *testing.T) {
			recFinal, rec := run(t, Config{ID: 95, Mode: ids.Record, OrderMode: order, RecordJitter: 3})
			if rep := logcheck.CheckSet(rec.Logs()); !rep.OK() {
				t.Fatalf("recording is malformed: %v", rep.Findings)
			}
			recSnap := rec.Metrics().Snapshot()
			if want := uint64(nThreads*iters*6 + 2*nThreads); recSnap.TotalEvents != want || recSnap.Events.MonitorExit != nThreads*iters {
				t.Errorf("recorded %d events, %d of them monitor exits, want %d and %d: the panicking exits must not count",
					recSnap.TotalEvents, recSnap.Events.MonitorExit, want, nThreads*iters)
			}
			repFinal, rep := run(t, Config{ID: 95, Mode: ids.Replay, OrderMode: order, ReplayLogs: rec.Logs(), StallTimeout: 5 * time.Second})
			if repFinal != recFinal {
				t.Errorf("replay ended at %d, record at %d", repFinal, recFinal)
			}
			if rep.Clock() != rec.Clock() {
				t.Errorf("replay's counter ended at %d, record's at %d", rep.Clock(), rec.Clock())
			}
			if repSnap := rep.Metrics().Snapshot(); repSnap.Events != recSnap.Events || repSnap.TotalEvents != recSnap.TotalEvents {
				t.Errorf("counts differ:\nrecord %+v total %d\nreplay %+v total %d", recSnap.Events, recSnap.TotalEvents, repSnap.Events, repSnap.TotalEvents)
			}
		})
	}
}

// TestObjectSectionNeverWaitsForGlobalLock: stream locks never nest. A thread
// that enters an object's section with global events still counted locally
// publishes them — which takes the global lock — on the way in, holding
// nothing; so while the global section is occupied for good, the object stays
// usable by every thread that owes the global stream nothing.
func TestObjectSectionNeverWaitsForGlobalLock(t *testing.T) {
	vm := startVM(t, Config{ID: 96, Mode: ids.Record, OrderMode: ids.OrderSharded})
	var onGlobal, x SharedInt // onGlobal stays unregistered
	x.Register(vm)
	counted, frozen, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{}), make(chan struct{})
	vm.Start(func(main *Thread) {
		main.Spawn(func(th *Thread) {
			for i := 0; i < 5; i++ {
				onGlobal.Add(th, 1) // one run: the first published, four counted locally
			}
			close(counted)
			<-frozen
			x.Add(th, 1)
		})
		main.Spawn(func(th *Thread) {
			<-counted
			th.Critical(func(ids.GCount) {
				close(frozen)
				<-release
			})
		})
		main.Spawn(func(th *Thread) {
			<-frozen
			time.Sleep(20 * time.Millisecond) // let the first thread reach the lock it must wait for
			x.Add(th, 1)
			close(done)
		})
	})
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Error("an object's section is held by a thread waiting for the global lock")
	}
	close(release)
	vm.Wait()
	if s := vm.Metrics().Snapshot(); s.TotalEvents != 3+5+1+2 || s.Events.Total() != s.TotalEvents {
		t.Errorf("total %d, per-kind sum %d, want 11 each", s.TotalEvents, s.Events.Total())
	}
	vm.Close()
}
