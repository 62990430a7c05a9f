package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/logcheck"
	"repro/internal/obs"
	"repro/internal/tracelog"
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
// events are published from inside the other's section — recorded, and then
// replayed.
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

	// Replayed, the same crossing publishes the other way round: a thread
	// that holds the global counter's turn, with its word behind, ends a run
	// on its object and publishes counts that include global events — after
	// the word (cursor.publish from Thread.publishCounts).
	t.Run("crossing-streams", func(t *testing.T) {
		const nThreads, iters = 4, 3000
		crossing := func(cfg Config) *VM {
			vm := startVM(t, cfg)
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
				t.Errorf("%v, after Wait: total %d, per-kind sum %d; published counter %d, vm.Clock() %d",
					cfg.Mode, s.TotalEvents, s.Events.Total(), s.Replay.CurrentGC, vm.Clock())
			}
			vm.Close()
			return vm
		}
		rec := crossing(Config{ID: 91, Mode: ids.Record, OrderMode: ids.OrderSharded, RecordJitter: 7})
		rep := crossing(Config{ID: 91, Mode: ids.Replay, OrderMode: ids.OrderSharded, ReplayLogs: rec.Logs(), StallTimeout: 5 * time.Second})
		if r, p := rec.Metrics().Snapshot(), rep.Metrics().Snapshot(); r.Events != p.Events || r.TotalEvents != p.TotalEvents {
			t.Errorf("record %+v total %d, replay %+v total %d", r.Events, r.TotalEvents, p.Events, p.TotalEvents)
		}
	})
}

// TestReplayedCountsFollowTheGlobalWord: a replaying thread holds the global
// counter's turn in mid-run, its word behind, and runs an object's whole run —
// a full batch and then the run's end, both of which publish counts that
// include its global events. The global word is stored first each time —
// deterministic here, where the crossing test above has to catch a window.
func TestReplayedCountsFollowTheGlobalWord(t *testing.T) {
	const onGlobal, onObject = 5, publishBatch + 500
	run := func(cfg Config, look func(vm *VM)) *VM {
		vm := startVM(t, cfg)
		var g, x SharedInt // g stays unregistered: the global stream
		x.Register(vm)
		vm.Start(func(main *Thread) {
			for i := 0; i < onGlobal; i++ {
				g.Add(main, 1)
			}
			for i := 0; i < onObject; i++ {
				if i == publishBatch && look != nil {
					look(vm)
				}
				x.Add(main, 1)
			}
			if look != nil {
				look(vm)
			}
			g.Add(main, 1) // the global run goes on: its turn was held throughout
		})
		vm.Wait()
		vm.Close()
		return vm
	}
	rec := run(Config{ID: 104, Mode: ids.Record, OrderMode: ids.OrderSharded}, nil)
	want := []uint64{publishBatch, onGlobal + onObject} // after the full batch; after the object's run
	run(Config{ID: 104, Mode: ids.Replay, OrderMode: ids.OrderSharded, ReplayLogs: rec.Logs()}, func(vm *VM) {
		s := vm.Metrics().Snapshot()
		if s.Events.Total() != want[0] || s.Replay.CurrentGC != onGlobal || s.TotalEvents != want[0] {
			t.Errorf("per-kind sum %d, global word %d, total %d; want %d, %d, %d",
				s.Events.Total(), s.Replay.CurrentGC, s.TotalEvents, want[0], onGlobal, want[0])
		}
		want = want[1:]
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
// usable by every thread that owes the global stream nothing. Get and Set
// are recorded without a closure (recordInt) and Add with one, and each must
// publish on the way in.
func TestObjectSectionNeverWaitsForGlobalLock(t *testing.T) {
	for _, access := range []struct {
		name string
		do   func(x *SharedInt, th *Thread)
	}{
		{"add", func(x *SharedInt, th *Thread) { x.Add(th, 1) }},
		{"get", func(x *SharedInt, th *Thread) { x.Get(th) }},
		{"set", func(x *SharedInt, th *Thread) { x.Set(th, 1) }},
	} {
		t.Run(access.name, func(t *testing.T) {
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
					access.do(&x, th)
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
					access.do(&x, th)
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
		})
	}
}

// A replaying thread takes a stream's turn once per run and keeps it: between
// the run's First and Last it stores the word only where cursor.publish says.
// The tests below pin that rule from the outside — what a reader may find in
// the word, and when — in both order modes: under OrderSharded the events go
// to a registered object's stream and its word, under OrderGlobal to the
// global one's.

// longRun records `events` accesses to one variable by the main thread — one
// run on the variable's stream — followed by one access by a child: the run's
// successor. between, when non-nil, is called by the main thread before its
// event i, outside any event; blockAt >= 0 makes event blockAt a blocking one
// whose op calls inOp. Both get the word of the variable's stream.
type longRun struct {
	events  int
	between func(th *Thread, word *atomic.Uint64, i int)
	blockAt int
	inOp    func(word *atomic.Uint64)
}

func (p longRun) run(t *testing.T, cfg Config) (*VM, *atomic.Uint64) {
	t.Helper()
	vm := startVM(t, cfg)
	var x SharedInt
	x.Register(vm)
	s := x.order
	if s == nil {
		s = vm.global
	}
	vm.Start(func(main *Thread) {
		for i := 0; i < p.events; i++ {
			if p.between != nil {
				p.between(main, s.clock, i)
			}
			if i == p.blockAt {
				main.blocking(s, obs.KindShared, func() {
					if p.inOp != nil {
						p.inOp(s.clock)
					}
				}, func(ids.GCount) { x.v++ })
				continue
			}
			x.Add(main, 1)
		}
		child := main.Spawn(func(th *Thread) { x.Add(th, 1) })
		main.Join(child)
	})
	vm.Wait()
	return vm, s.clock
}

func TestReplayWordMovesPerRunNotPerEvent(t *testing.T) {
	const (
		events = 5000
		k      = 2*publishBatch + 300 // off every publication point
		kBlock = 3*publishBatch + 77
	)
	for _, order := range []ids.OrderMode{ids.OrderGlobal, ids.OrderSharded} {
		t.Run(order.String(), func(t *testing.T) {
			rec, _ := longRun{events: events, blockAt: kBlock}.run(t, Config{ID: 97, Mode: ids.Record, OrderMode: order})
			rec.Close()
			recSnap := rec.Metrics().Snapshot()

			prog := longRun{events: events, blockAt: kBlock}
			prog.between = func(th *Thread, word *atomic.Uint64, i int) {
				if i != k {
					return
				}
				// Plain Go code between events k-1 and k of the run: the word
				// is wherever the last full batch left it.
				if w := word.Load(); w > k || w+publishBatch <= k || w == k {
					t.Errorf("paused before event %d of a %d-event run: word %d, want in (%d, %d)", k, events, w, k-publishBatch, k)
				}
				if order == ids.OrderGlobal && word != th.vm.Metrics().Clock() {
					t.Error("the global stream's word is not Metrics().Clock()")
				}
				// Asking makes it exact, for the stream the thread runs on and
				// for the global counter the answer is about.
				if gc := th.Clock(); order == ids.OrderGlobal && gc != k {
					t.Errorf("Thread.Clock() = %d before event %d", gc, k)
				}
				if w := word.Load(); w != k {
					t.Errorf("word %d after Thread.Clock(), want %d", w, k)
				}
			}
			prog.inOp = func(word *atomic.Uint64) {
				if w := word.Load(); w != kBlock {
					t.Errorf("inside the op of blocking event %d: word %d", kBlock, w)
				}
			}
			rep, word := prog.run(t, Config{ID: 97, Mode: ids.Replay, OrderMode: order, ReplayLogs: rec.Logs(), StallTimeout: 5 * time.Second})
			snap := rep.Metrics().Snapshot()
			if snap.Replay.CurrentGC != snap.Replay.FinalGC || uint64(rep.Clock()) != snap.Replay.FinalGC {
				t.Errorf("after Wait: CurrentGC %d, vm.Clock() %d, FinalGC %d", snap.Replay.CurrentGC, rep.Clock(), snap.Replay.FinalGC)
			}
			if snap.Events.Total() != snap.TotalEvents || snap.Events != recSnap.Events || snap.TotalEvents != recSnap.TotalEvents ||
				snap.Replay.CurrentGC != recSnap.Replay.CurrentGC {
				t.Errorf("after Wait:\nreplay %+v total %d gc %d\nrecord %+v total %d gc %d",
					snap.Events, snap.TotalEvents, snap.Replay.CurrentGC, recSnap.Events, recSnap.TotalEvents, recSnap.Replay.CurrentGC)
			}
			want := uint64(events + 1) // the object's accesses
			if order == ids.OrderGlobal {
				want += 2 // the spawn and the join
			}
			if w := word.Load(); w != want {
				t.Errorf("the stream's word ended at %d, want %d", w, want)
			}
		})
	}

	// With an observer the word is exact at every event.
	t.Run("observer", func(t *testing.T) {
		rec, _ := longRun{events: 300, blockAt: -1}.run(t, Config{ID: 98, Mode: ids.Record})
		rec.Close()
		var rep *VM
		seen := 0
		cfg := Config{ID: 98, Mode: ids.Replay, ReplayLogs: rec.Logs(), EventObserver: func(_ ids.ThreadNum, gc ids.GCount) {
			seen++
			if raw := rep.Metrics().Clock().Load(); raw != uint64(gc) {
				t.Errorf("observer(%d): word %d", gc, raw)
			}
		}}
		var err error
		if rep, err = NewVM(cfg); err != nil {
			t.Fatal(err)
		}
		var x SharedInt
		rep.Start(func(main *Thread) {
			for i := 0; i < 300; i++ {
				x.Add(main, 1)
				if raw := rep.Metrics().Clock().Load(); raw != uint64(i+1) {
					t.Errorf("after event %d: word %d", i, raw)
				}
			}
			main.Join(main.Spawn(func(th *Thread) { x.Add(th, 1) }))
		})
		rep.Wait()
		if seen != 303 {
			t.Errorf("observer saw %d events, want 303", seen)
		}
	})
}

// TestClockDecidesTheSameInReplay: a program whose loop bound is the counter,
// read by the looping thread between two events of one run, executes the same
// number of iterations in replay — Thread.Clock is exact for the thread that
// asks even though the word it holds the turn of is not. The run goes on after
// the loop, so the look that ends it is a look from inside the run: with
// vm.Clock() there the replay reads a stale word and goes round again.
func TestClockDecidesTheSameInReplay(t *testing.T) {
	for _, order := range []ids.OrderMode{ids.OrderGlobal, ids.OrderSharded} {
		t.Run(order.String(), func(t *testing.T) {
			for round := 0; round < 200; round++ {
				limit := ids.GCount(40 + 13*round)
				run := func(cfg Config) (iters int, final int64, vm *VM) {
					vm = startVM(t, cfg)
					var onGlobal, x SharedInt // onGlobal stays unregistered: it moves the global counter
					x.Register(vm)
					vm.Start(func(main *Thread) {
						for main.Clock() < limit {
							onGlobal.Add(main, 1)
							x.Add(main, 2)
							iters++
						}
						onGlobal.Add(main, 1)
						x.Add(main, -1)
					})
					vm.Wait()
					vm.Close()
					return iters, x.Load(), vm
				}
				recIters, recFinal, rec := run(Config{ID: 99, Mode: ids.Record, OrderMode: order})
				repIters, repFinal, rep := run(Config{ID: 99, Mode: ids.Replay, OrderMode: order, ReplayLogs: rec.Logs(), StallTimeout: 5 * time.Second})
				if repIters != recIters || repFinal != recFinal || rep.Clock() != rec.Clock() {
					t.Fatalf("limit %d: replay ran %d iterations to %d (counter %d), record %d to %d (counter %d)",
						limit, repIters, repFinal, rep.Clock(), recIters, recFinal, rec.Clock())
				}
			}
		})
	}
}

// TestClockAfterLogEndInsideARun: crash-recovery replay ends wherever the
// salvaged log does, and recovery then reads the clock. A thread that runs out
// of schedule on one stream while it holds the turn of the global counter,
// inside a run, leaves the word at the crash point exactly.
func TestClockAfterLogEndInsideARun(t *testing.T) {
	const recorded, executed = 50, 23
	rec := startVM(t, Config{ID: 100, Mode: ids.Record, OrderMode: ids.OrderSharded})
	var onGlobal SharedInt
	rec.Start(func(main *Thread) {
		for i := 0; i < recorded; i++ {
			onGlobal.Add(main, 1)
		}
	})
	rec.Wait()
	rec.Close()

	rep := startVM(t, Config{ID: 100, Mode: ids.Replay, OrderMode: ids.OrderSharded, ReplayLogs: rec.Logs(), StopAtLogEnd: true})
	var unrecorded SharedInt
	unrecorded.Register(rep)
	rep.Start(func(main *Thread) {
		for i := 0; i < executed; i++ {
			onGlobal.Add(main, 1)
		}
		if raw := rep.Metrics().Clock().Load(); raw == executed {
			t.Errorf("word already %d inside the run: the test does not reach the lazy path", raw)
		}
		unrecorded.Add(main, 1) // no recorded access: the log ends here
		t.Error("thread ran past the end of its log")
	})
	rep.Wait()
	if rep.LogEndStops() != 1 {
		t.Fatalf("LogEndStops = %d, want 1", rep.LogEndStops())
	}
	if s := rep.Metrics().Snapshot(); rep.Clock() != executed || s.Replay.CurrentGC != executed || s.Events.Total() != executed {
		t.Errorf("after Wait: vm.Clock() %d, CurrentGC %d, per-kind sum %d, want the crash point %d", rep.Clock(), s.Replay.CurrentGC, s.Events.Total(), executed)
	}
}

// TestResumeIntoTheMiddleOfARun: a checkpoint resume trims the run it lands in
// to start at the resume counter (fastForward). The trimmed run's first event
// is a run start like any other — it takes the turn by finding the word at its
// value and arms the in-place path with the events left of the trimmed run,
// not of the recorded one — and the suffix replays to the recorded outcome.
func TestResumeIntoTheMiddleOfARun(t *testing.T) {
	const events, at = 3000, 1234
	// Main's recorded run is [0, events]: its accesses, then the spawn.
	program := func(vm *VM, x *SharedInt, from int) (childSaw int64) {
		vm.Start(func(main *Thread) {
			for i := from; i < events; i++ {
				if c := main.cursors; vm.mode == ids.Replay && i > from {
					r := c[0]
					full := main.pendingN+uint32(r.pos-r.from) == publishBatch-1
					if main.run != r || r.last-r.pos != ids.GCount(events-i) || r.stop > r.last || (r.pos < r.stop) == full {
						t.Errorf("before the resumed run's event %d: Thread.run is the global cursor: %v, with %d events before its Last and its stretch armed up to %d at %d, batch full: %v; want %d left, armed unless the batch is full",
							i, main.run == r, r.last-r.pos, r.stop, r.pos, full, events-i)
						return
					}
				}
				x.Add(main, int64(i))
			}
			main.Join(main.Spawn(func(th *Thread) { childSaw = x.Add(th, 1) }))
		})
		vm.Wait()
		return childSaw
	}
	rec := startVM(t, Config{ID: 101, Mode: ids.Record})
	var x SharedInt
	want := program(rec, &x, 0)
	rec.Close()

	var atValue int64
	for i := 0; i < at; i++ {
		atValue += int64(i)
	}
	rep := startVM(t, Config{
		ID: 101, Mode: ids.Replay, ReplayLogs: rec.Logs(), StallTimeout: 5 * time.Second,
		Resume: &ResumePoint{GC: at, NextThread: 1},
	})
	var y SharedInt
	y.Restore(atValue)
	if got := program(rep, &y, at); got != want {
		t.Errorf("resumed at %d inside the run: child saw %d, recorded %d", at, got, want)
	}
	s := rep.Metrics().Snapshot()
	if rep.Clock() != rec.Clock() || s.FastForwardSkips != at || s.TotalEvents != uint64(rec.Clock())-at || s.Events.Total() != s.TotalEvents {
		t.Errorf("resumed replay: counter %d (recorded %d), skipped %d, total %d, per-kind sum %d",
			rep.Clock(), rec.Clock(), s.FastForwardSkips, s.TotalEvents, s.Events.Total())
	}
}

// TestHandoffOfTwoHeldTurns: a thread alternates between two
// objects, inside a long run on each, while a successor is parked on each.
// Neither successor is admitted before the run's Last+1 — it finds every one of
// the run's writes — and both are, without the watchdog's help.
func TestHandoffOfTwoHeldTurns(t *testing.T) {
	const events = 2500
	run := func(cfg Config) (sawX, sawY int64, vm *VM) {
		vm = startVM(t, cfg)
		var x, y SharedInt
		x.Register(vm)
		y.Register(vm)
		replay := cfg.Mode == ids.Replay
		ran := make(chan struct{})
		vm.Start(func(main *Thread) {
			a := main.Spawn(func(th *Thread) {
				if !replay {
					<-ran // record: the successors come after the runs
				}
				sawX = x.Add(th, 1)
			})
			b := main.Spawn(func(th *Thread) {
				if !replay {
					<-ran
				}
				sawY = y.Add(th, 1)
			})
			if replay {
				// Let both successors park before the runs start.
				for deadline := time.Now().Add(10 * time.Second); len(vm.parkedThreads()) != 2; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Error("successors never parked")
						break
					}
				}
				w := parkedByThread(vm.parkedThreads())
				if w[1] != (ParkedThread{Thread: 1, Stream: tracelog.ObjectStream(0), Next: events}) ||
					w[2] != (ParkedThread{Thread: 2, Stream: tracelog.ObjectStream(1), Next: events}) {
					t.Errorf("successors parked on %v, want access %d of each object", w, events)
				}
			}
			for i := 0; i < events; i++ {
				x.Add(main, 1)
				y.Add(main, 1)
			}
			close(ran)
			main.Join(a)
			main.Join(b)
		})
		vm.Wait()
		vm.Close()
		return sawX, sawY, vm
	}
	recX, recY, rec := run(Config{ID: 102, Mode: ids.Record, OrderMode: ids.OrderSharded})
	if recX != events+1 || recY != events+1 {
		t.Fatalf("record: successors saw %d and %d", recX, recY)
	}
	repX, repY, rep := run(Config{ID: 102, Mode: ids.Replay, OrderMode: ids.OrderSharded, ReplayLogs: rec.Logs(), StallTimeout: 5 * time.Second})
	if repX != recX || repY != recY {
		t.Errorf("replay: successors saw %d and %d, recorded %d and %d", repX, repY, recX, recY)
	}
	if s := rep.Metrics().Snapshot(); s.Events != rec.Metrics().Snapshot().Events || s.Replay.Stalled || s.Replay.ParkedThreads != 0 {
		t.Errorf("replay ended with %+v (stalled %v, parked %d), record %+v", s.Events, s.Replay.Stalled, s.Replay.ParkedThreads, rec.Metrics().Snapshot().Events)
	}
}

// TestPanickingEventKeepsTheTurn: an op that panics in the middle of a run the
// thread holds the turn of — replayed in place by critical, through
// Thread.Critical or a SharedVar.Update whose fn panics — leaves the position
// where it was, the stretch armed and the turn held: the retry is the same
// event, and it runs without looking at the word.
func TestPanickingEventKeepsTheTurn(t *testing.T) {
	const events, bad = 40, 17
	var v SharedVar[int] // the update arm's variable, on the global stream
	for _, arm := range []struct {
		name string
		// event executes one event of main; its op panics once on the bad
		// counter value, and otherwise appends the value to order.
		event func(main *Thread, op func(gc ids.GCount))
	}{
		{"critical", func(main *Thread, op func(ids.GCount)) { main.Critical(op) }},
		{"update", func(main *Thread, op func(ids.GCount)) {
			v.Update(main, func(n int) int {
				if main.run != nil { // replaying: the position the event replays at
					op(main.run.pos)
				}
				return n + 1
			})
		}},
	} {
		t.Run(arm.name, func(t *testing.T) {
			rec := startVM(t, Config{ID: 103, Mode: ids.Record})
			rec.Start(func(main *Thread) {
				for i := 0; i < events; i++ {
					arm.event(main, func(ids.GCount) {})
				}
			})
			rec.Wait()
			rec.Close()

			rep := startVM(t, Config{ID: 103, Mode: ids.Replay, ReplayLogs: rec.Logs()})
			var order []ids.GCount
			rep.Start(func(main *Thread) {
				panicked := false
				for i := 0; i < events; i++ {
					func() {
						defer func() {
							switch r := recover(); r {
							case nil:
							case "injected":
								c := main.cursors[0]
								if !c.held || c.pos != bad || c.last-c.pos != events-1-bad || c.pos >= c.stop || main.run != c {
									t.Errorf("after the panic: held %v, position %d, %d events before the Last, stretch armed up to %d, Thread.run is the global cursor: %v; want the turn held at %d with %d left, armed",
										c.held, c.pos, c.last-c.pos, c.stop, main.run == c, bad, events-1-bad)
								}
								i-- // retry
							default:
								t.Errorf("event %d: %v", i, r)
								i = events // stop
							}
						}()
						arm.event(main, func(gc ids.GCount) {
							if gc == bad && !panicked {
								panicked = true
								panic("injected")
							}
							order = append(order, gc)
						})
					}()
				}
			})
			rep.Wait()
			if len(order) != events {
				t.Fatalf("%d events executed, want %d", len(order), events)
			}
			for i, gc := range order {
				if gc != ids.GCount(i) {
					t.Fatalf("event %d executed with counter %d", i, gc)
				}
			}
			if s := rep.Metrics().Snapshot(); s.TotalEvents != events || s.Events.Total() != events || s.TurnWait.Count != 0 {
				t.Errorf("total %d, per-kind sum %d, %d turn waits; want %d, %d, 0", s.TotalEvents, s.Events.Total(), s.TurnWait.Count, events, events)
			}
		})
	}
}
