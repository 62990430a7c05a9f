package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/tracelog"
)

// TestStallWatchdogDetectsTruncatedReplay replays a program that skips one
// of the recorded critical events, leaving another thread waiting for a turn
// that can never come. With the watchdog armed the waiting thread panics
// with a DivergenceError naming the counter it needed, instead of
// deadlocking.
func TestStallWatchdogDetectsTruncatedReplay(t *testing.T) {
	var x SharedInt

	// Record: main event, spawn, child event, main event — the final main
	// event is causally after the child's (channel-enforced).
	rec, err := NewVM(Config{ID: 70, Mode: ids.Record})
	if err != nil {
		t.Fatal(err)
	}
	rec.Start(func(main *Thread) {
		x.Set(main, 1)
		done := make(chan struct{})
		main.Spawn(func(child *Thread) {
			x.Set(child, 2)
			close(done)
		})
		<-done
		x.Set(main, 3)
	})
	rec.Wait()
	rec.Close()

	// Replay: the child performs no critical event, so main's final Set
	// waits for a counter the VM can never reach.
	rep, err := NewVM(Config{
		ID: 70, Mode: ids.Replay, ReplayLogs: rec.Logs(),
		StallTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan any, 1)
	rep.Start(func(main *Thread) {
		defer func() { got <- recover() }()
		x.Set(main, 1)
		done := make(chan struct{})
		main.Spawn(func(child *Thread) {
			close(done) // skips its recorded event
		})
		<-done
		x.Set(main, 3) // waits forever without the watchdog
	})
	select {
	case r := <-got:
		de, ok := r.(*DivergenceError)
		if !ok {
			t.Fatalf("recovered %v (%T), want *DivergenceError", r, r)
		}
		if !strings.Contains(de.Msg, "stalled") {
			t.Errorf("divergence message %q does not mention the stall", de.Msg)
		}
		// The text and the structured field name the same parked threads,
		// the failing one (main, waiting for counter 3) included.
		want := ParkedThread{Thread: 0, Stream: tracelog.GlobalStream, Next: 3}
		if parkedByThread(de.Parked)[0] != want || !strings.Contains(de.Msg, fmt.Sprintf("parked threads: %v", de.Parked)) {
			t.Errorf("divergence message %q disagrees with Parked %v, want %v listed", de.Msg, de.Parked, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("watchdog did not fire")
	}
	rep.Wait()
	rep.Close()
}

// TestStallWatchdogQuietOnHealthyReplay replays a healthy run with a tight
// watchdog; no stall may be reported.
func TestStallWatchdogQuietOnHealthyReplay(t *testing.T) {
	const nThreads, iters = 4, 200
	_, _, recVM := runRacyCounter(t, Config{ID: 71, Mode: ids.Record, RecordJitter: 4}, nThreads, iters)
	_, _, repVM := runRacyCounter(t, Config{
		ID: 71, Mode: ids.Replay, ReplayLogs: recVM.Logs(),
		StallTimeout: 200 * time.Millisecond,
	}, nThreads, iters)
	if got := repVM.Stats().CriticalEvents; got != recVM.Stats().CriticalEvents {
		t.Errorf("healthy replay executed %d events, record %d", got, recVM.Stats().CriticalEvents)
	}
}

// parkedByThread indexes a list of parked threads by thread number.
func parkedByThread(ps []ParkedThread) map[ids.ThreadNum]ParkedThread {
	m := make(map[ids.ThreadNum]ParkedThread, len(ps))
	for _, p := range ps {
		m[p.Thread] = p
	}
	return m
}

func TestWaitingThreadsDiagnostic(t *testing.T) {
	var x SharedInt
	rec, err := NewVM(Config{ID: 72, Mode: ids.Record})
	if err != nil {
		t.Fatal(err)
	}
	rec.Start(func(main *Thread) {
		x.Set(main, 1)
		x.Set(main, 2)
	})
	rec.Wait()
	rec.Close()

	rep, err := NewVM(Config{ID: 72, Mode: ids.Replay, ReplayLogs: rec.Logs()})
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	finish := make(chan struct{})
	// A second goroutine-level "thread" is simulated by querying while main
	// is mid-schedule: park main before its second event using a hook-free
	// approach — run the first event, then check from outside while main
	// blocks on a channel we control.
	rep.Start(func(main *Thread) {
		x.Set(main, 1)
		close(entered)
		<-finish
		x.Set(main, 2)
	})
	<-entered
	if w := rep.parkedThreads(); len(w) != 0 {
		t.Errorf("no thread should be parked yet: %v", w)
	}
	close(finish)
	rep.Wait()
	rep.Close()
}

// TestWaitingThreadsDiagnosticAcrossStreams stalls a sharded replay with one
// thread parked on each of two objects' streams and one on the global stream:
// a skipper thread omits its recorded accesses to x, y and the unregistered z.
// parkedThreads must report all three while they are parked, and every stall
// error must list all three with the stream each waits on.
func TestWaitingThreadsDiagnosticAcrossStreams(t *testing.T) {
	run := func(cfg Config, skip bool, errs chan<- any) *VM {
		vm, err := NewVM(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var x, y, z SharedInt
		x.Register(vm)
		y.Register(vm)
		done := make(chan struct{})
		guard := func(fn func(*Thread)) func(*Thread) {
			return func(th *Thread) {
				defer func() { errs <- recover() }()
				fn(th)
			}
		}
		vm.Start(guard(func(main *Thread) {
			main.Spawn(guard(func(a *Thread) { <-done; x.Set(a, 2) })) // counter 0; thread 1
			main.Spawn(guard(func(b *Thread) { <-done; y.Set(b, 2) })) // counter 1; thread 2
			main.Spawn(guard(func(k *Thread) {                         // counter 2; thread 3
				if !skip {
					x.Set(k, 1) // access 0 of obj0
					y.Set(k, 1) // access 0 of obj1
					z.Set(k, 1) // counter 3
				}
				close(done)
			}))
			<-done
			z.Set(main, 2) // counter 4
		}))
		return vm
	}
	recErrs := make(chan any, 4)
	rec := run(Config{ID: 73, Mode: ids.Record, OrderMode: ids.OrderSharded}, false, recErrs)
	rec.Wait()
	rec.Close()

	repErrs := make(chan any, 4)
	rep := run(Config{
		ID: 73, Mode: ids.Replay, OrderMode: ids.OrderSharded, ReplayLogs: rec.Logs(),
		StallTimeout: 400 * time.Millisecond,
	}, true, repErrs)
	want := []ParkedThread{
		{Thread: 0, Stream: tracelog.GlobalStream, Next: 4},
		{Thread: 1, Stream: tracelog.ObjectStream(0), Next: 1},
		{Thread: 2, Stream: tracelog.ObjectStream(1), Next: 1},
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		w := parkedByThread(rep.parkedThreads())
		if len(w) == 3 && w[0] == want[0] && w[1] == want[1] && w[2] == want[2] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("parkedThreads() = %v, want main on counter 4 and threads 1, 2 on access 1 of their objects", w)
		}
	}
	rep.Wait()
	rep.Close()
	stalls := 0
	for i := 0; i < 4; i++ {
		r := <-repErrs
		if r == nil {
			continue // the skipper returned normally
		}
		de, ok := r.(*DivergenceError)
		if !ok {
			t.Fatalf("recovered %v (%T), want *DivergenceError", r, r)
		}
		stalls++
		if len(de.Parked) != len(want) {
			t.Fatalf("thread %d: Parked = %v, want %v", de.Thread, de.Parked, want)
		}
		for j, p := range de.Parked {
			if p != want[j] || !strings.Contains(de.Msg, p.String()) {
				t.Errorf("thread %d: Parked[%d] = %v (Msg %q), want %v", de.Thread, j, p, de.Msg, want[j])
			}
		}
	}
	if stalls != 3 {
		t.Errorf("%d threads failed with the stall diagnostic, want 3", stalls)
	}
}

// recordRunThenSuccessor records `events` events of the main thread in one run
// followed by one event of a child, and returns the logs.
func recordRunThenSuccessor(t *testing.T, id ids.DJVMID, events int) *VM {
	t.Helper()
	rec, err := NewVM(Config{ID: id, Mode: ids.Record})
	if err != nil {
		t.Fatal(err)
	}
	rec.Start(func(main *Thread) {
		ran := make(chan struct{})
		child := main.Spawn(func(th *Thread) { // counter 0
			<-ran
			th.Critical(func(ids.GCount) {}) // counter events+1
		})
		for i := 0; i < events; i++ {
			main.Critical(func(ids.GCount) {}) // counters 1..events
		}
		close(ran)
		main.Join(child)
	})
	rec.Wait()
	rec.Close()
	return rec
}

// TestTrickleInsideARunIsNotAStall: a thread that executes one event every few
// milliseconds inside a long run stores its word once per batch — minutes
// apart — while its successor is parked. The watchdog must not read the silent
// word as a stall: it asks for exactness first and counts only from there.
// The run is on the global stream, and under OrderSharded on a registered
// object's, whose word the watchdog sums with the global one.
func TestTrickleInsideARunIsNotAStall(t *testing.T) {
	const events, trickled = 5000, 60
	const timeout = 200 * time.Millisecond
	for _, order := range []ids.OrderMode{ids.OrderGlobal, ids.OrderSharded} {
		t.Run(order.String(), func(t *testing.T) {
			// run: main spawns a child, then makes `events` accesses to x — one
			// run on x's stream — and the child's one access follows the run.
			run := func(cfg Config, trickle bool) (*VM, [2]any) {
				vm, err := NewVM(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var x SharedInt
				x.Register(vm)
				errs := make(chan any, 2)
				vm.Start(func(main *Thread) {
					defer func() { errs <- recover() }()
					ran := make(chan struct{})
					child := main.Spawn(func(th *Thread) {
						defer func() { errs <- recover() }()
						if cfg.Mode == ids.Record {
							<-ran
						}
						x.Add(th, 1) // replay: parks until the run is over
					})
					for i := 0; i < events; i++ {
						if trickle && i < trickled {
							time.Sleep(timeout / 8)
						}
						x.Add(main, 1)
					}
					close(ran)
					main.Join(child)
				})
				vm.Wait()
				return vm, [2]any{<-errs, <-errs}
			}
			rec, _ := run(Config{ID: 74, Mode: ids.Record, OrderMode: order}, false)
			rec.Close()
			rep, errs := run(Config{ID: 74, Mode: ids.Replay, OrderMode: order, ReplayLogs: rec.Logs(), StallTimeout: timeout}, true)
			for _, r := range errs {
				if r != nil {
					t.Fatalf("a slow run was taken for a stall: %v", r)
				}
			}
			if s := rep.Metrics().Snapshot(); s.Replay.Stalled || s.Replay.CurrentGC != s.Replay.FinalGC || s.TotalEvents != rec.Metrics().TotalEvents() {
				t.Errorf("stalled %v, counter %d of %d, %d events of %d", s.Replay.Stalled, s.Replay.CurrentGC, s.Replay.FinalGC, s.TotalEvents, rec.Metrics().TotalEvents())
			}
			rep.Close()
		})
	}
}

// TestStallInsideARunNamesTheExactCounter: the run's thread blocks for good in
// the op of a blocking event in the middle of its run. The word was published
// before the op, so the stall diagnostic of the parked successor names that
// event's counter — not the run's First, which is where the word stood last.
func TestStallInsideARunNamesTheExactCounter(t *testing.T) {
	const events, k = 3000, 1500 // event k of main's run has counter k
	rec := recordRunThenSuccessor(t, 75, events)
	rep, err := NewVM(Config{ID: 75, Mode: ids.Replay, ReplayLogs: rec.Logs(), StallTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	childErr := make(chan any, 1)
	release := make(chan struct{})
	rep.Start(func(main *Thread) {
		main.Spawn(func(th *Thread) {
			defer func() { childErr <- recover() }()
			th.Critical(func(ids.GCount) {})
		})
		for i := 1; i <= events; i++ {
			if i == k {
				main.Blocking(func() { <-release }, func(ids.GCount) {})
				return // released by the test's end: abandon the run
			}
			main.Critical(func(ids.GCount) {})
		}
	})
	select {
	case r := <-childErr:
		de, ok := r.(*DivergenceError)
		if !ok {
			t.Fatalf("child recovered %v (%T), want the watchdog's *DivergenceError", r, r)
		}
		want := ParkedThread{Thread: 1, Stream: tracelog.GlobalStream, Next: events + 1}
		if de.GC != k || !strings.Contains(de.Msg, fmt.Sprintf("replay stalled at counter %d;", k)) || parkedByThread(de.Parked)[1] != want {
			t.Errorf("stall diagnostic %q (GC %d, parked %v): want the stall at counter %d with %v", de.Msg, de.GC, de.Parked, k, want)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("watchdog did not fire")
	}
	close(release)
	rep.Wait()
	rep.Close()
}
