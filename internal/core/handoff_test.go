package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/tracelog"
)

// These tests pin the interval-end hand-off: a replaying thread looks for a
// parked successor only after the Last event of its current interval (or
// obj-run), and publishes its event counts there. Run them with
// GOMAXPROCS=4 go test -race.

// TestHandoffEveryEventAndNever replays 32 threads recorded with
// RecordJitter=1 — a yield after every event, so intervals of about one event
// and a hand-off per event, the rule's worst case — and with RecordJitter=0,
// whose long bursts make nearly every event an interior one.
func TestHandoffEveryEventAndNever(t *testing.T) {
	const nThreads, iters = 32, 40
	for _, order := range []ids.OrderMode{ids.OrderGlobal, ids.OrderSharded} {
		for _, jitter := range []int{1, 0} {
			t.Run(fmt.Sprintf("%v/jitter%d", order, jitter), func(t *testing.T) {
				recTraces, recFinal, recVM := runRacyCounter(t, Config{ID: 60, Mode: ids.Record, OrderMode: order, RecordJitter: jitter}, nThreads, iters)
				rec := recVM.Metrics().Snapshot()
				if runs := rec.Intervals + rec.Shard.ObjRuns; jitter == 1 && runs < nThreads*iters/2 {
					t.Fatalf("jitter 1 recorded %d intervals/obj-runs for %d events: not the per-event worst case", runs, rec.TotalEvents)
				}
				repTraces, repFinal, repVM := runRacyCounter(t, Config{
					ID: 60, Mode: ids.Replay, OrderMode: order, ReplayLogs: recVM.Logs(),
					StallTimeout: 5 * time.Second,
				}, nThreads, iters)
				if !tracesEqual(recTraces, repTraces) || recFinal != repFinal {
					t.Fatal("replay traces diverged from record")
				}
				rep := repVM.Metrics().Snapshot()
				if rep.Events != rec.Events || rep.TotalEvents != rec.TotalEvents {
					t.Errorf("event counts differ:\nrecord %+v total %d\nreplay %+v total %d", rec.Events, rec.TotalEvents, rep.Events, rep.TotalEvents)
				}
				if rep.Replay.ParkedThreads != 0 || rep.Replay.Stalled {
					t.Errorf("finished replay left parked=%d stalled=%v", rep.Replay.ParkedThreads, rep.Replay.Stalled)
				}
			})
		}
	}
}

// TestHeldRunServesOnlyItsStream: a thread holds the turn of every stream it
// is inside a run of, but Thread.run, the one cursor an in-place event may
// move, is the cursor of the stream of the thread's previous event. Here threads cycle through three registered shared
// integers — x, y and one of their own — and the global stream (an
// unregistered variable g): twice in a row on x through critical (Add), then
// y, then a Get and a Set of their own integer through the accessors' inline
// path, then g. They race each other on x, y and g, and each event must be
// served by its own stream's cursor. What every access saw pins each object's
// access order; replay reproduces it and the finals, at RecordJitter 1 (runs
// of an event or two) and 0 (long runs on every stream at once).
func TestHeldRunServesOnlyItsStream(t *testing.T) {
	const nThreads, iters = 4, 300
	run := func(cfg Config) (traces [][]int64, finals [4]int64, vm *VM) {
		vm = startVM(t, cfg)
		var x, y, g SharedInt
		x.Register(vm)
		y.Register(vm)
		own := make([]SharedInt, nThreads)
		for i := range own {
			own[i].Register(vm)
		}
		traces = make([][]int64, nThreads)
		vm.Start(func(main *Thread) {
			var kids []*Thread
			for i := 0; i < nThreads; i++ {
				i := i
				kids = append(kids, main.Spawn(func(th *Thread) {
					o := &own[i]
					for j := 0; j < iters; j++ {
						traces[i] = append(traces[i], x.Add(th, 1), x.Add(th, 1), y.Add(th, 1))
						u := o.Get(th)
						o.Set(th, u+1)
						traces[i] = append(traces[i], u, g.Add(th, 1))
					}
				}))
			}
			for _, k := range kids {
				main.Join(k)
			}
		})
		vm.Wait()
		vm.Close()
		var sum int64
		for i := range own {
			sum += own[i].Load()
		}
		return traces, [4]int64{x.Load(), y.Load(), g.Load(), sum}, vm
	}
	for _, jitter := range []int{1, 0} {
		t.Run(fmt.Sprintf("jitter%d", jitter), func(t *testing.T) {
			recTraces, recFinals, rec := run(Config{ID: 65, Mode: ids.Record, OrderMode: ids.OrderSharded, RecordJitter: jitter})
			if recFinals != [4]int64{2 * nThreads * iters, nThreads * iters, nThreads * iters, nThreads * iters} {
				t.Fatalf("record finals %v", recFinals)
			}
			repTraces, repFinals, rep := run(Config{
				ID: 65, Mode: ids.Replay, OrderMode: ids.OrderSharded, ReplayLogs: rec.Logs(),
				StallTimeout: 5 * time.Second,
			})
			if !tracesEqual(recTraces, repTraces) || repFinals != recFinals {
				t.Fatalf("replay departed from the recorded object orders (finals %v, recorded %v)", repFinals, recFinals)
			}
			if r, p := rec.Metrics().Snapshot(), rep.Metrics().Snapshot(); p.Events != r.Events || p.TotalEvents != r.TotalEvents || p.Replay.Stalled {
				t.Errorf("replay counts %+v total %d (stalled %v), record %+v total %d", p.Events, p.TotalEvents, p.Replay.Stalled, r.Events, r.TotalEvents)
			}
		})
	}
}

// withSchedule is a recorded set with its schedule log replaced: what the
// schedule explorer replays.
func withSchedule(recorded *tracelog.Set, schedule *tracelog.Log) *tracelog.Set {
	return &tracelog.Set{Schedule: schedule, Network: recorded.Network, Datagram: recorded.Datagram}
}

// splitSchedule rewrites a recorded schedule so every interval and obj-run
// longer than one event becomes two adjacent ones of the same thread,
// [a,m][m+1,b] — what TruncateWAL's flush of open intervals produces. The
// hand-off at m finds no waiter (m+1 is the thread's own) and must not hurt.
func splitSchedule(t *testing.T, recorded *tracelog.Log) *tracelog.Log {
	t.Helper()
	idx, err := tracelog.BuildScheduleIndex(recorded)
	if err != nil {
		t.Fatal(err)
	}
	out := tracelog.NewLog()
	if idx.OrderMode != ids.OrderGlobal {
		out.Append(&tracelog.OrderModeEntry{Mode: idx.OrderMode})
	}
	splits := 0
	for _, s := range idx.Streams {
		for _, r := range s.Ordered() {
			if r.Last == r.First {
				out.AppendRun(s.ID, r.Thread, r.First, r.Last)
				continue
			}
			mid := r.First + (r.Last-r.First)/2
			out.AppendRun(s.ID, r.Thread, r.First, mid)
			out.AppendRun(s.ID, r.Thread, mid+1, r.Last)
			splits++
		}
	}
	if splits == 0 {
		t.Fatal("recorded schedule had nothing to split")
	}
	meta := idx.Meta
	out.Append(&meta)
	return out
}

// TestAdjacentIntervalsOfOneThreadReplay: a thread whose schedule holds
// [a,b][b+1,c] replays as if it held [a,c].
func TestAdjacentIntervalsOfOneThreadReplay(t *testing.T) {
	const nThreads, iters = 6, 60
	for _, order := range []ids.OrderMode{ids.OrderGlobal, ids.OrderSharded} {
		t.Run(order.String(), func(t *testing.T) {
			recTraces, recFinal, recVM := runRacyCounter(t, Config{ID: 61, Mode: ids.Record, OrderMode: order, RecordJitter: 9}, nThreads, iters)
			repTraces, repFinal, repVM := runRacyCounter(t, Config{
				ID: 61, Mode: ids.Replay, OrderMode: order,
				ReplayLogs:   withSchedule(recVM.Logs(), splitSchedule(t, recVM.Logs().Schedule)),
				StallTimeout: 5 * time.Second,
			}, nThreads, iters)
			if !tracesEqual(recTraces, repTraces) || recFinal != repFinal {
				t.Fatal("replay of the split schedule diverged from record")
			}
			if rec, rep := recVM.Metrics().Snapshot().Events, repVM.Metrics().Snapshot().Events; rec != rep {
				t.Errorf("event counts differ: record %+v, replay %+v", rec, rep)
			}
		})
	}
}

// TestOverlappingOverrideStallsInsteadOfDoubleExecuting replays an illegal
// schedule whose intervals overlap across threads — main claims [0,9], the
// child [3,5] — which BuildScheduleIndex accepts, since it orders intervals
// per thread only. Counter 3 lies inside main's interval, so main
// never hands it over: the child stays parked until the watchdog names it.
// Waking it there instead would let both threads execute counters 3 to 5.
func TestOverlappingOverrideStallsInsteadOfDoubleExecuting(t *testing.T) {
	overlappingOverride(t, recordOneSpawn(t), true, 300*time.Millisecond)
}

// TestOverlappingOverrideRacingIntruder is the same illegal override without
// letting the child park first: child and main race. Were the word to move
// inside main's run, an intruder that arrived just as it read 3 would pass the
// turn check and both threads would execute counters 3 to 5. A thread that
// holds the turn stores nothing inside its run, so the word goes from 0 to 10
// and the intruder can never find its value, whenever it arrives.
func TestOverlappingOverrideRacingIntruder(t *testing.T) {
	rec := recordOneSpawn(t)
	const runs, atOnce = 200, 20
	for done := 0; done < runs; done += atOnce {
		var wg sync.WaitGroup
		for i := 0; i < atOnce; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				overlappingOverride(t, rec, false, 40*time.Millisecond)
			}()
		}
		wg.Wait()
	}
}

func recordOneSpawn(t *testing.T) *VM {
	t.Helper()
	rec, err := NewVM(Config{ID: 62, Mode: ids.Record})
	if err != nil {
		t.Fatal(err)
	}
	rec.Start(func(main *Thread) {
		main.Spawn(func(*Thread) {})
	})
	rec.Wait()
	rec.Close()
	return rec
}

// overlappingOverride replays main's [0,9] against the child's [3,5] and
// checks that the child stalled on counter 3 and every counter executed once.
// It reports with Errorf only, so it may run on a goroutine of its own.
func overlappingOverride(t *testing.T, rec *VM, parkFirst bool, stallTimeout time.Duration) {
	override := tracelog.NewLog()
	override.Append(&tracelog.Interval{Thread: 0, First: 0, Last: 9})
	override.Append(&tracelog.Interval{Thread: 1, First: 3, Last: 5})
	override.Append(&tracelog.VMMeta{VM: 62, Threads: 2, FinalGC: 10})

	rep, err := NewVM(Config{
		ID: 62, Mode: ids.Replay, ReplayLogs: withSchedule(rec.Logs(), override),
		StallTimeout: stallTimeout,
	})
	if err != nil {
		t.Errorf("overlapping override rejected up front: %v", err)
		return
	}
	var executed [10]atomic.Int32
	event := func(th *Thread) {
		th.Critical(func(gc ids.GCount) { executed[gc].Add(1) })
	}
	childParked := ParkedThread{Thread: 1, Stream: tracelog.GlobalStream, Next: 3}
	childErr := make(chan any, 1)
	rep.Start(func(main *Thread) {
		main.Spawn(func(child *Thread) { // counter 0
			defer func() { childErr <- recover() }()
			for i := 0; i < 3; i++ {
				event(child)
			}
		})
		// Let the child park on counter 3 before main runs through it.
		for deadline := time.Now().Add(10 * time.Second); parkFirst; time.Sleep(time.Millisecond) {
			if parkedByThread(rep.parkedThreads())[1] == childParked {
				break
			}
			if time.Now().After(deadline) {
				t.Error("child never parked on counter 3")
				return
			}
		}
		for gc := 1; gc <= 9; gc++ {
			event(main)
		}
	})
	select {
	case r := <-childErr:
		de, ok := r.(*DivergenceError)
		if !ok {
			t.Errorf("child recovered %v (%T), want the watchdog's *DivergenceError", r, r)
		} else if !strings.Contains(de.Msg, "stalled") || de.Thread != 1 || parkedByThread(de.Parked)[1] != childParked {
			t.Errorf("divergence %q (thread %d, parked %v) does not name %v", de.Msg, de.Thread, de.Parked, childParked)
		}
	case <-time.After(20 * time.Second):
		t.Error("watchdog did not fire for the parked child")
	}
	rep.Wait()
	rep.Close()
	for gc := 1; gc <= 9; gc++ {
		if n := executed[gc].Load(); n != 1 {
			t.Errorf("counter %d executed %d times, want once (by main)", gc, n)
		}
	}
}

// TestOverlappingObjRunsRejectedUpFront: the sharded counterpart cannot even
// start. One object's runs are indexed in one sequence whatever the thread, so
// an override that gives two threads the same access is out of order.
func TestOverlappingObjRunsRejectedUpFront(t *testing.T) {
	_, _, recVM := runRacyCounter(t, Config{ID: 63, Mode: ids.Record, OrderMode: ids.OrderSharded}, 2, 4)
	override := tracelog.NewLog()
	override.Append(&tracelog.OrderModeEntry{Mode: ids.OrderSharded})
	override.Append(&tracelog.Interval{Thread: 0, First: 0, Last: 1})
	override.Append(&tracelog.ObjRun{Obj: 0, Thread: 1, First: 0, Last: 9})
	override.Append(&tracelog.ObjRun{Obj: 0, Thread: 2, First: 3, Last: 5})
	override.Append(&tracelog.VMMeta{VM: 63, Threads: 3, FinalGC: 2})
	_, err := NewVM(Config{
		ID: 63, Mode: ids.Replay, OrderMode: ids.OrderSharded,
		ReplayLogs: withSchedule(recVM.Logs(), override),
	})
	if err == nil || !strings.Contains(err.Error(), "out of order") {
		t.Fatalf("NewVM with overlapping obj-runs: err = %v, want an out-of-order rejection", err)
	}
}

// TestUnwindingThreadPublishesCounts: events a thread counted locally reach
// the metrics on every way out of its function, not only at an interval end.
func TestUnwindingThreadPublishesCounts(t *testing.T) {
	const recorded, executed = 10, 4
	record := func(order ids.OrderMode) *VM {
		vm, err := NewVM(Config{ID: 64, Mode: ids.Record, OrderMode: order})
		if err != nil {
			t.Fatal(err)
		}
		var x SharedInt
		x.Register(vm)
		vm.Start(func(main *Thread) {
			for i := 0; i < recorded; i++ {
				x.Set(main, int64(i))
			}
		})
		vm.Wait()
		vm.Close()
		return vm
	}
	// Each case leaves its thread inside the one recorded interval or obj-run
	// after `executed` events, so nothing has been published when it unwinds.
	cases := []struct {
		name    string
		order   ids.OrderMode
		stopEnd bool
		leave   func(th *Thread, unrecorded *SharedInt)
	}{
		{"return/global", ids.OrderGlobal, false, func(*Thread, *SharedInt) {}},
		{"return/sharded", ids.OrderSharded, false, func(*Thread, *SharedInt) {}},
		{"divergence/global", ids.OrderGlobal, false, func(th *Thread, _ *SharedInt) { th.diverge("injected") }},
		// An object with no recorded access ends the thread's log right here.
		{"divergence/sharded", ids.OrderSharded, false, func(th *Thread, y *SharedInt) { y.Set(th, 1) }},
		{"log-end/sharded", ids.OrderSharded, true, func(th *Thread, y *SharedInt) { y.Set(th, 1) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := record(c.order)
			rep, err := NewVM(Config{
				ID: 64, Mode: ids.Replay, OrderMode: c.order, ReplayLogs: rec.Logs(), StopAtLogEnd: c.stopEnd,
			})
			if err != nil {
				t.Fatal(err)
			}
			var x, y SharedInt
			x.Register(rep)
			y.Register(rep)
			var recovered any
			rep.Start(func(main *Thread) {
				defer func() {
					// The end-of-log signal is the runtime's own: let launch
					// absorb it.
					if r := recover(); r != nil {
						if _, ok := r.(*DivergenceError); !ok {
							panic(r)
						}
						recovered = r
					}
				}()
				for i := 0; i < executed; i++ {
					x.Set(main, int64(i))
				}
				c.leave(main, &y)
			})
			rep.Wait()
			s := rep.Metrics().Snapshot()
			rep.Close()
			if strings.HasPrefix(c.name, "divergence") && recovered == nil {
				t.Fatal("thread did not diverge")
			}
			if c.stopEnd && rep.LogEndStops() != 1 {
				t.Fatalf("LogEndStops = %d, want 1", rep.LogEndStops())
			}
			if s.Events.Shared != executed || s.Events.Total() != executed || s.TotalEvents != executed {
				t.Errorf("after the thread unwound: shared=%d kinds=%d total=%d, want %d each",
					s.Events.Shared, s.Events.Total(), s.TotalEvents, executed)
			}
		})
	}
}

// TestSnapshotMidRunInvariants takes snapshots from another goroutine while
// the VM's threads run, in record and in replay, in both order modes: the
// clock gauge is the VM's counter as last published (less than a batch behind
// in either mode), the total is derived from it (plus the published sharded
// events), never decreases and is never behind the per-kind sum, which in turn trails it by less than a publish batch per thread; and
// once the threads have returned everything is exact and identical between
// the two phases.
func TestSnapshotMidRunInvariants(t *testing.T) {
	const nThreads, iters = 8, 4000
	run := func(t *testing.T, cfg Config) (obs.Snapshot, *tracelog.Set) {
		vm, err := NewVM(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var shared SharedInt
		own := make([]SharedInt, nThreads)
		shared.Register(vm)
		for i := range own {
			own[i].Register(vm)
		}
		stop := make(chan struct{})
		// The threads pause half-way until the sampler has had its three
		// looks (or has given up), so "mid-run" does not depend on how the
		// machine schedules the sampler against a ten-millisecond run.
		sampled := make(chan struct{})
		var sampledOnce sync.Once
		markSampled := func() { sampledOnce.Do(func() { close(sampled) }) }
		var sampler sync.WaitGroup
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			defer markSampled()
			const lag = publishBatch * (nThreads + 1)
			var prev obs.Snapshot
			for n := 0; ; n++ {
				if n == 3 {
					markSampled()
				}
				select {
				case <-stop:
					if n < 3 {
						t.Errorf("only %d mid-run snapshots taken", n)
					}
					return
				default:
				}
				before := uint64(vm.Clock())
				s := vm.Metrics().Snapshot()
				after := uint64(vm.Clock())
				// A recorder publishes the word per run or batch, so a snapshot
				// that finds an event in flight reads less than a batch behind
				// the counter vm.Clock() reads under the lock — never ahead of
				// it. A replaying VM's vm.Clock() is the word itself, as last
				// published by the thread that holds the counter's turn: the
				// window then says the word is monotone, and how far it may
				// trail that thread is TestReplayWordMovesPerRunNotPerEvent's.
				behind := uint64(0)
				if cfg.Mode == ids.Record {
					behind = publishBatch - 1
				}
				if s.Replay.CurrentGC+behind < before || s.Replay.CurrentGC > after {
					t.Errorf("CurrentGC %d outside vm.Clock() window [%d,%d] (may trail it by %d)", s.Replay.CurrentGC, before, after, behind)
					return
				}
				if want := s.Replay.CurrentGC + s.Shard.FastPath + s.Shard.Contended; s.TotalEvents != want {
					t.Errorf("TotalEvents %d, want clock %d + sharded %d+%d", s.TotalEvents, s.Replay.CurrentGC, s.Shard.FastPath, s.Shard.Contended)
					return
				}
				if s.TotalEvents < prev.TotalEvents {
					t.Errorf("TotalEvents went back from %d to %d", prev.TotalEvents, s.TotalEvents)
					return
				}
				// The lag is bounded across two snapshots, one not being a single
				// instant: what was pending when prev read its total is in s.
				if sum := s.Events.Total(); sum > s.TotalEvents || sum+lag < prev.TotalEvents {
					t.Errorf("per-kind sum %d against total %d (earlier total %d): want sum <= total, lag <= %d", sum, s.TotalEvents, prev.TotalEvents, lag)
					return
				}
				prev = s
				time.Sleep(50 * time.Microsecond)
			}
		}()
		vm.Start(func(main *Thread) {
			kids := make([]*Thread, nThreads)
			for i := range kids {
				i := i
				kids[i] = main.Spawn(func(th *Thread) {
					for j := 0; j < iters; j++ {
						if j == iters/2 {
							<-sampled
						}
						own[i].Set(th, own[i].Get(th)+1)
						if j%16 == 0 {
							shared.Add(th, 1)
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
		if s.Replay.CurrentGC != uint64(vm.Clock()) {
			t.Errorf("final CurrentGC %d, vm.Clock() %d", s.Replay.CurrentGC, vm.Clock())
		}
		if s.TotalEvents != s.Events.Total() || s.TotalEvents != vm.Stats().CriticalEvents {
			t.Errorf("after Wait: total %d, per-kind sum %d, Stats %d", s.TotalEvents, s.Events.Total(), vm.Stats().CriticalEvents)
		}
		vm.Close()
		return s, vm.Logs()
	}
	for _, order := range []ids.OrderMode{ids.OrderGlobal, ids.OrderSharded} {
		t.Run(order.String(), func(t *testing.T) {
			rec, logs := run(t, Config{ID: 65, Mode: ids.Record, OrderMode: order, RecordJitter: 50})
			rep, _ := run(t, Config{ID: 65, Mode: ids.Replay, OrderMode: order, ReplayLogs: logs, StallTimeout: 5 * time.Second})
			if rec.Events != rep.Events || rec.TotalEvents != rep.TotalEvents {
				t.Errorf("per-kind counts differ between the phases:\nrecord %+v total %d\nreplay %+v total %d",
					rec.Events, rec.TotalEvents, rep.Events, rep.TotalEvents)
			}
			if want := uint64(nThreads*(2*iters+iters/16) + 2*nThreads); rec.TotalEvents != want {
				t.Errorf("recorded %d events, want %d", rec.TotalEvents, want)
			}
		})
	}
}
