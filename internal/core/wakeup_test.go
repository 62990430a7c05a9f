package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/tracelog"
)

// TestReplayWakeupOrdering32Threads drives the successor-directed wakeup
// machinery with 32 threads contending on a heavily interleaved recorded
// schedule (jitter forces short intervals, so nearly every event involves a
// park and a targeted wake). Replay must reproduce the recorded interleaving
// exactly. Run under -race this doubles as the memory-model check for the
// lock-free clock advance.
func TestReplayWakeupOrdering32Threads(t *testing.T) {
	const nThreads, iters = 32, 50
	recTraces, _, recVM := runRacyCounter(t, Config{ID: 90, Mode: ids.Record, RecordJitter: 2}, nThreads, iters)
	repTraces, _, repVM := runRacyCounter(t, Config{ID: 90, Mode: ids.Replay, ReplayLogs: recVM.Logs()}, nThreads, iters)
	if !tracesEqual(recTraces, repTraces) {
		t.Fatal("32-thread replay traces diverged from record")
	}
	if rec, rep := recVM.Stats().CriticalEvents, repVM.Stats().CriticalEvents; rec != rep {
		t.Errorf("replay executed %d events, record %d", rep, rec)
	}
	if parked := repVM.Metrics().Snapshot().Replay.ParkedThreads; parked != 0 {
		t.Errorf("%d threads still parked after completed replay", parked)
	}
}

// TestFastForwardEdgeCases pins the checkpoint-resume schedule trimming:
// resume counters on an interval boundary, inside an interval, between
// intervals, and past the whole schedule.
func TestFastForwardEdgeCases(t *testing.T) {
	sched := []tracelog.Interval{
		{Thread: 1, First: 2, Last: 4},
		{Thread: 1, First: 8, Last: 8},
		{Thread: 1, First: 10, Last: 12},
	}
	cases := []struct {
		name    string
		at      ids.GCount
		want    []tracelog.Interval
		skipped uint64
	}{
		{"before-all", 0, sched, 0},
		{"first-boundary", 2, sched, 0},
		{"inside-interval", 3, []tracelog.Interval{{Thread: 1, First: 3, Last: 4}, sched[1], sched[2]}, 1},
		{"at-interval-last", 4, []tracelog.Interval{{Thread: 1, First: 4, Last: 4}, sched[1], sched[2]}, 2},
		{"between-intervals", 5, []tracelog.Interval{sched[1], sched[2]}, 3},
		{"single-event-boundary", 8, []tracelog.Interval{sched[1], sched[2]}, 3},
		{"past-all", 13, nil, 7},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, skipped := fastForward(sched, tc.at)
			if len(got) != len(tc.want) {
				t.Fatalf("fastForward(%d) = %v, want %v", tc.at, got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("fastForward(%d) = %v, want %v", tc.at, got, tc.want)
				}
			}
			if skipped != tc.skipped {
				t.Errorf("fastForward(%d) skipped %d events, want %d", tc.at, skipped, tc.skipped)
			}
		})
	}
}

// TestStallWatchdogWakesAllParked proves the stall path still reaches every
// parked thread now that routine wakeups are successor-directed: two threads
// park on different counter values, the schedule stalls, and both must panic
// with a DivergenceError naming their own awaited counter.
func TestStallWatchdogWakesAllParked(t *testing.T) {
	var x SharedInt

	// Record a deterministic schedule: main spawns A (gc 0) and B (gc 1) and
	// sets x (gc 2); A sets x (gc 3); B sets x (gc 4). Channel gates enforce
	// the order, so the recorded counters are fixed.
	rec, err := NewVM(Config{ID: 91, Mode: ids.Record})
	if err != nil {
		t.Fatal(err)
	}
	rec.Start(func(main *Thread) {
		startA := make(chan struct{})
		aDone := make(chan struct{})
		main.Spawn(func(th *Thread) {
			<-startA
			x.Set(th, 10)
			close(aDone)
		})
		main.Spawn(func(th *Thread) {
			<-aDone
			x.Set(th, 20)
		})
		x.Set(main, 1)
		close(startA)
	})
	rec.Wait()
	rec.Close()

	// Replay: main executes its two spawns but skips its set, freezing the
	// clock at 2; A then waits for counter 3 and B for counter 4, forever.
	rep, err := NewVM(Config{
		ID: 91, Mode: ids.Replay, ReplayLogs: rec.Logs(),
		StallTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan any, 2)
	rep.Start(func(main *Thread) {
		main.Spawn(func(th *Thread) {
			defer func() { got <- recover() }()
			x.Set(th, 10)
		})
		main.Spawn(func(th *Thread) {
			defer func() { got <- recover() }()
			x.Set(th, 20)
		})
		// main's recorded set at counter 2 is skipped: the stall.
	})

	waitsSeen := map[string]bool{}
	for i := 0; i < 2; i++ {
		select {
		case r := <-got:
			de, ok := r.(*DivergenceError)
			if !ok {
				t.Fatalf("recovered %v (%T), want *DivergenceError", r, r)
			}
			if !strings.Contains(de.Msg, "stalled") {
				t.Errorf("divergence message %q does not mention the stall", de.Msg)
			}
			switch {
			case strings.Contains(de.Msg, "waits for counter 3"):
				waitsSeen["3"] = true
			case strings.Contains(de.Msg, "waits for counter 4"):
				waitsSeen["4"] = true
			default:
				t.Errorf("divergence message %q names no awaited counter", de.Msg)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("stall watchdog did not wake every parked thread")
		}
	}
	if !waitsSeen["3"] || !waitsSeen["4"] {
		t.Errorf("parked threads reported waits %v, want counters 3 and 4", waitsSeen)
	}
	rep.Wait()
	if w := rep.parkedThreads(); len(w) != 0 {
		t.Errorf("threads still registered as waiting after stall panics: %v", w)
	}
	rep.Close()
}

// TestHistogramSamplingPreservesCounts checks the ObsSampleRate knob: with
// the default 1-in-64 sampling the event counters stay exact while the
// latency histograms see only the sampled subset; with rate 1 every sampled
// kind of event is timed. GC-hold is the record phase's critical section
// while it runs code: a recording VM times exactly the sampled events that
// run a closure (Add here), and never a bare SharedInt Get or Set, which
// record runs in place at any rate and under an observer. A replaying VM,
// which holds no section, times none at any rate — its timed interval is the
// wait for a turn, sampled by the awaited counter value.
func TestHistogramSamplingPreservesCounts(t *testing.T) {
	add := func(x *SharedInt, th *Thread, _ int) { x.Add(th, 1) }
	set := func(x *SharedInt, th *Thread, i int) { x.Set(th, int64(i)) }
	for _, mode := range []ids.Mode{ids.Record, ids.Replay} {
		t.Run(mode.String(), func(t *testing.T) {
			run := func(cfg Config, do func(*SharedInt, *Thread, int)) (total, holds uint64, sampleRate uint64) {
				cfg.ID, cfg.Mode = 92, ids.Record
				if mode == ids.Replay {
					rec, err := NewVM(cfg)
					if err != nil {
						t.Fatal(err)
					}
					thousand(rec, do)
					cfg.Mode, cfg.ReplayLogs = ids.Replay, rec.Logs()
				}
				vm, err := NewVM(cfg)
				if err != nil {
					t.Fatal(err)
				}
				thousand(vm, do)
				s := vm.Metrics().Snapshot()
				return s.TotalEvents, s.GCHold.Count, s.HistSampleRate
			}
			wantHolds := func(total, rate uint64) uint64 {
				if mode == ids.Replay {
					return 0
				}
				return (total + rate - 1) / rate
			}

			total, holds, rate := run(Config{}, add) // default sampling
			if total != 1000 {
				t.Fatalf("%d events, want 1000", total)
			}
			if rate != ObsSampleDefault {
				t.Errorf("snapshot reports sample rate %d, want default %d", rate, ObsSampleDefault)
			}
			if want := wantHolds(total, ObsSampleDefault); holds != want {
				t.Errorf("sampled GCHold observed %d holds for %d events, want %d", holds, total, want)
			}

			total, holds, rate = run(Config{ObsSampleRate: 1}, add) // exhaustive
			if rate != 1 {
				t.Errorf("snapshot reports sample rate %d, want 1", rate)
			}
			if want := wantHolds(total, 1); holds != want {
				t.Errorf("exhaustive GCHold observed %d holds for %d events, want %d", holds, total, want)
			}

			for _, c := range []struct {
				name string
				cfg  Config
			}{
				{"default rate", Config{}},
				{"rate 1", Config{ObsSampleRate: 1}},
				{"an observer", Config{EventObserver: func(ids.ThreadNum, ids.GCount) {}}},
			} {
				if total, holds, _ := run(c.cfg, set); total != 1000 || holds != 0 {
					t.Errorf("bare Sets at %s: %d holds timed over %d events, want 0 over 1000", c.name, holds, total)
				}
			}
		})
	}
	// A replay's one turn wait — the child parked on counter n while main runs
	// [0, n-1] — is timed when n is a multiple of the rate, and only then.
	t.Run("replay-turn-wait", func(t *testing.T) {
		for _, c := range []struct {
			rate, n int
			timed   uint64
		}{{0, 64, 1}, {0, 65, 0}, {1, 65, 1}} {
			rec := startVM(t, Config{ID: 93, Mode: ids.Record, ObsSampleRate: c.rate})
			parkThenRun(t, rec, c.n)
			rep := startVM(t, Config{ID: 93, Mode: ids.Replay, ReplayLogs: rec.Logs(), ObsSampleRate: c.rate, StallTimeout: 5 * time.Second})
			parkThenRun(t, rep, c.n)
			if s := rep.Metrics().Snapshot(); s.TurnWait.Count != c.timed || s.GCHold.Count != 0 || s.TotalEvents != uint64(c.n)+1 {
				t.Errorf("rate %d, child parked on %d: %d turn waits and %d holds timed over %d events; want %d, 0, %d",
					c.rate, c.n, s.TurnWait.Count, s.GCHold.Count, s.TotalEvents, c.timed, c.n+1)
			}
		}
	})
}

// parkThenRun runs main's spawn and n-1 accesses — one run, counters 0..n-1 —
// and then the child's one access, n, and closes the VM. Replaying, main lets
// the child park on n before its run, so the child waits exactly once.
func parkThenRun(t *testing.T, vm *VM, n int) {
	var x SharedInt
	ran := make(chan struct{})
	vm.Start(func(main *Thread) {
		main.Spawn(func(th *Thread) {
			if vm.mode == ids.Record {
				<-ran
			}
			x.Add(th, 1)
		})
		for deadline := time.Now().Add(10 * time.Second); vm.mode == ids.Replay && len(vm.parkedThreads()) == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Error("the child never parked")
				break
			}
		}
		for i := 1; i < n; i++ {
			x.Add(main, 1)
		}
		close(ran)
	})
	vm.Wait()
	vm.Close()
}

// thousand runs one thread doing 1 000 accesses to a variable — one run of
// counters 0..999 — and closes the VM.
func thousand(vm *VM, do func(x *SharedInt, th *Thread, i int)) {
	var x SharedInt
	vm.Start(func(main *Thread) {
		for i := 0; i < 1000; i++ {
			do(&x, main, i)
		}
	})
	vm.Wait()
	vm.Close()
}
