package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/ids"
	"repro/internal/tracelog"
)

// runShardedShape executes a random racy program (see quick_test.go) with
// every shared variable and monitor registered for per-object ordering.
func runShardedShape(s programShape, cfg Config) ([][]int64, *VM, error) {
	vm, err := NewVM(cfg)
	if err != nil {
		return nil, nil, err
	}
	vars := make([]SharedInt, s.vars)
	mons := make([]*Monitor, s.mons)
	for i := range vars {
		vars[i].Register(vm)
	}
	for i := range mons {
		mons[i] = NewMonitor()
		mons[i].Register(vm)
	}
	traces := make([][]int64, s.threads)

	vm.Start(func(main *Thread) {
		done := make(chan struct{}, s.threads)
		for ti := 0; ti < s.threads; ti++ {
			ti := ti
			main.Spawn(func(t *Thread) {
				defer func() { done <- struct{}{} }()
				for _, op := range s.ops[ti] {
					v := &vars[op%s.vars]
					switch {
					case op%10 < 6:
						x := v.Get(t)
						traces[ti] = append(traces[ti], x)
						v.Set(t, x+int64(ti)+1)
					case op%10 < 9:
						m := mons[op%s.mons]
						m.Enter(t)
						x := v.Get(t)
						traces[ti] = append(traces[ti], -x)
						v.Set(t, x*2+1)
						m.Exit(t)
					default:
						traces[ti] = append(traces[ti], v.Add(t, 3))
					}
				}
			})
		}
		for i := 0; i < s.threads; i++ {
			<-done
		}
	})
	vm.Wait()
	vm.Close()
	return traces, vm, nil
}

// TestShardedRandomProgramsReplayIdentically is the sharded-mode counterpart
// of the repository's central property test: for arbitrary racy programs over
// registered objects, a sharded replay reproduces the sharded record run's
// per-thread observation traces exactly. Cross-object ordering is only
// induced transitively (per-object order + program order), so this is the
// test that would catch a hole in the DOR relaxation.
func TestShardedRandomProgramsReplayIdentically(t *testing.T) {
	f := func(seed int64) bool {
		s := shapeFromSeed(seed)
		recTraces, recVM, err := runShardedShape(s, Config{
			ID: 90, Mode: ids.Record, RecordJitter: 5, OrderMode: ids.OrderSharded,
		})
		if err != nil {
			t.Logf("record: %v", err)
			return false
		}
		repTraces, repVM, err := runShardedShape(s, Config{
			ID: 90, Mode: ids.Replay, ReplayLogs: recVM.Logs(), OrderMode: ids.OrderSharded,
		})
		if err != nil {
			t.Logf("replay: %v", err)
			return false
		}
		if objectCount(recVM) != objectCount(repVM) {
			return false
		}
		return tracesEqual(recTraces, repTraces)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// runDisjoint runs the disjoint-object workload: each thread hammers its own
// registered SharedInt with racy increments, so threads share no objects at
// all. Returns the final per-object values.
func runDisjoint(t *testing.T, cfg Config, nThreads, iters int) ([]int64, *VM) {
	t.Helper()
	vm, err := NewVM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vars := make([]SharedInt, nThreads)
	for i := range vars {
		vars[i].Register(vm)
	}
	vm.Start(func(main *Thread) {
		done := make(chan struct{}, nThreads)
		for ti := 0; ti < nThreads; ti++ {
			ti := ti
			main.Spawn(func(th *Thread) {
				v := &vars[ti]
				for i := 0; i < iters; i++ {
					v.Set(th, v.Get(th)+1)
				}
				done <- struct{}{}
			})
		}
		for i := 0; i < nThreads; i++ {
			<-done
		}
	})
	vm.Wait()
	vm.Close()
	out := make([]int64, nThreads)
	for i := range vars {
		out[i] = vars[i].Load()
	}
	return out, vm
}

// TestShardedDisjointMatchesGlobal checks the disjoint-object workload end to
// end in both order modes: each mode's replay reproduces its own record run's
// final state, and — the workload being race-free across objects — all four
// runs agree on every final value.
func TestShardedDisjointMatchesGlobal(t *testing.T) {
	const nThreads, iters = 4, 100
	for seed := int64(1); seed <= 3; seed++ {
		shardRec, shardVM := runDisjoint(t, Config{
			ID: 91, Mode: ids.Record, RecordJitter: 4, OrderMode: ids.OrderSharded,
		}, nThreads, iters)
		shardRep, _ := runDisjoint(t, Config{
			ID: 91, Mode: ids.Replay, ReplayLogs: shardVM.Logs(), OrderMode: ids.OrderSharded,
		}, nThreads, iters)
		globRec, globVM := runDisjoint(t, Config{
			ID: 92, Mode: ids.Record, RecordJitter: 4,
		}, nThreads, iters)
		globRep, _ := runDisjoint(t, Config{
			ID: 92, Mode: ids.Replay, ReplayLogs: globVM.Logs(),
		}, nThreads, iters)
		for i := 0; i < nThreads; i++ {
			if shardRec[i] != int64(iters) {
				t.Fatalf("seed %d: sharded record var %d = %d, want %d", seed, i, shardRec[i], iters)
			}
			if shardRep[i] != shardRec[i] || globRep[i] != globRec[i] || shardRec[i] != globRec[i] {
				t.Fatalf("seed %d: var %d final states diverge: sharded rec/rep %d/%d, global rec/rep %d/%d",
					seed, i, shardRec[i], shardRep[i], globRec[i], globRep[i])
			}
		}
		if n := objectCount(shardVM); n != nThreads {
			t.Errorf("sharded VM registered %d objects, want %d", n, nThreads)
		}
		shard := shardVM.Metrics().Snapshot().Shard
		if shard.ObjRuns == 0 {
			t.Error("sharded record flushed no obj runs")
		}
		if shard.FastPath+shard.Contended == 0 {
			t.Error("sharded record counted no shard events")
		}
		if g := globVM.Metrics().Snapshot().Shard; g.FastPath+g.Contended+g.ObjRuns != 0 {
			t.Errorf("global run counted shard activity: %+v", g)
		}
	}
}

// TestShardedMonitorWaitNotify drives a registered monitor through its full
// blocking repertoire — enter/exit, wait, notify, notifyAll — and checks a
// sharded replay reproduces the recorded handoff sequence.
func TestShardedMonitorWaitNotify(t *testing.T) {
	run := func(cfg Config) ([]int64, *VM) {
		vm, err := NewVM(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := NewMonitor()
		m.Register(vm)
		var slots SharedVar[[]int64]
		slots.Register(vm)
		var ready SharedInt
		ready.Register(vm)
		vm.Start(func(main *Thread) {
			done := make(chan struct{}, 3)
			for w := 0; w < 2; w++ {
				w := w
				main.Spawn(func(th *Thread) {
					m.Enter(th)
					ready.Add(th, 1)
					m.Wait(th)
					slots.Update(th, func(s []int64) []int64 { return append(s, int64(w+1)) })
					m.Exit(th)
					done <- struct{}{}
				})
			}
			main.Spawn(func(th *Thread) {
				for {
					m.Enter(th)
					if ready.Get(th) == 2 {
						break
					}
					m.Exit(th)
				}
				m.Notify(th)
				m.NotifyAll(th)
				slots.Update(th, func(s []int64) []int64 { return append(s, 99) })
				m.Exit(th)
				done <- struct{}{}
			})
			for i := 0; i < 3; i++ {
				<-done
			}
		})
		vm.Wait()
		vm.Close()
		return slots.Load(), vm
	}

	rec, recVM := run(Config{ID: 93, Mode: ids.Record, RecordJitter: 3, OrderMode: ids.OrderSharded})
	rep, _ := run(Config{ID: 93, Mode: ids.Replay, ReplayLogs: recVM.Logs(), OrderMode: ids.OrderSharded})
	if len(rec) != 3 {
		t.Fatalf("record produced %d slots, want 3", len(rec))
	}
	for i := range rec {
		if rec[i] != rep[i] {
			t.Fatalf("slot %d: record %d, replay %d (rec %v rep %v)", i, rec[i], rep[i], rec, rep)
		}
	}
}

// TestShardedTimedWaitReplaysOutcome records a TimedWait that times out on a
// registered monitor and checks the replay reproduces the recorded outcome
// without re-waiting wall-clock time.
func TestShardedTimedWaitReplaysOutcome(t *testing.T) {
	run := func(cfg Config) (bool, *VM) {
		vm, err := NewVM(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := NewMonitor()
		m.Register(vm)
		var timedOut bool
		vm.Start(func(main *Thread) {
			m.Enter(main)
			timedOut = m.TimedWait(main, 20*time.Millisecond)
			m.Exit(main)
		})
		vm.Wait()
		vm.Close()
		return timedOut, vm
	}
	recOut, recVM := run(Config{ID: 94, Mode: ids.Record, OrderMode: ids.OrderSharded})
	if !recOut {
		t.Fatal("record-mode TimedWait with no notifier did not time out")
	}
	start := time.Now()
	repOut, _ := run(Config{ID: 94, Mode: ids.Replay, ReplayLogs: recVM.Logs(), OrderMode: ids.OrderSharded})
	if !repOut {
		t.Error("replay did not reproduce the recorded timeout")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("replay took %v; recorded timeouts should not re-wait", d)
	}
}

// TestShardedStallDiverges: a sharded replay missing one recorded access
// leaves the object's turnstile stuck; the watchdog must convert the stuck
// waiter into a DivergenceError naming the object and access.
func TestShardedStallDiverges(t *testing.T) {
	var x SharedInt
	rec, err := NewVM(Config{ID: 95, Mode: ids.Record, OrderMode: ids.OrderSharded})
	if err != nil {
		t.Fatal(err)
	}
	x.Register(rec)
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

	var y SharedInt
	rep, err := NewVM(Config{
		ID: 95, Mode: ids.Replay, ReplayLogs: rec.Logs(),
		OrderMode: ids.OrderSharded, StallTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	y.Register(rep)
	got := make(chan any, 1)
	rep.Start(func(main *Thread) {
		defer func() { got <- recover() }()
		y.Set(main, 1)
		done := make(chan struct{})
		main.Spawn(func(child *Thread) {
			close(done) // skips its recorded access
		})
		<-done
		y.Set(main, 3) // waits for access 2 forever without the watchdog
	})
	select {
	case r := <-got:
		de, ok := r.(*DivergenceError)
		if !ok {
			t.Fatalf("recovered %v (%T), want *DivergenceError", r, r)
		}
		if !strings.Contains(de.Msg, "stalled") || !strings.Contains(de.Msg, "obj0") {
			t.Errorf("divergence message %q should name the stall and the object", de.Msg)
		}
		// The structured diagnostic names main parked on access 2 of obj0,
		// like a global-stream stall names the counter.
		want := ParkedThread{Thread: 0, Stream: tracelog.ObjectStream(0), Next: 2}
		if len(de.Parked) != 1 || de.Parked[0] != want {
			t.Errorf("stall diagnostic Parked=%v, want main parked on %v", de.Parked, want)
		}
		if !strings.Contains(de.Msg, fmt.Sprintf("parked threads: %v", de.Parked)) || !strings.Contains(de.Msg, want.Awaited()) {
			t.Errorf("divergence message %q disagrees with Parked %v", de.Msg, de.Parked)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("watchdog did not fire for a sharded stall")
	}
	rep.Wait()
	rep.Close()
}

// TestShardedStopAtLogEnd: under StopAtLogEnd a thread that runs past an
// object's recorded accesses stops cleanly instead of diverging.
func TestShardedStopAtLogEnd(t *testing.T) {
	record := func(accesses int) *VM {
		vm, err := NewVM(Config{ID: 96, Mode: ids.Record, OrderMode: ids.OrderSharded})
		if err != nil {
			t.Fatal(err)
		}
		var x SharedInt
		x.Register(vm)
		vm.Start(func(main *Thread) {
			for i := 0; i < accesses; i++ {
				x.Set(main, int64(i))
			}
		})
		vm.Wait()
		vm.Close()
		return vm
	}
	rec := record(2)
	rep, err := NewVM(Config{
		ID: 96, Mode: ids.Replay, ReplayLogs: rec.Logs(),
		OrderMode: ids.OrderSharded, StopAtLogEnd: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var x SharedInt
	x.Register(rep)
	reached := false
	rep.Start(func(main *Thread) {
		for i := 0; i < 5; i++ { // three more than recorded
			x.Set(main, int64(i))
		}
		reached = true
	})
	rep.Wait()
	rep.Close()
	if reached {
		t.Error("thread ran past the recorded accesses instead of stopping")
	}
	if rep.LogEndStops() != 1 {
		t.Errorf("LogEndStops = %d, want 1", rep.LogEndStops())
	}
	if got := x.Load(); got != 1 {
		t.Errorf("final value %d, want 1 (two recorded accesses)", got)
	}
}

// TestShardedConfigErrors pins every configuration the mode rejects, and the
// record/replay mode-mismatch check.
func TestShardedConfigErrors(t *testing.T) {
	if _, err := NewVM(Config{
		ID: 97, Mode: ids.Record, OrderMode: ids.OrderSharded,
		EventObserver: func(ids.ThreadNum, ids.GCount) {},
	}); err == nil || !strings.Contains(err.Error(), "OrderGlobal") {
		t.Errorf("sharded + EventObserver: err = %v, want OrderGlobal requirement", err)
	}
	if _, err := NewVM(Config{
		ID: 97, Mode: ids.Replay, OrderMode: ids.OrderSharded, Resume: &ResumePoint{},
	}); err == nil || !strings.Contains(err.Error(), "OrderGlobal") {
		t.Errorf("sharded + Resume: err = %v, want OrderGlobal requirement", err)
	}
	if _, err := NewVM(Config{ID: 97, Mode: ids.Record, OrderMode: ids.OrderMode(7)}); err == nil {
		t.Error("unknown order mode accepted")
	}

	vm, err := NewVM(Config{ID: 98, Mode: ids.Record, OrderMode: ids.OrderSharded})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.EnableWAL(t.TempDir(), tracelog.WALOptions{}); err == nil || !strings.Contains(err.Error(), "OrderGlobal") {
		t.Errorf("EnableWAL under sharded: err = %v, want OrderGlobal requirement", err)
	}
	vm.Start(func(main *Thread) {})
	vm.Wait()
	vm.Close()

	// Replay order mode must match the recording, in both directions.
	if _, err := NewVM(Config{ID: 98, Mode: ids.Replay, ReplayLogs: vm.Logs()}); err == nil ||
		!strings.Contains(err.Error(), "order mode") {
		t.Errorf("global replay of sharded recording: err = %v, want order-mode mismatch", err)
	}
	glob, err := NewVM(Config{ID: 99, Mode: ids.Record})
	if err != nil {
		t.Fatal(err)
	}
	glob.Start(func(main *Thread) {})
	glob.Wait()
	glob.Close()
	if _, err := NewVM(Config{
		ID: 99, Mode: ids.Replay, ReplayLogs: glob.Logs(), OrderMode: ids.OrderSharded,
	}); err == nil || !strings.Contains(err.Error(), "order mode") {
		t.Errorf("sharded replay of global recording: err = %v, want order-mode mismatch", err)
	}
}

// TestShardedRegistrationRules pins the registration contract's edges: double
// registration panics; registration outside sharded mode is a free no-op that
// consumes no ObjectID; an object registered on another VM falls back to the
// global mechanism.
func TestShardedRegistrationRules(t *testing.T) {
	vm, err := NewVM(Config{ID: 100, Mode: ids.Record, OrderMode: ids.OrderSharded})
	if err != nil {
		t.Fatal(err)
	}
	var x SharedInt
	x.Register(vm)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double registration did not panic")
			}
		}()
		x.Register(vm)
	}()
	vm.Start(func(main *Thread) {})
	vm.Wait()
	vm.Close()

	glob, err := NewVM(Config{ID: 101, Mode: ids.Record})
	if err != nil {
		t.Fatal(err)
	}
	var y SharedInt
	y.Register(glob) // global mode: no-op
	if n := objectCount(glob); n != 0 {
		t.Errorf("global-mode registration consumed %d object ids, want 0", n)
	}
	glob.Start(func(main *Thread) {
		y.Set(main, 7) // must take the global path without panicking
	})
	glob.Wait()
	glob.Close()
	if glob.Stats().CriticalEvents == 0 {
		t.Error("global-mode access to a registered object produced no critical event")
	}

	// An object registered on a *different* sharded VM uses the global
	// mechanism on this one (shardFor checks VM identity).
	other, err := NewVM(Config{ID: 102, Mode: ids.Record, OrderMode: ids.OrderSharded})
	if err != nil {
		t.Fatal(err)
	}
	var z SharedInt
	z.Register(other)
	mine, err := NewVM(Config{ID: 103, Mode: ids.Record, OrderMode: ids.OrderSharded})
	if err != nil {
		t.Fatal(err)
	}
	mine.Start(func(main *Thread) { z.Set(main, 1) })
	mine.Wait()
	mine.Close()
	if mine.Stats().CriticalEvents == 0 {
		t.Error("foreign-VM object access did not fall back to the global mechanism")
	}
	other.Start(func(main *Thread) {})
	other.Wait()
	other.Close()
}

// TestShardedUnregisteredObjectsStillReplay mixes registered and unregistered
// objects in one sharded run: the unregistered variable goes through the
// global counter, the registered one through its shard, and replay reproduces
// both.
func TestShardedUnregisteredObjectsStillReplay(t *testing.T) {
	run := func(cfg Config) ([][]int64, *VM) {
		vm, err := NewVM(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var reg, unreg SharedInt
		reg.Register(vm)
		traces := make([][]int64, 2)
		vm.Start(func(main *Thread) {
			done := make(chan struct{}, 2)
			for ti := 0; ti < 2; ti++ {
				ti := ti
				main.Spawn(func(th *Thread) {
					rng := rand.New(rand.NewSource(int64(ti)))
					for i := 0; i < 50; i++ {
						if rng.Intn(2) == 0 {
							traces[ti] = append(traces[ti], reg.Add(th, 1))
						} else {
							traces[ti] = append(traces[ti], unreg.Add(th, 1))
						}
					}
					done <- struct{}{}
				})
			}
			<-done
			<-done
		})
		vm.Wait()
		vm.Close()
		return traces, vm
	}
	rec, recVM := run(Config{ID: 104, Mode: ids.Record, RecordJitter: 3, OrderMode: ids.OrderSharded})
	rep, _ := run(Config{ID: 104, Mode: ids.Replay, ReplayLogs: recVM.Logs(), OrderMode: ids.OrderSharded})
	if !tracesEqual(rec, rep) {
		t.Error("mixed registered/unregistered run did not replay identically")
	}
}
