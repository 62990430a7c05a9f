package super

import (
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/recline"
	"repro/internal/tracelog"
)

// Lifecycle races, meant to run under -race with GOMAXPROCS=4: Stop during an
// in-flight recovery, Wait after Stop from several goroutines, and a
// false-positive detection whose salvage races the live VM's own WAL appends
// and checkpoint-anchored truncations.

// Stop issued while recover() is blocked inside the restart callback must not
// deadlock or discard the episode: Wait still returns the detection outcome.
func TestStopDuringInFlightRecover(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.wal")
	vm := startFrozenVM(t, path, 60, true)
	entered := make(chan struct{})
	release := make(chan struct{})
	cfg := testConfig(nil)
	cfg.Restart = func(r *Recovery) error {
		close(entered)
		<-release
		return nil
	}
	sup := Watch(lone(vm, path), cfg)
	<-entered
	// Detection already fired; Stop must be a harmless no-op, not a hang.
	sup.Stop()
	sup.Stop()
	close(release)
	out, err := sup.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if out == nil || !out.Detected {
		t.Fatalf("outcome = %+v, want the detection episode", out)
	}
}

// Wait after a clean Stop returns the empty outcome to every concurrent
// caller.
func TestConcurrentWaitAfterStop(t *testing.T) {
	vm, err := core.NewVM(core.Config{ID: 1, Mode: ids.Record})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "idle.wal")
	if err := vm.EnableWAL(path, tracelog.WALOptions{}); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(nil)
	cfg.FailAfter = 10 * time.Second // idle counters must not read as a crash
	sup := Watch(lone(vm, path), cfg)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if out, err := sup.Wait(); err != nil || out == nil || out.Detected || len(out.Episodes) != 0 {
				t.Errorf("Wait = %+v, %v, want the empty outcome", out, err)
			}
		}()
	}
	var stops sync.WaitGroup
	for i := 0; i < 3; i++ {
		stops.Add(1)
		go func() {
			defer stops.Done()
			sup.Stop()
		}()
	}
	stops.Wait()
	wg.Wait()
	vm.Close()
}

// A false-positive detection (the VM pauses longer than FailAfter, then keeps
// going) makes recover() salvage a WAL the live VM is still appending to and
// truncating. The salvage must hand the restart callback a valid replayable
// set — never a panic or a torn read — even while TruncateWAL atomically
// replaces the file underneath it.
func TestRecoverRacesLiveTruncation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "live.wal")
	paused := false
	vm, err := core.NewVM(core.Config{
		ID:   1,
		Mode: ids.Record,
		EventObserver: func(_ ids.ThreadNum, gc ids.GCount) {
			// One long pause, then full speed: the supervisor declares
			// fail-stop during the pause and recovers while the VM lives on.
			if gc == 120 && !paused {
				paused = true
				time.Sleep(150 * time.Millisecond)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.EnableWAL(path, tracelog.WALOptions{SyncEvery: 1}); err != nil {
		t.Fatal(err)
	}
	vm.Start(func(main *core.Thread) {
		var x core.SharedInt
		for i := 0; i < 3000; i++ {
			x.Set(main, x.Get(main)+1)
			if i%10 == 9 {
				checkpoint.Take(main, func() []byte { return []byte("state") })
				vm.TruncateWAL(2) //nolint:errcheck
			}
		}
	})
	cfg := testConfig(nil)
	cfg.Heartbeat = time.Millisecond
	cfg.FailAfter = 30 * time.Millisecond
	var salvaged *Recovery
	cfg.Restart = func(r *Recovery) error {
		salvaged = r
		return nil
	}
	sup := Watch(lone(vm, path), cfg)
	out, err := sup.Wait()
	vm.Wait()
	vm.Close()
	if err != nil {
		// A clean error (e.g. the salvage landed between a truncation's
		// rename and its anchor) is acceptable; a panic or race is not.
		t.Logf("recover returned cleanly with: %v", err)
		return
	}
	if !out.Detected {
		t.Fatalf("pause was not detected (outcome %+v)", out)
	}
	if salvaged == nil || salvaged.Logs == nil || salvaged.Report == nil {
		t.Fatalf("restart callback got no salvaged set: %+v", salvaged)
	}
	if _, err := tracelog.BuildScheduleIndex(salvaged.Logs.Schedule); err != nil {
		t.Fatalf("salvaged schedule does not index: %v", err)
	}
}

// The same lifecycle with two members: Stop before any episode returns the
// empty outcome to every waiter, repeatedly and concurrently.
func TestGroupStopAndConcurrentWait(t *testing.T) {
	dir := t.TempDir()
	var members []Member
	var vms []*core.VM
	for i := 0; i < 2; i++ {
		vm, err := core.NewVM(core.Config{ID: ids.DJVMID(i + 1), Mode: ids.Record})
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, "m.wal")
		if err := vm.EnableWAL(p, tracelog.WALOptions{}); err != nil {
			t.Fatal(err)
		}
		members = append(members, Member{Name: "m", VM: vm, WALPath: p})
		vms = append(vms, vm)
		dir = t.TempDir()
	}
	g := Watch(members, Config{
		FailAfter:   10 * time.Second,
		Coordinator: recline.NewCoordinator(1, 2),
	})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := g.Wait()
			if err != nil {
				t.Errorf("Wait: %v", err)
			}
			if out == nil || out.Detected || len(out.Episodes) != 0 {
				t.Errorf("outcome = %+v, want empty", out)
			}
		}()
	}
	g.Stop()
	g.Stop()
	wg.Wait()
	for _, vm := range vms {
		vm.Close()
	}
}
