package core_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/tracelog"
)

// recordCheckpointedWAL records a single-thread run with periodic checkpoints
// to a WAL, truncates at the retention depth, and returns the salvaged set.
func recordCheckpointedWAL(t *testing.T, keep int) (*tracelog.Set, *tracelog.RecoveryReport) {
	t.Helper()
	vm, err := core.NewVM(core.Config{ID: 1, Mode: ids.Record})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "node.wal")
	if err := vm.EnableWAL(path, tracelog.WALOptions{SyncEvery: 1}); err != nil {
		t.Fatal(err)
	}
	vm.Start(func(main *core.Thread) {
		var x core.SharedInt
		for r := 0; r < 4; r++ {
			for i := 0; i < 5; i++ {
				x.Set(main, x.Get(main)+1)
			}
			checkpoint.Take(main, func() []byte { return []byte("state") })
		}
	})
	vm.Wait()
	if _, err := vm.TruncateWAL(keep); err != nil {
		t.Fatalf("TruncateWAL: %v", err)
	}
	set, rep, err := tracelog.RecoverFile(path)
	if err != nil {
		t.Fatalf("RecoverFile: %v", err)
	}
	if rep.BaseGC == 0 {
		t.Fatal("truncation left BaseGC zero")
	}
	return set, rep
}

// A truncated log has no records below its base: replay must refuse to start
// from zero with a clear error instead of diverging or deadlocking.
func TestReplayOfTruncatedLogRequiresResume(t *testing.T) {
	set, rep := recordCheckpointedWAL(t, 1)

	_, err := core.NewVM(core.Config{ID: 1, Mode: ids.Replay, ReplayLogs: set})
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("replay-from-zero of truncated log: err = %v, want truncation error", err)
	}

	// A resume point at or below the base is equally unreplayable.
	low := core.ResumePoint{GC: rep.BaseGC}
	_, err = core.NewVM(core.Config{ID: 1, Mode: ids.Replay, ReplayLogs: set, Resume: &low})
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("resume at the base: err = %v, want truncation error", err)
	}

	// Resuming from a retained checkpoint replays the surviving suffix.
	cp, err := checkpoint.Latest(set)
	if err != nil {
		t.Fatalf("no checkpoint survived truncation: %v", err)
	}
	vm, err := core.NewVM(core.Config{
		ID: 1, Mode: ids.Replay, ReplayLogs: set,
		Resume:       &cp.Resume,
		StopAtLogEnd: true,
		StallTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatalf("resume from retained checkpoint: %v", err)
	}
	vm.Start(func(main *core.Thread) {
		var x core.SharedInt
		for r := 0; r < 4; r++ {
			for i := 0; i < 5; i++ {
				x.Set(main, x.Get(main)+1)
			}
			checkpoint.Take(main, func() []byte { return []byte("state") })
		}
	})
	vm.Wait()
}

// Checkpoint resume fast-forwards along the global schedule; sharded order has
// no such schedule, and the config must say so up front.
func TestShardedResumeRejectedUpFront(t *testing.T) {
	rp := core.ResumePoint{GC: 10}
	_, err := core.NewVM(core.Config{
		ID: 1, Mode: ids.Replay,
		ReplayLogs: tracelog.NewSet(),
		OrderMode:  ids.OrderSharded,
		Resume:     &rp,
	})
	if err == nil || !strings.Contains(err.Error(), "requires OrderGlobal") {
		t.Fatalf("sharded resume: err = %v, want clear OrderGlobal requirement", err)
	}
}

func TestTruncateWALRequiresWAL(t *testing.T) {
	vm, err := core.NewVM(core.Config{ID: 1, Mode: ids.Record})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.TruncateWAL(1); err == nil || !strings.Contains(err.Error(), "EnableWAL") {
		t.Fatalf("TruncateWAL without WAL: err = %v, want EnableWAL requirement", err)
	}

	// Replay and passthrough modes are free no-ops.
	rvm, err := core.NewVM(core.Config{ID: 2, Mode: ids.Passthrough})
	if err != nil {
		t.Fatal(err)
	}
	st, err := rvm.TruncateWAL(1)
	if st != nil || err != nil {
		t.Fatalf("passthrough TruncateWAL = %v/%v, want nil/nil", st, err)
	}
}

// A WAL whose device fills up must not fail silently. Recording goes on in
// memory and the run ends normally, but whichever of TruncateWAL and Close
// sees the failure first reports it, Close keeps reporting it, the snapshot
// counts it once, and the in-memory logs still replay.
func TestWALFailureSurfaces(t *testing.T) {
	if f, err := os.OpenFile("/dev/full", os.O_WRONLY, 0); err != nil {
		t.Skipf("no /dev/full to inject a write failure with: %v", err)
	} else {
		f.Close()
	}
	for _, truncate := range []bool{false, true} {
		vm, err := core.NewVM(core.Config{ID: 4, Mode: ids.Record})
		if err != nil {
			t.Fatal(err)
		}
		if err := vm.EnableWAL("/dev/full", tracelog.WALOptions{SyncEvery: 8}); err != nil {
			t.Fatalf("EnableWAL: %v", err)
		}
		walErrors := func() uint64 { return vm.Metrics().Snapshot().Faults.WALErrors }
		run := func(vm *core.VM) (final int64) {
			var counter core.SharedInt
			vm.Start(func(main *core.Thread) {
				child := main.Spawn(func(th *core.Thread) {
					for i := 0; i < 500; i++ {
						counter.Add(th, 1)
					}
				})
				for i := 0; i < 500; i++ {
					counter.Add(main, 2)
				}
				main.Join(child)
				final = counter.Get(main)
				checkpoint.Take(main, func() []byte { return []byte("state") })
				if truncate {
					if _, err := vm.TruncateWAL(1); vm.Mode() == ids.Record && !errors.Is(err, syscall.ENOSPC) {
						t.Errorf("TruncateWAL = %v, want an error wrapping ENOSPC", err)
					}
				}
			})
			vm.Wait()
			return final
		}
		recorded := run(vm)
		if got := walErrors(); truncate && got != 1 {
			t.Fatalf("Faults.WALErrors = %d after the failed truncation, want 1", got)
		}

		err = vm.Close()
		if !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("truncate=%v: Close = %v, want an error wrapping ENOSPC", truncate, err)
		}
		if again := vm.Close(); again != err {
			t.Fatalf("second Close = %v, want the same error", again)
		}
		if got := walErrors(); got != 1 {
			t.Fatalf("truncate=%v: Faults.WALErrors = %d, want 1 (the first error is final)", truncate, got)
		}

		replay, err := core.NewVM(core.Config{ID: 4, Mode: ids.Replay, ReplayLogs: vm.Logs()})
		if err != nil {
			t.Fatalf("the in-memory logs of a WAL-failed run do not replay: %v", err)
		}
		if got := run(replay); got != recorded {
			t.Fatalf("replay ended at %d, recorded %d", got, recorded)
		}
		if err := replay.Close(); err != nil {
			t.Fatalf("Close of a VM without a WAL = %v, want nil", err)
		}
	}
}
