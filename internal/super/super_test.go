package super

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/recline"
	"repro/internal/tracelog"
)

// startVM starts a recording VM, reported to observer, whose one thread runs
// shared-variable events without end (with a checkpoint every ten when
// withCkpt) until the observer stops it. The VM is waited for and closed when
// the test ends.
func startVM(t *testing.T, walPath string, withCkpt bool, observer func(ids.ThreadNum, ids.GCount)) *core.VM {
	t.Helper()
	vm, err := core.NewVM(core.Config{ID: 1, Mode: ids.Record, EventObserver: observer})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.EnableWAL(walPath, tracelog.WALOptions{SyncEvery: 1}); err != nil {
		t.Fatal(err)
	}
	vm.Start(func(main *core.Thread) {
		var x core.SharedInt
		for i := 0; ; i++ {
			x.Set(main, x.Get(main)+1)
			if withCkpt && i%10 == 9 {
				checkpoint.Take(main, func() []byte { return []byte("state") })
			}
		}
	})
	t.Cleanup(func() {
		vm.Wait()
		vm.Close()
	})
	return vm
}

// startFrozenVM starts a recording VM that fail-stops at counter freezeAt:
// its event observer panics core.Crash there, which ends every thread of the
// VM and freezes its progress counters — what a crashed process leaves.
func startFrozenVM(t *testing.T, walPath string, freezeAt ids.GCount, withCkpt bool) *core.VM {
	return startVM(t, walPath, withCkpt, func(_ ids.ThreadNum, gc ids.GCount) {
		if gc >= freezeAt {
			panic(core.Crash{})
		}
	})
}

// lone is the one-member slice every single-VM case supervises.
func lone(vm *core.VM, walPath string) []Member {
	return []Member{{Name: "node", VM: vm, WALPath: walPath}}
}

// testConfig supervises VM 1 alone: a coordinator of one, whose barrier the
// test VMs (plain checkpoint.Take) never enter. The supervisor fills no
// metric set (its Outcome is the record of a recovery): a caller's is unused.
func testConfig(*obs.Metrics) Config {
	return Config{
		Heartbeat:   time.Millisecond,
		FailAfter:   40 * time.Millisecond,
		Coordinator: recline.NewCoordinator(1),
	}
}

// soleRecovery asserts the outcome is one detection episode of member 0 alone
// and returns it with its prepared restart.
func soleRecovery(t *testing.T, out *Outcome) (*Episode, *Recovery) {
	t.Helper()
	if out == nil || !out.Detected {
		t.Fatalf("freeze not detected (outcome %+v)", out)
	}
	if len(out.Episodes) != 1 {
		t.Fatalf("%d episodes, want 1", len(out.Episodes))
	}
	ep := out.Episodes[0]
	if len(ep.Crashed) != 1 || ep.Crashed[0] != 0 || len(ep.Recoveries) != 1 {
		t.Fatalf("episode crashed %v with %d recoveries, want member 0 alone", ep.Crashed, len(ep.Recoveries))
	}
	return ep, ep.Recoveries[0]
}

// cleanOutcome asserts a supervision run that ended by Stop saw nothing.
func cleanOutcome(t *testing.T, out *Outcome, err error) {
	t.Helper()
	if err != nil || out == nil || out.Detected || len(out.Episodes) != 0 {
		t.Fatalf("clean stop: outcome=%+v err=%v, want an empty outcome", out, err)
	}
}

func TestCleanStopReportsNothing(t *testing.T) {
	vm, err := core.NewVM(core.Config{ID: 1, Mode: ids.Record})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "clean.wal")
	if err := vm.EnableWAL(path, tracelog.WALOptions{}); err != nil {
		t.Fatal(err)
	}
	vm.Start(func(main *core.Thread) {
		var x core.SharedInt
		for i := 0; i < 20; i++ {
			x.Set(main, x.Get(main)+1)
		}
	})
	sup := Watch(lone(vm, path), testConfig(nil))
	vm.Wait()
	sup.Stop()
	sup.Stop() // idempotent
	out, err := sup.Wait()
	cleanOutcome(t, out, err)
	vm.Close()
}

func TestDetectsFreezeAndAnchorsOnCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.wal")
	vm := startFrozenVM(t, path, 60, true)
	var restarted *Recovery
	cfg := testConfig(nil)
	cfg.Restart = func(r *Recovery) error {
		restarted = r
		return nil
	}
	sup := Watch(lone(vm, path), cfg)
	out, err := sup.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	ep, rec := soleRecovery(t, out)
	if ep.DetectLatency < cfg.FailAfter {
		t.Fatalf("DetectLatency %v below FailAfter %v", ep.DetectLatency, cfg.FailAfter)
	}
	if rec.FallbackZero {
		t.Fatal("fell back to zero despite recorded checkpoints")
	}
	if rec.Checkpoint == nil {
		t.Fatal("no checkpoint anchor prepared")
	}
	if rec.OnLine {
		t.Fatal("anchor claims a recovery line, but the VM never stamped a group epoch")
	}
	if restarted == nil || restarted != rec {
		t.Fatal("restart callback did not receive the prepared recovery")
	}
	if rec.LastTotal == 0 {
		t.Fatal("LastTotal empty — detection saw no progress at all")
	}
	if ep.RecoverLatency <= 0 {
		t.Fatalf("RecoverLatency %v: the episode's recovery was not timed", ep.RecoverLatency)
	}

	// The salvaged set replays to the crash point.
	rep, err := core.NewVM(core.Config{
		ID: 1, Mode: ids.Replay,
		ReplayLogs:   rec.Logs,
		Resume:       &rec.Checkpoint.Resume,
		StopAtLogEnd: true,
		StallTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatalf("replay from salvage: %v", err)
	}
	rep.Start(func(main *core.Thread) {
		var x core.SharedInt
		for i := 0; ; i++ {
			x.Set(main, x.Get(main)+1)
			if i%10 == 9 {
				checkpoint.Take(main, func() []byte { return []byte("state") })
			}
		}
	})
	rep.Wait()
	rep.Close()
}

func TestFallsBackToZeroWithoutCheckpoints(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.wal")
	vm := startFrozenVM(t, path, 30, false)
	sup := Watch(lone(vm, path), testConfig(nil))
	out, err := sup.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	_, rec := soleRecovery(t, out)
	if !rec.FallbackZero {
		t.Fatalf("recovery %+v, want fallback-to-zero", rec)
	}
	if rec.Checkpoint != nil {
		t.Fatal("fallback outcome carries a checkpoint")
	}
}

// TestDetectsHang: a member whose observer blocks inside the critical section
// — a hang, not a crash — freezes its total all the same and is declared
// failed: a hang reads as death. The hang ends in a crash only once the test
// is over, so no goroutine outlives it.
func TestDetectsHang(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.wal")
	release := make(chan struct{})
	vm := startVM(t, path, true, func(_ ids.ThreadNum, gc ids.GCount) {
		if gc >= 60 {
			<-release
			panic(core.Crash{})
		}
	})
	t.Cleanup(func() { close(release) })
	out, err := Watch(lone(vm, path), testConfig(nil)).Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if _, rec := soleRecovery(t, out); rec.Checkpoint == nil || rec.LastTotal == 0 {
		t.Fatalf("hung member's recovery %+v: want a checkpoint anchor and the total it froze at", rec)
	}
}

// A truncated WAL whose anchor checkpoint did not survive (here: a compacted
// image hand-built without one) has no resume point at all — the supervisor
// must refuse rather than prepare an unreplayable restart.
func TestTruncatedLogWithoutAnchorIsUnrecoverable(t *testing.T) {
	dir := t.TempDir()
	orphan := filepath.Join(dir, "orphan.wal")
	w, err := tracelog.CreateWAL(orphan, tracelog.WALOptions{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := tracelog.NewSet()
	if err := s.AttachWAL(w); err != nil {
		t.Fatal(err)
	}
	s.Schedule.Append(&tracelog.VMMeta{VM: 1, World: ids.OpenWorld})
	s.Schedule.Append(&tracelog.TruncationEntry{BaseGC: 5})
	s.Schedule.Append(&tracelog.Interval{Thread: 0, First: 5, Last: 9})
	if err := s.SyncWAL(); err != nil {
		t.Fatal(err)
	}

	vm := startFrozenVM(t, filepath.Join(dir, "live.wal"), 30, false)
	sup := Watch(lone(vm, orphan), testConfig(nil))
	out, err := sup.Wait()
	if err == nil || !strings.Contains(err.Error(), "unrecoverable") {
		t.Fatalf("Wait err = %v, want unrecoverable-truncation error", err)
	}
	if out == nil || !out.Detected {
		t.Fatal("outcome should still report detection")
	}
}

func TestRestartErrorSurfaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.wal")
	vm := startFrozenVM(t, path, 30, true)
	cfg := testConfig(nil)
	cfg.Restart = func(*Recovery) error { return errRestart }
	sup := Watch(lone(vm, path), cfg)
	_, err := sup.Wait()
	if err == nil || !strings.Contains(err.Error(), "restart") {
		t.Fatalf("Wait err = %v, want restart failure", err)
	}
}

// An episode that fails before its restart — here the victim's WAL path is
// unreadable — must still remove the victim from the coordinator: a survivor
// parked in Checkpoint completes its round with the reduced membership, and
// Wait surfaces the salvage error.
func TestFailedEpisodeReleasesParkedSurvivors(t *testing.T) {
	dir := t.TempDir()
	coord := recline.NewCoordinator(1, 2)

	survivor, err := core.NewVM(core.Config{ID: 1, Mode: ids.Record})
	if err != nil {
		t.Fatal(err)
	}
	survivorWAL := filepath.Join(dir, "survivor.wal")
	if err := survivor.EnableWAL(survivorWAL, tracelog.WALOptions{SyncEvery: 1}); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	victim, err := core.NewVM(core.Config{
		ID: 2, Mode: ids.Record,
		EventObserver: func(_ ids.ThreadNum, gc ids.GCount) {
			if gc >= 10 {
				<-release // fail-stop before ever reaching the barrier
				panic(core.Crash{})
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Once the test is over the victim's thread unwinds instead of leaking.
	t.Cleanup(func() { close(release); victim.Wait() })
	if err := victim.EnableWAL(filepath.Join(dir, "victim.wal"), tracelog.WALOptions{SyncEvery: 1}); err != nil {
		t.Fatal(err)
	}

	cfg := testConfig(&obs.Metrics{})
	cfg.Coordinator = coord
	sup := Watch([]Member{
		{Name: "survivor", VM: survivor, WALPath: survivorWAL},
		{Name: "victim", VM: victim, WALPath: filepath.Join(dir, "no-such-dir", "victim.wal")},
	}, cfg)

	work := func(main *core.Thread) {
		var x core.SharedInt
		for i := 0; i < 20; i++ {
			x.Set(main, x.Get(main)+1)
		}
		coord.Checkpoint(main, func() []byte { return []byte("state") })
	}
	survivor.Start(work)
	victim.Start(work)

	released := make(chan struct{})
	go func() {
		survivor.Wait()
		close(released)
	}()
	select {
	case <-released:
	case <-time.After(10 * time.Second):
		t.Fatal("survivor still parked at the barrier after the episode failed")
	}
	survivor.Close()

	out, err := sup.Wait()
	if err == nil || !strings.Contains(err.Error(), "wal repair") {
		t.Fatalf("Wait err = %v, want the victim's wal repair error", err)
	}
	if out == nil || !out.Detected || len(out.Episodes) != 1 {
		t.Fatalf("outcome %+v, want the one failed episode", out)
	}
	if got := out.Episodes[0].Crashed; len(got) != 1 || got[0] != 1 {
		t.Fatalf("episode crashed %v, want the victim alone", got)
	}
	if coord.Epochs() != 1 {
		t.Fatalf("completed epochs = %d, want the survivor's released round", coord.Epochs())
	}
}

var errRestart = &restartErr{}

type restartErr struct{}

func (*restartErr) Error() string { return "injected restart failure" }

// TestTrickleIsProgress: a recording VM publishes its counter per run or
// batch, not per event, so a lone thread that executes one event now and then
// — one open run, never a full batch, asleep in plain Go code in between —
// publishes nothing on its own. The supervisor's poll brings the total up to
// date itself whenever no event is in flight, so the member is seen to move
// and is not declared fail-stop.
func TestTrickleIsProgress(t *testing.T) {
	vm, err := core.NewVM(core.Config{ID: 1, Mode: ids.Record})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	vm.Start(func(main *core.Thread) {
		for {
			select {
			case <-stop:
				return
			default:
			}
			main.Critical(func(ids.GCount) {})
			time.Sleep(2 * time.Millisecond)
		}
	})
	cfg := testConfig(nil)
	cfg.Heartbeat, cfg.FailAfter = 5*time.Millisecond, 60*time.Millisecond
	sup := Watch(lone(vm, filepath.Join(t.TempDir(), "unused.wal")), cfg)
	time.Sleep(400 * time.Millisecond)
	sup.Stop()
	out, err := sup.Wait()
	cleanOutcome(t, out, err)
	close(stop)
	vm.Wait()
}
