package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ids"
	"repro/internal/tracelog"
)

// buildMemberWAL writes one group member's WAL: identity header, schedule
// coverage, and two coordinated epochs with their anchor checkpoints.
func buildMemberWAL(t *testing.T, dir, name string, vm ids.DJVMID, a1, a2 ids.GCount) string {
	t.Helper()
	pair1 := []tracelog.GroupMember{{VM: 1, AnchorGC: 90}, {VM: 2, AnchorGC: 95}}
	pair2 := []tracelog.GroupMember{{VM: 1, AnchorGC: 180}, {VM: 2, AnchorGC: 185}}
	path := filepath.Join(dir, name)
	s := tracelog.NewSet()
	w, err := tracelog.CreateWAL(path, tracelog.WALOptions{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AttachWAL(w); err != nil {
		t.Fatal(err)
	}
	s.Schedule.Append(&tracelog.VMMeta{VM: vm, World: ids.OpenWorld})
	s.Schedule.Append(&tracelog.Interval{Thread: 0, First: 0, Last: 250})
	s.Schedule.Append(&tracelog.CheckpointEntry{GC: a1})
	s.Schedule.Append(&tracelog.GroupEpochEntry{Epoch: 1, GC: a1, Members: pair1})
	s.Schedule.Append(&tracelog.CheckpointEntry{GC: a2})
	s.Schedule.Append(&tracelog.GroupEpochEntry{Epoch: 2, GC: a2, Members: pair2})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// -set over a healthy two-member group: both members salvage, and the solver
// settles on the newest epoch.
func TestRunSetHealthyGroup(t *testing.T) {
	dir := t.TempDir()
	buildMemberWAL(t, dir, "m1.wal", 1, 90, 180)
	buildMemberWAL(t, dir, "m2.wal", 2, 95, 185)
	if code := run([]string{"-json", "-set", dir}, io.Discard, io.Discard); code != 0 {
		t.Fatalf("djrecover -set = %d, want 0", code)
	}
}

// -set over a group whose second member's final frame (the epoch-2 stamp) is
// torn: both members still salvage — the batch succeeds — and the solver
// falls back to epoch 1.
func TestRunSetTornMemberFallsBack(t *testing.T) {
	dir := t.TempDir()
	buildMemberWAL(t, dir, "m1.wal", 1, 90, 180)
	p2 := buildMemberWAL(t, dir, "m2.wal", 2, 95, 185)
	fi, err := os.Stat(p2)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(p2, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	if code := run([]string{"-json", "-o", out, "-set", dir}, io.Discard, io.Discard); code != 0 {
		t.Fatalf("djrecover -set = %d, want 0 (a torn tail still salvages)", code)
	}
	// -o saved each member's recovered set under its own subdirectory.
	for _, m := range []string{"m1", "m2"} {
		if _, err := tracelog.LoadSet(filepath.Join(out, m)); err != nil {
			t.Fatalf("saved set %s does not load: %v", m, err)
		}
	}
}

// -set over an unsalvageable member (not a WAL at all) reports failure.
func TestRunSetBadMemberFails(t *testing.T) {
	dir := t.TempDir()
	buildMemberWAL(t, dir, "m1.wal", 1, 90, 180)
	if err := os.WriteFile(filepath.Join(dir, "m2.wal"), []byte("not a wal"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-json", "-set", dir}, io.Discard, io.Discard); code != 1 {
		t.Fatalf("djrecover -set = %d, want 1 for an unrecoverable member", code)
	}
}
