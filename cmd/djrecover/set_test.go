package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
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

// A healthy two-member group: both members salvage, and the solver settles on
// the newest epoch.
func TestRunSetHealthyGroup(t *testing.T) {
	dir := t.TempDir()
	buildMemberWAL(t, dir, "m1.wal", 1, 90, 180)
	buildMemberWAL(t, dir, "m2.wal", 2, 95, 185)
	var stdout bytes.Buffer
	if code := run([]string{dir}, &stdout, io.Discard); code != 0 {
		t.Fatalf("djrecover dir = %d, want 0\n%s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "recovery line: epoch 2, anchors map[vm1:180 vm2:185]") {
		t.Errorf("report lacks the epoch-2 line:\n%s", stdout.String())
	}
}

// A group whose second member's final frame (the epoch-2 stamp) is
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
	var stdout bytes.Buffer
	if code := run([]string{"-json", "-o", out, dir}, &stdout, io.Discard); code != 0 {
		t.Fatalf("djrecover dir = %d, want 0 (a torn tail still salvages)", code)
	}
	if !strings.Contains(stdout.String(), `"epoch": 1,`) || !strings.Contains(stdout.String(), `"fallbacks": 1,`) {
		t.Errorf("report does not fall back to epoch 1:\n%s", stdout.String())
	}
	// -o saved each member's recovered set under its own subdirectory.
	for _, m := range []string{"m1", "m2"} {
		if _, err := tracelog.LoadSet(filepath.Join(out, m)); err != nil {
			t.Fatalf("saved set %s does not load: %v", m, err)
		}
	}
}

// An unsalvageable member (not a WAL at all) fails the group.
func TestRunSetBadMemberFails(t *testing.T) {
	dir := t.TempDir()
	buildMemberWAL(t, dir, "m1.wal", 1, 90, 180)
	if err := os.WriteFile(filepath.Join(dir, "m2.wal"), []byte("not a wal"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-json", dir}, io.Discard, io.Discard); code != 1 {
		t.Fatalf("djrecover dir = %d, want 1 for an unrecoverable member", code)
	}
}

// The recovery-line section is there only when some member carries group
// epochs: a lone WAL without them reports its salvage and nothing more, while
// a lone member of a two-VM group says why it has no line.
func TestRecoveryLineOnlyWithGroupEpochs(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		wal  string
		want string
	}{
		{fixtureWAL(t, dir, "fixture.wal"), ""},
		{buildMemberWAL(t, dir, "m1.wal", 1, 90, 180), "recovery line: NONE — no complete group epoch survived"},
	} {
		for _, args := range [][]string{{tc.wal}, {"-json", tc.wal}} {
			var stdout bytes.Buffer
			if code := run(args, &stdout, io.Discard); code != 0 {
				t.Fatalf("djrecover %v = %d, want 0\n%s", args, code, stdout.String())
			}
			out := stdout.String()
			hasLine := strings.Contains(out, "recovery line") || strings.Contains(out, `"line"`) || strings.Contains(out, `"no_line"`)
			if hasLine != (tc.want != "") {
				t.Errorf("djrecover %v: recovery-line section present = %v, want %v:\n%s", args, hasLine, tc.want != "", out)
			}
			if tc.want != "" && args[0] != "-json" && !strings.Contains(out, tc.want) {
				t.Errorf("djrecover %v lacks %q:\n%s", args, tc.want, out)
			}
		}
	}
}
