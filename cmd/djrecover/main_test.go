package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/tracelog"
)

// fixtureWAL writes the -mkfixture WAL into dir under name, through run.
func fixtureWAL(t *testing.T, dir, name string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-mkfixture", path}, &stdout, &stderr); code != 0 || !strings.Contains(stdout.String(), "wrote torn fixture") {
		t.Fatalf("-mkfixture: exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
	return path
}

// flipByte copies the WAL at src to dst with the byte at off XORed with x.
func flipByte(t *testing.T, src, dst string, off int, x byte) string {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	data[off] ^= x
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dst
}

func TestUsageErrors(t *testing.T) {
	dir := t.TempDir()
	wal := fixtureWAL(t, dir, "a.wal")
	for _, args := range [][]string{
		{},
		{wal, wal},
		{"-nosuchflag", wal},
		{"-set", dir}, // one path serves a file and a directory alike
		{"-mkfixture", filepath.Join(dir, "b.wal"), wal},
		{t.TempDir()}, // no *.wal in it
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stderr.Len() == 0 || stdout.Len() != 0 {
			t.Errorf("djrecover %v: exit %d, stdout %q, stderr %q; want exit 2 and a message on stderr only", args, code, stdout.String(), stderr.String())
		}
	}
}

// TestSalvageExitCodes runs a lone WAL and a directory over the torn fixture, the fixture
// with its log-id byte of frame 3 flipped (the frame checksum does not cover
// it: the salvage keeps the three frames before it and still validates), the
// fixture with its magic flipped (not a WAL: nothing salvages) and a group
// member's WAL whose epoch-1 stamp disagrees with its own anchor (it salvages
// whole, but logcheck has a finding).
func TestSalvageExitCodes(t *testing.T) {
	src := t.TempDir()
	fixture := fixtureWAL(t, src, "fixture.wal")
	// Frame 3 starts after the 8-byte magic and frames of 14, 13 and 14 bytes;
	// its first byte is the log id, and 1 refiles a schedule record as network.
	logID := flipByte(t, fixture, filepath.Join(src, "logid.wal"), 49, 1)
	magic := flipByte(t, fixture, filepath.Join(src, "magic.wal"), 0, 0xff)
	// The epoch-1 member list anchors VM 1 at 90; the stamp says 91.
	finding := buildMemberWAL(t, src, "finding.wal", 1, 91, 180)
	const why = "group epoch 1 anchors this VM at counter 90 but was stamped at 91"

	for _, tc := range []struct {
		name string
		args []string
		code int
		want []string // substrings of stdout
	}{
		{"fixture", []string{fixture}, 0, []string{"truncated: yes", "shutdown:  CRASH", "logcheck:  ok"}},
		{"fixture/json", []string{"-json", fixture}, 0, []string{`"ok": true`, `"Truncated": true`}},
		{"logid", []string{"-json", logID}, 0, []string{`"Frames": 3,`, "unexpected interval record in network log", `"ok": true`}},
		{"magic", []string{magic}, 1, nil},
		{"finding", []string{finding}, 1, []string{"logcheck:  1 finding(s)", why}},
		{"set/fixture", []string{walDir(t, fixture)}, 0, []string{"fixture.wal", " ok ", "crash"}},
		{"set/logid", []string{"-json", walDir(t, logID)}, 0, []string{`"Frames": 3,`, `"ok": true`}},
		{"set/magic", []string{walDir(t, fixture, magic)}, 1, []string{"magic.wal", "FAIL", "fixture.wal"}},
		{"set/finding", []string{walDir(t, fixture, finding)}, 1, []string{"finding.wal", "FAIL  1 logcheck finding(s)", why, "fixture.wal"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d; stderr %q\n%s", code, tc.code, stderr.String(), stdout.String())
			}
			for _, w := range tc.want {
				if !strings.Contains(stdout.String(), w) {
					t.Errorf("output lacks %q:\n%s", w, stdout.String())
				}
			}
		})
	}
}

// TestSavedSetIsWritten: -o writes a lone WAL's salvaged set under its member
// name, as it does each member of a directory; a path that cannot be written
// is a failure, exit 1, in -o and in -mkfixture alike.
func TestSavedSetIsWritten(t *testing.T) {
	fixture := fixtureWAL(t, t.TempDir(), "fixture.wal")
	out := filepath.Join(t.TempDir(), "recovered")
	saved := filepath.Join(out, "fixture")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-o", out, fixture}, &stdout, &stderr); code != 0 || !strings.Contains(stdout.String(), "saved:     "+saved) {
		t.Fatalf("exit %d, stderr %q\n%s", code, stderr.String(), stdout.String())
	}
	if _, err := tracelog.LoadSet(saved); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-o", filepath.Join(fixture, "sub"), fixture}, &stdout, &stderr); code != 1 {
		t.Errorf("saving under a regular file: exit %d, want 1", code)
	}
	if code := run([]string{"-mkfixture", filepath.Join(fixture, "x.wal")}, &stdout, &stderr); code != 1 {
		t.Errorf("fixture under a regular file: exit %d, want 1", code)
	}
}

// walDir copies the given WALs into a fresh directory, as one group.
func walDir(t *testing.T, wals ...string) string {
	t.Helper()
	dir := t.TempDir()
	for _, w := range wals {
		data, err := os.ReadFile(w)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(w)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}
