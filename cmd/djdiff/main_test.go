package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/ids"
	"repro/internal/tracelog"
)

// saveSharded saves a sharded log set whose one object is accessed in the
// given thread order, and returns its directory.
func saveSharded(t *testing.T, objOrder []ids.ThreadNum) string {
	t.Helper()
	s := tracelog.NewSet()
	s.Schedule = tracelog.ComposeSchedule(tracelog.VMMeta{VM: 1, Threads: 2}, ids.OrderSharded, 0,
		[][]ids.ThreadNum{{0, 1}, objOrder}, nil)
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// saveOpenWorld saves an open-world log set of one connect to peer, one
// request read and one reply write, and returns its directory.
func saveOpenWorld(t *testing.T, peer, request string, replySum uint64) string {
	t.Helper()
	s := tracelog.NewSet()
	s.Schedule = tracelog.ComposeSchedule(tracelog.VMMeta{VM: 1, World: ids.OpenWorld, Threads: 1}, ids.OrderGlobal, 0,
		[][]ids.ThreadNum{{0, 0, 0}}, nil)
	ev := func(e int) ids.NetworkEventID { return ids.NetworkEventID{Thread: 0, Event: ids.EventNum(e)} }
	s.Network.Append(&tracelog.OpenConnectEntry{EventID: ev(0), LocalPort: 4000, RemoteHost: peer, RemotePort: 80})
	s.Network.Append(&tracelog.OpenReadEntry{EventID: ev(1), Data: []byte(request)})
	s.Network.Append(&tracelog.OpenWriteEntry{EventID: ev(2), Len: 2, Sum: replySum})
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestExitCodes(t *testing.T) {
	a := saveSharded(t, []ids.ThreadNum{0, 1, 0, 1})
	b := saveSharded(t, []ids.ThreadNum{1, 1, 0, 0})
	oa := saveOpenWorld(t, "alpha", "GET /a", 1)
	ob := saveOpenWorld(t, "beta", "GET /b", 2)
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stdout string
		stderr string
	}{
		{"identical", []string{a, a}, 0, "identical", ""},
		{"object order differs", []string{a, b}, 1, "obj0", ""},
		{"open-world identical", []string{oa, oa}, 0, "identical", ""},
		{"open-world peer, request and reply differ", []string{oa, ob}, 1, "open-connect nev⟨t0,e0⟩: values differ", ""},
		{"one argument", []string{a}, 2, "", "usage"},
		{"three arguments", []string{a, b, a}, 2, "", "usage"},
		{"unreadable set", []string{a, t.TempDir()}, 2, "", "djdiff:"},
	} {
		var out, errOut bytes.Buffer
		code := run(tc.args, &out, &errOut)
		if code != tc.code || !strings.Contains(out.String(), tc.stdout) || !strings.Contains(errOut.String(), tc.stderr) {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit %d, stdout containing %q, stderr containing %q",
				tc.name, code, out.String(), errOut.String(), tc.code, tc.stdout, tc.stderr)
		}
		if tc.code == 2 && out.Len() != 0 {
			t.Errorf("%s: wrote %q to stdout on an error", tc.name, out.String())
		}
	}
}
