package main

import (
	"bytes"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/ids"
	"repro/internal/tracelog"
)

// salvagedFixture writes a WAL carrying the record kinds only a durable
// recording produces — chaos plan, group-epoch stamp, truncation marker,
// open-interval note — salvages it, and saves the result the way
// `djrecover -o` does.
func salvagedFixture(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	wal := filepath.Join(dir, "node.wal")
	w, err := tracelog.CreateWAL(wal, tracelog.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := tracelog.NewSet()
	if err := s.AttachWAL(w); err != nil {
		t.Fatal(err)
	}
	s.Schedule.Append(&tracelog.VMMeta{VM: 3, World: ids.OpenWorld})
	s.Schedule.Append(&tracelog.ChaosPlanEntry{Seed: 9, Spec: []byte{1, 2, 3}})
	s.Schedule.Append(&tracelog.Interval{Thread: 0, First: 0, Last: 4})
	s.Schedule.Append(&tracelog.CheckpointEntry{GC: 4, NextThread: 1, State: []byte("state")})
	s.Schedule.Append(&tracelog.GroupEpochEntry{Epoch: 1, GC: 4, Members: []tracelog.GroupMember{{VM: 3, AnchorGC: 4}, {VM: 5, AnchorGC: 9}}})
	if _, err := s.WAL().TruncateWAL(1); err != nil {
		t.Fatal(err)
	}
	s.Network.Append(&tracelog.OpenReadEntry{EventID: ids.NetworkEventID{Thread: 0, Event: 1}, Data: []byte("request")})
	s.Schedule.Append(&tracelog.OpenInterval{Thread: 0, First: 5, Last: 6})
	s.Schedule.Append(&tracelog.Interval{Thread: 0, First: 5, Last: 8})
	s.Schedule.Append(&tracelog.VMMeta{VM: 3, World: ids.OpenWorld, Threads: 1, FinalGC: 9})
	if err := s.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	set, _, err := tracelog.RecoverFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "recovered")
	if err := set.Save(out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestDumpRendersEveryRecordOfASalvagedSet(t *testing.T) {
	dir := salvagedFixture(t)
	var out, errOut bytes.Buffer
	if code := run([]string{dir}, &out, &errOut); code != 0 || errOut.Len() != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut.String())
	}
	// Record lines are "  <index>  <kind> <fields>"; a kind render does not
	// know prints as its bare name, with nothing to read.
	recordLine := regexp.MustCompile(`^\s+\d+\s+\S+`)
	field := regexp.MustCompile(`\w+=\S`)
	records := 0
	for _, line := range strings.Split(out.String(), "\n") {
		if !recordLine.MatchString(line) {
			continue // headers and the per-kind count table
		}
		records++
		if !field.MatchString(line) {
			t.Errorf("record line carries no key=value: %q", line)
		}
	}
	if records != 10 {
		t.Errorf("dumped %d record lines, want 10:\n%s", records, out.String())
	}
	for _, want := range []string{
		"chaos-plan    seed=9 spec=3B",
		"truncation    baseGC=4",
		"group-epoch   epoch=1 gc=4 members=[vm3@4 vm5@9]",
		"open-interval thread=0 [5,6] (2 events so far)",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("dump lacks %q:\n%s", want, out.String())
		}
	}
}

// An open write renders under the name of its record's kind: the FNV-1a
// records of logs from before PR 19 stay "open-write".
func TestRenderNamesTheOpenWriteKind(t *testing.T) {
	e := tracelog.OpenWriteEntry{EventID: ids.NetworkEventID{Thread: 2, Event: 3}, Len: 5, Sum: 0xabc}
	if got, want := render(&e), "open-write-wide nev⟨t2,e3⟩ len=5 sum=0000000000000abc"; got != want {
		t.Errorf("render = %q, want %q", got, want)
	}
	e.FNV = true
	if got, want := render(&e), "open-write    nev⟨t2,e3⟩ len=5 sum=0000000000000abc"; got != want {
		t.Errorf("render = %q, want %q", got, want)
	}
}

func TestExitCodes(t *testing.T) {
	dir := salvagedFixture(t)
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stdout string
		stderr string
	}{
		{"summary", []string{"-summary", dir}, 0, "== schedule.log:", ""},
		{"entries", []string{"-entries", dir}, 0, `"kind":"truncation","desc":"truncation    baseGC=4"`, ""},
		{"json", []string{"-json", dir}, 0, `"group-epoch": 1`, ""},
		{"check", []string{"-check", dir}, 0, "ok: 1 log set(s) consistent", ""},
		{"no arguments", nil, 2, "", "usage: djtrace"},
		{"two sets to dump", []string{dir, dir}, 2, "", "usage: djtrace"},
		{"unknown flag", []string{"-nope"}, 2, "", "flag provided but not defined"},
		{"unreadable set", []string{t.TempDir()}, 1, "", "djtrace:"},
	} {
		var out, errOut bytes.Buffer
		code := run(tc.args, &out, &errOut)
		if code != tc.code || !strings.Contains(out.String(), tc.stdout) || !strings.Contains(errOut.String(), tc.stderr) {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit %d, stdout containing %q, stderr containing %q",
				tc.name, code, out.String(), errOut.String(), tc.code, tc.stdout, tc.stderr)
		}
	}
}
