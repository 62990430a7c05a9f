package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/ids"
)

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-figure", "2x"},
		{"-figure", "4"},
		{"-runs", "-1"},
		{"-nosuchflag"},
		{"extra"},
		{"-table", "3"},
		{"-threads", "0"},
		{"-threads", "2,x"},
		{"-reps", "0"},
		{"-figure", "1", "-table", "1"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stderr.Len() == 0 || stdout.Len() != 0 {
			t.Errorf("djfigures %v: exit %d, stdout %q, stderr %q; want exit 2 and a message on stderr only", args, code, stdout.String(), stderr.String())
		}
	}
}

// TestFiguresReplayTheirRecording runs each figure with one free execution:
// it must exit 0 — every replay reproduced its recording — and print each of
// its sections.
func TestFiguresReplayTheirRecording(t *testing.T) {
	for _, tc := range []struct {
		figure   string
		headings []string
	}{
		{"1", []string{"Figure 1:", "execution 1:", "Record phase:", "Figure 2:", "L: serverId=", "Replay phase", "replay 2:", "identical=true"}},
		{"3", []string{"Figure 3:", "execution 1:", "Record phase:", "recorded stream:", "Replay phase", "identical: true"}},
	} {
		t.Run("figure"+tc.figure, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run([]string{"-figure", tc.figure, "-runs", "1"}, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, stderr %q\n%s", code, stderr.String(), stdout.String())
			}
			out := stdout.String()
			for _, h := range tc.headings {
				if !strings.Contains(out, h) {
					t.Errorf("output lacks %q:\n%s", h, out)
				}
			}
			if strings.Contains(out, "identical=false") || strings.Contains(out, "identical: false") {
				t.Errorf("a replay departed from its recording:\n%s", out)
			}
		})
	}
}

func TestParseThreads(t *testing.T) {
	got, err := parseThreads("2, 4,8")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 2 || got[1] != 4 || got[2] != 8 {
		t.Errorf("parseThreads = %v", got)
	}
	for _, bad := range []string{"", "x", "0", "-3", "2,,4"} {
		if _, err := parseThreads(bad); err == nil {
			t.Errorf("parseThreads(%q) accepted", bad)
		}
	}
}

// TestTablesReplayTheirRecording runs each table at two threads: it must exit
// 0 — tables 1 and 2 replayed their recordings — and print the paper's columns.
func TestTablesReplayTheirRecording(t *testing.T) {
	tableHeadings := []string{"#threads", "#critical events", "#nw events", "log size", "rec ovhd(%)", "recordings: identical"}
	for _, tc := range []struct {
		table    string
		headings []string
	}{
		{"1", append([]string{"Table 1(a).", "Table 1(b)."}, tableHeadings...)},
		{"2", append([]string{"Table 2(a).", "Table 2(b)."}, tableHeadings...)},
		{"logsize", []string{"msg bytes", "closed-world log", "open-world log", "16384"}},
	} {
		t.Run("table"+tc.table, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run([]string{"-table", tc.table, "-threads", "2", "-reps", "1"}, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, stderr %q\n%s", code, stderr.String(), stdout.String())
			}
			for _, h := range tc.headings {
				if !strings.Contains(stdout.String(), h) {
					t.Errorf("output lacks %q:\n%s", h, stdout.String())
				}
			}
		})
	}
}

// TestDepartedReplayFails is the mutation check behind the tables' exit code:
// a replay whose outcome departs from the recording, or a replay of the other
// component's logs, is an error, which run turns into exit 1.
func TestDepartedReplayFails(t *testing.T) {
	p := smallParams(2)
	rec, err := RunClosed(p, ids.Record, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := Replay(p, rec); err != nil {
		t.Fatalf("untampered recording: %v", err)
	}
	tampered := rec
	tampered.Client.Outcome.Accum++
	if err := Replay(p, tampered); !errors.Is(err, errDiverged) {
		t.Errorf("replay against a tampered outcome: %v, want errDiverged", err)
	}
	swapped := rec
	swapped.ServerLogs, swapped.ClientLogs = rec.ClientLogs, rec.ServerLogs
	if err := Replay(p, swapped); err == nil {
		t.Error("replay of the other component's logs succeeded")
	}

	open, err := RunOpen(p, true, ids.Record, nil)
	if err != nil {
		t.Fatal(err)
	}
	open.Server.Outcome.Digest ^= 1
	if err := Replay(p, open); !errors.Is(err, errDiverged) {
		t.Errorf("open-world replay against a tampered outcome: %v, want errDiverged", err)
	}
}
