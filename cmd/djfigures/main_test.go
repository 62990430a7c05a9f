package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-figure", "2x"},
		{"-figure", "4"},
		{"-runs", "-1"},
		{"-nosuchflag"},
		{"extra"},
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
