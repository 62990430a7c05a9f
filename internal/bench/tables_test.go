package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestGenerateTable1SmallSweep(t *testing.T) {
	var progress []string
	srv, cli, err := GenerateTable1([]int{2}, 1, func(m string) { progress = append(progress, m) })
	if err != nil {
		t.Fatal(err)
	}
	if len(srv.Rows) != 1 || len(cli.Rows) != 1 {
		t.Fatalf("rows: server %d, client %d", len(srv.Rows), len(cli.Rows))
	}
	s, c := srv.Rows[0], cli.Rows[0]
	if s.Threads != 2 || c.Threads != 2 {
		t.Error("thread column wrong")
	}
	if s.CriticalEvents < 400000 || s.CriticalEvents > 600000 {
		t.Errorf("server critical events %d outside the calibrated band", s.CriticalEvents)
	}
	if s.NetworkEvents == 0 || c.NetworkEvents == 0 {
		t.Error("nw events column empty")
	}
	if s.LogBytes == 0 || c.LogBytes == 0 {
		t.Error("log size column empty")
	}
	if len(progress) == 0 {
		t.Error("no progress reported")
	}

	var buf bytes.Buffer
	srv.Print(&buf)
	out := buf.String()
	if !strings.Contains(out, "#critical events") || !strings.Contains(out, "rec ovhd(%)") {
		t.Errorf("printed table missing headers:\n%s", out)
	}
}

func TestGenerateTable2SmallSweep(t *testing.T) {
	srv, cli, err := GenerateTable2([]int{2}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(srv.Rows) != 1 || len(cli.Rows) != 1 {
		t.Fatalf("rows: server %d, client %d", len(srv.Rows), len(cli.Rows))
	}
	// Open-world critical events are far below closed-world (different
	// workload calibration, §6).
	if srv.Rows[0].CriticalEvents > 100000 {
		t.Errorf("open-world server critical events %d unexpectedly high", srv.Rows[0].CriticalEvents)
	}
	// Open-world logs carry contents: a few hundred bytes at minimum.
	if srv.Rows[0].LogBytes < 200 {
		t.Errorf("open-world server log only %d bytes", srv.Rows[0].LogBytes)
	}
}

func TestGenerateLogSizeSweepShape(t *testing.T) {
	rows, err := GenerateLogSizeSweep(2, []int{64, 1024, 4096})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	// Open-world log grows with message size; closed-world log stays within
	// a small factor.
	if rows[2].OpenLogSize <= rows[0].OpenLogSize*4 {
		t.Errorf("open log grew only %d -> %d across a 64x message-size increase",
			rows[0].OpenLogSize, rows[2].OpenLogSize)
	}
	ratio := float64(rows[2].ClosedLogSize) / float64(rows[0].ClosedLogSize)
	if ratio > 3 {
		t.Errorf("closed log grew %.1fx with message size; should be roughly flat", ratio)
	}
	for _, r := range rows {
		if r.OpenLogSize < r.MsgBytes {
			t.Errorf("open log (%dB) cannot hold even one %dB message", r.OpenLogSize, r.MsgBytes)
		}
	}
}

func TestParamsConnectionDivisibility(t *testing.T) {
	for _, n := range DefaultThreadCounts {
		p := ClosedParams(n)
		if p.totalConnections()%p.Threads != 0 {
			t.Errorf("ClosedParams(%d): %d connections do not divide evenly", n, p.totalConnections())
		}
	}
}

// TestMergeCoreFileReplacesPerWorkload: one label is filled by two djbench
// invocations (the engine-core probes and the -order sweep), so merging a
// label replaces only the workloads the new rows measured.
func TestMergeCoreFileReplacesPerWorkload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "core.json")
	merge := func(label string, rows ...CoreRow) {
		t.Helper()
		if err := MergeCoreFile(path, label, rows, 1); err != nil {
			t.Fatal(err)
		}
	}
	merge("a", CoreRow{Label: "a", Workload: "critical-event", Mode: "record", NsPerOp: 50})
	merge("a", CoreRow{Label: "a", Workload: "disjoint-obj", Mode: "record", Threads: 4, Events: 1})
	merge("b", CoreRow{Label: "b", Workload: "critical-event", Mode: "record", NsPerOp: 40})
	merge("a", CoreRow{Label: "a", Workload: "critical-event", Mode: "record", NsPerOp: 30})

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got CoreReport
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"a/critical-event": 30, "a/disjoint-obj": 0, "b/critical-event": 40}
	if len(got.Rows) != len(want) {
		t.Fatalf("merged file has %d rows, want %d: %+v", len(got.Rows), len(want), got.Rows)
	}
	for _, r := range got.Rows {
		if ns, ok := want[r.Label+"/"+r.Workload]; !ok || ns != r.NsPerOp {
			t.Errorf("unexpected row %+v", r)
		}
	}
}
