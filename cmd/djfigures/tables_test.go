package main

import (
	"bytes"
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
	// The open-world client logs every response it reads, so its content log
	// grows by at least the added response bytes. The closed-world client
	// logs counters and read sizes only: across the sweep it grows by less
	// than one message of the smallest size (a read size's varint widens).
	conns := OpenParams(2).totalConnections()
	for _, r := range rows[1:] {
		added := (r.MsgBytes - rows[0].MsgBytes) * conns
		if grew := r.OpenLogSize - rows[0].OpenLogSize; grew < added {
			t.Errorf("open log grew %dB (%d -> %d) at msg=%d; the client read %dB more",
				grew, rows[0].OpenLogSize, r.OpenLogSize, r.MsgBytes, added)
		}
		if grew := r.ClosedLogSize - rows[0].ClosedLogSize; grew >= rows[0].MsgBytes {
			t.Errorf("closed log grew %dB (%d -> %d) at msg=%d; it holds no message contents",
				grew, rows[0].ClosedLogSize, r.ClosedLogSize, r.MsgBytes)
		}
	}
	if rows[0].ClosedLogSize == 0 {
		t.Error("closed client logged no network or datagram records")
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
