package dejavu_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/dejavu"
	"repro/internal/tracelog"
)

// obsEchoWorld runs a two-node echo application and returns both nodes; each
// prep function is applied to both nodes before they start.
func obsEchoWorld(t *testing.T, mode dejavu.Mode, serverLogs, clientLogs *dejavu.Logs, prep ...func(*dejavu.Node) error) (server, client *dejavu.Node) {
	t.Helper()
	net := dejavu.NewNetwork(dejavu.NetworkConfig{
		Chaos: dejavu.Chaos{DeliverDelayMax: 100 * time.Microsecond, MaxSegment: 4},
		Seed:  42,
	})
	mk := func(id dejavu.DJVMID, host string, logs *dejavu.Logs) *dejavu.Node {
		node, err := dejavu.NewNode(dejavu.Config{
			ID: id, Mode: mode, World: dejavu.ClosedWorld,
			Network: net, Host: host, ReplayLogs: logs, RecordJitter: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range prep {
			if err := p(node); err != nil {
				t.Fatal(err)
			}
		}
		return node
	}
	server = mk(41, "srv", serverLogs)
	client = mk(42, "cli", clientLogs)

	port := make(chan uint16, 1)
	server.Start(func(main *dejavu.Thread) {
		ss, err := server.Listen(main, 0)
		if err != nil {
			t.Error(err)
			return
		}
		port <- ss.Port()
		conn, err := ss.Accept(main)
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 8)
		if err := conn.ReadFull(main, buf); err != nil {
			t.Error(err)
			return
		}
		if _, err := conn.Write(main, buf); err != nil {
			t.Error(err)
		}
		conn.Close(main)
	})
	client.Start(func(main *dejavu.Thread) {
		var shared dejavu.SharedInt
		for i := 0; i < 20; i++ {
			shared.Add(main, 1)
		}
		conn, err := client.Connect(main, dejavu.Addr{Host: "srv", Port: <-port})
		if err != nil {
			t.Error(err)
			return
		}
		msg := []byte("ping-msg")
		if _, err := conn.Write(main, msg); err != nil {
			t.Error(err)
			return
		}
		echo := make([]byte, len(msg))
		if err := conn.ReadFull(main, echo); err != nil {
			t.Error(err)
			return
		}
		if string(echo) != string(msg) {
			t.Errorf("echo %q, want %q", echo, msg)
		}
		conn.Close(main)
	})
	server.Wait()
	client.Wait()
	server.Close()
	client.Close()
	return server, client
}

// TestNodeSnapshotRecordReplayCounts is the facade-level integration check:
// per-kind obs counts of a distributed record run equal the replayed run's,
// including the socket kind the core-level test cannot produce.
func TestNodeSnapshotRecordReplayCounts(t *testing.T) {
	recSrv, recCli := obsEchoWorld(t, dejavu.Record, nil, nil)
	rs, rc := recSrv.Snapshot(), recCli.Snapshot()
	if rs.Events.Socket == 0 || rc.Events.Socket == 0 {
		t.Fatalf("echo world produced no socket events: server %+v client %+v", rs.Events, rc.Events)
	}
	if rc.Events.Shared == 0 {
		t.Fatalf("client recorded no shared events: %+v", rc.Events)
	}
	if rs.NetworkEvents == 0 {
		t.Error("server counted no network events")
	}
	if rs.Logs.TotalBytes() == 0 {
		t.Error("record run logged no bytes")
	}

	repSrv, repCli := obsEchoWorld(t, dejavu.Replay, recSrv.Logs(), recCli.Logs())
	if got := repSrv.Snapshot(); got.Events != rs.Events {
		t.Errorf("server per-kind counts diverged:\nrecord %+v\nreplay %+v", rs.Events, got.Events)
	}
	if got := repCli.Snapshot(); got.Events != rc.Events {
		t.Errorf("client per-kind counts diverged:\nrecord %+v\nreplay %+v", rc.Events, got.Events)
	}
	if pct := repSrv.Snapshot().Replay.Percent(); pct != 100 {
		t.Errorf("server replay finished at %.1f%%", pct)
	}
}

// TestCausalHooksReachTheLog: nodes recorded with the one causal-tracing
// call log both kinds of annotation — the net spans and wall anchors
// `djtrace -perfetto` and `-critpath` read back from saved logs — and nodes
// recorded without it log neither.
func TestCausalHooksReachTheLog(t *testing.T) {
	srv, cli := obsEchoWorld(t, dejavu.Record, nil, nil,
		func(n *dejavu.Node) error { return n.EnableCausalTrace() })
	for _, n := range []*dejavu.Node{srv, cli} {
		if c := n.Snapshot().Causal; c.NetSpans == 0 || c.Timestamps == 0 {
			t.Errorf("node %d traced: %d net spans, %d timestamps; want both > 0", n.ID(), c.NetSpans, c.Timestamps)
		}
	}
	srv, cli = obsEchoWorld(t, dejavu.Record, nil, nil)
	for _, n := range []*dejavu.Node{srv, cli} {
		if c := n.Snapshot().Causal; c.NetSpans != 0 || c.Timestamps != 0 {
			t.Errorf("node %d untraced: %d net spans, %d timestamps; want none", n.ID(), c.NetSpans, c.Timestamps)
		}
	}
}

// TestNodeSnapshotReadsItsLogs: what a node's snapshot reports of its logs —
// bytes and records per log, intervals, wall anchors, net spans, WAL fsyncs —
// is what the logs and the WAL writer hold, in a traced, durable record run
// of the echo world.
func TestNodeSnapshotReadsItsLogs(t *testing.T) {
	dir := t.TempDir()
	srv, cli := obsEchoWorld(t, dejavu.Record, nil, nil,
		func(n *dejavu.Node) error {
			return n.EnableWAL(filepath.Join(dir, fmt.Sprintf("%d.wal", n.ID())), dejavu.WALOptions{SyncEvery: 4})
		},
		func(n *dejavu.Node) error { return n.EnableCausalTrace() })
	for _, n := range []*dejavu.Node{srv, cli} {
		s, logs := n.Snapshot(), n.Logs()
		kinds := map[tracelog.Kind]uint64{}
		for _, l := range []*tracelog.Log{logs.Schedule, logs.Network, logs.Datagram} {
			if err := l.Each(func(e tracelog.Entry) error {
				kinds[e.Kind()]++
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		_, syncs := logs.WAL().Stats()
		want := []uint64{uint64(logs.Schedule.Size()), uint64(logs.Network.Len()), kinds[tracelog.KindInterval],
			kinds[tracelog.KindTimestamp], kinds[tracelog.KindNetSpan], syncs}
		got := []uint64{s.Logs.Schedule.Bytes, s.Logs.Network.Appends, s.Intervals,
			s.Causal.Timestamps, s.Causal.NetSpans, s.Faults.WALSyncs}
		if fmt.Sprint(got) != fmt.Sprint(want) || s.Causal.NetSpans == 0 || s.Faults.WALSyncs == 0 {
			t.Errorf("node %d: schedule bytes, network records, intervals, timestamps, net spans, fsyncs: snapshot %v, logs %v",
				n.ID(), got, want)
		}
	}
}

// TestNodeServeMetrics serves a node's metrics over HTTP the way djstat
// consumes them and checks the JSON decodes back into an identical snapshot.
func TestNodeServeMetrics(t *testing.T) {
	srv, _ := obsEchoWorld(t, dejavu.Record, nil, nil)

	addr, stop, err := srv.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get("http://" + addr + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var got dejavu.Snapshot
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("endpoint did not serve a snapshot: %v", err)
	}
	want := srv.Snapshot()
	if got.Events != want.Events || got.TotalEvents != want.TotalEvents || got.Logs != want.Logs {
		t.Errorf("served snapshot differs:\ngot  %+v\nwant %+v", got.Events, want.Events)
	}

	var report strings.Builder
	stopRep := srv.StartReporter(&report, time.Hour)
	stopRep()
	if !strings.Contains(report.String(), "events") {
		t.Errorf("reporter wrote nothing useful:\n%s", report.String())
	}
}

// TestNodeSnapshotWhileFrozen: a node stopped inside its critical section —
// an EventObserver used as a breakpoint — still answers Snapshot at once, and
// exactly: the debugger that set the breakpoint reads where it stopped.
func TestNodeSnapshotWhileFrozen(t *testing.T) {
	const at = 12
	frozen, release := make(chan struct{}), make(chan struct{})
	node, err := dejavu.NewNode(dejavu.Config{
		ID: 43, Mode: dejavu.Record, World: dejavu.ClosedWorld,
		Network: dejavu.NewNetwork(dejavu.NetworkConfig{Seed: 1}), Host: "solo",
		EventObserver: func(_ dejavu.ThreadNum, gc dejavu.GCount) {
			if gc == at {
				close(frozen)
				<-release
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	node.Start(func(main *dejavu.Thread) {
		var shared dejavu.SharedInt
		for i := 0; i <= at; i++ {
			shared.Add(main, 1)
		}
	})
	<-frozen
	got := make(chan dejavu.Snapshot, 1)
	go func() { got <- node.Snapshot() }()
	select {
	case s := <-got:
		if s.TotalEvents != at || s.Replay.CurrentGC != at {
			t.Errorf("frozen inside event %d: TotalEvents %d, CurrentGC %d", at, s.TotalEvents, s.Replay.CurrentGC)
		}
	case <-time.After(100 * time.Millisecond):
		t.Error("Snapshot waits for the critical section")
	}
	close(release)
	node.Wait()
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
}
