package dejavu_test

import (
	"path/filepath"
	"testing"
	"time"

	"repro/dejavu"
)

// appRun exercises threads, shared variables, monitors, stream sockets, and
// datagram sockets through the public API on two nodes, returning an
// observable digest.
func appRun(t *testing.T, mode dejavu.Mode, serverLogs, clientLogs *dejavu.Logs) (string, *dejavu.Node, *dejavu.Node) {
	t.Helper()
	net := dejavu.NewNetwork(dejavu.NetworkConfig{
		Chaos: dejavu.Chaos{ConnectDelayMax: time.Millisecond, MaxSegment: 6},
		Seed:  time.Now().UnixNano(),
	})
	mk := func(id dejavu.DJVMID, host string, logs *dejavu.Logs) *dejavu.Node {
		node, err := dejavu.NewNode(dejavu.Config{
			ID: id, Mode: mode, World: dejavu.ClosedWorld,
			Network: net, Host: host, ReplayLogs: logs, RecordJitter: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return node
	}
	server := mk(1, "srv", serverLogs)
	client := mk(2, "cli", clientLogs)

	var digest string
	ready := make(chan uint16, 1)
	server.Start(func(main *dejavu.Thread) {
		ss, err := server.Listen(main, 0)
		if err != nil {
			t.Error(err)
			return
		}
		dg, err := server.BindDatagram(main, 4000)
		if err != nil {
			t.Error(err)
			return
		}
		ready <- ss.Port()
		conn, err := ss.Accept(main)
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 5)
		if err := conn.ReadFull(main, buf); err != nil {
			t.Error(err)
			return
		}
		pkt, _, err := dg.Receive(main)
		if err != nil {
			t.Error(err)
			return
		}
		digest = string(buf) + "|" + string(pkt)
		conn.Close(main)
		dg.Close(main)
		ss.Close(main)
	})
	port := <-ready
	client.Start(func(main *dejavu.Thread) {
		var x dejavu.SharedInt
		mon := dejavu.NewMonitor()
		done := make(chan struct{}, 2)
		for i := 0; i < 2; i++ {
			main.Spawn(func(th *dejavu.Thread) {
				defer func() { done <- struct{}{} }()
				for j := 0; j < 100; j++ {
					mon.Enter(th)
					x.Set(th, x.Get(th)+1)
					mon.Exit(th)
				}
			})
		}
		<-done
		<-done
		conn, err := client.Connect(main, dejavu.Addr{Host: "srv", Port: port})
		if err != nil {
			t.Error(err)
			return
		}
		conn.Write(main, []byte("hello"))
		dg, err := client.BindDatagram(main, 0)
		if err != nil {
			t.Error(err)
			return
		}
		dg.SendTo(main, dejavu.Addr{Host: "srv", Port: 4000}, []byte("gram"))
		conn.Close(main)
		dg.Close(main)
	})
	server.Wait()
	client.Wait()
	server.Close()
	client.Close()
	return digest, server, client
}

func TestPublicAPIRecordReplay(t *testing.T) {
	recDigest, srv, cli := appRun(t, dejavu.Record, nil, nil)
	if recDigest != "hello|gram" {
		t.Fatalf("record digest %q", recDigest)
	}
	repDigest, _, _ := appRun(t, dejavu.Replay, srv.Logs(), cli.Logs())
	if repDigest != recDigest {
		t.Errorf("replay digest %q, record %q", repDigest, recDigest)
	}
}

func TestSaveAndLoadLogs(t *testing.T) {
	_, srv, _ := appRun(t, dejavu.Record, nil, nil)
	dir := filepath.Join(t.TempDir(), "srv-logs")
	if err := srv.SaveLogs(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := dejavu.LoadLogs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.TotalSize() != srv.Logs().TotalSize() {
		t.Errorf("loaded %d bytes, saved %d", loaded.TotalSize(), srv.Logs().TotalSize())
	}
}

func TestReplayFromDiskLogs(t *testing.T) {
	// Record, persist the logs to disk, load them back, and replay from the
	// loaded sets: the on-disk format must carry everything replay needs.
	recDigest, srv, cli := appRun(t, dejavu.Record, nil, nil)
	dir := t.TempDir()
	if err := srv.SaveLogs(filepath.Join(dir, "srv")); err != nil {
		t.Fatal(err)
	}
	if err := cli.SaveLogs(filepath.Join(dir, "cli")); err != nil {
		t.Fatal(err)
	}
	srvLogs, err := dejavu.LoadLogs(filepath.Join(dir, "srv"))
	if err != nil {
		t.Fatal(err)
	}
	cliLogs, err := dejavu.LoadLogs(filepath.Join(dir, "cli"))
	if err != nil {
		t.Fatal(err)
	}
	repDigest, _, _ := appRun(t, dejavu.Replay, srvLogs, cliLogs)
	if repDigest != recDigest {
		t.Errorf("disk-round-trip replay digest %q, record %q", repDigest, recDigest)
	}
}

func TestNodeConfigValidation(t *testing.T) {
	if _, err := dejavu.NewNode(dejavu.Config{Host: "h"}); err == nil {
		t.Error("node without network accepted")
	}
	net := dejavu.NewNetwork(dejavu.NetworkConfig{})
	if _, err := dejavu.NewNode(dejavu.Config{Network: net}); err == nil {
		t.Error("node without host accepted")
	}
	if _, err := dejavu.NewNode(dejavu.Config{Network: net, Host: "h", Mode: dejavu.Replay}); err == nil {
		t.Error("replay node without logs accepted")
	}
}

func TestFacadeAccessors(t *testing.T) {
	net := dejavu.NewNetwork(dejavu.NetworkConfig{})
	node, err := dejavu.NewNode(dejavu.Config{ID: 44, Mode: dejavu.Record, Network: net, Host: "acc"})
	if err != nil {
		t.Fatal(err)
	}
	if node.ID() != 44 || node.Mode() != dejavu.Record || node.Host() != "acc" || node.OrderMode() != dejavu.OrderGlobal {
		t.Error("node identity accessors wrong")
	}
	bar := dejavu.NewBarrier(2)
	var x dejavu.SharedInt
	node.Start(func(main *dejavu.Thread) {
		other := main.Spawn(func(th *dejavu.Thread) {
			bar.Await(th)
			x.Add(th, 1)
		})
		bar.Await(main)
		x.Add(main, 1)
		main.Join(other)
	})
	node.Wait()
	node.Close()
	if x.Load() != 2 {
		t.Errorf("barrier app final %d, want 2", x.Load())
	}
	snap := node.Snapshot()
	if snap.TotalEvents == 0 || snap.NetworkEvents != 0 {
		t.Errorf("snapshot after run: %d events, %d network events; want some and none", snap.TotalEvents, snap.NetworkEvents)
	}
	final, err := dejavu.FinalCounter(node.Logs())
	if err != nil {
		t.Fatal(err)
	}
	if final != snap.TotalEvents {
		t.Errorf("FinalCounter %d, snapshot %d", final, snap.TotalEvents)
	}
}

// TestReplayPastTheRecordingDiverges: a replaying thread that attempts a
// critical event the recording never had panics with a *DivergenceError
// naming its node.
func TestReplayPastTheRecordingDiverges(t *testing.T) {
	rec, err := dejavu.NewNode(dejavu.Config{ID: 12, Mode: dejavu.Record, Network: dejavu.NewNetwork(dejavu.NetworkConfig{}), Host: "h"})
	if err != nil {
		t.Fatal(err)
	}
	var x dejavu.SharedInt
	rec.Start(func(main *dejavu.Thread) { x.Set(main, 1) })
	rec.Wait()
	rec.Close()

	rep, err := dejavu.NewNode(dejavu.Config{
		ID: 12, Mode: dejavu.Replay, Network: dejavu.NewNetwork(dejavu.NetworkConfig{}),
		Host: "h", ReplayLogs: rec.Logs(),
	})
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan any, 1)
	rep.Start(func(main *dejavu.Thread) {
		defer func() { got <- recover() }()
		x.Set(main, 1)
		x.Set(main, 2) // one event past the recording
	})
	r := <-got
	if div, ok := r.(*dejavu.DivergenceError); !ok || div.VM != 12 {
		t.Fatalf("recovered %v (%T), want a *DivergenceError of vm 12", r, r)
	}
}

func TestPassthroughNodeHasNoLogs(t *testing.T) {
	net := dejavu.NewNetwork(dejavu.NetworkConfig{})
	node, err := dejavu.NewNode(dejavu.Config{ID: 5, Mode: dejavu.Passthrough, Network: net, Host: "h"})
	if err != nil {
		t.Fatal(err)
	}
	node.Start(func(*dejavu.Thread) {})
	node.Wait()
	node.Close()
	if node.Logs() != nil {
		t.Error("passthrough node has logs")
	}
	if err := node.SaveLogs(t.TempDir()); err == nil {
		t.Error("SaveLogs on passthrough node succeeded")
	}
}

func TestCheckpointThroughFacade(t *testing.T) {
	net := dejavu.NewNetwork(dejavu.NetworkConfig{})
	rec, err := dejavu.NewNode(dejavu.Config{ID: 9, Mode: dejavu.Record, Network: net, Host: "h"})
	if err != nil {
		t.Fatal(err)
	}
	var x dejavu.SharedInt
	rec.Start(func(main *dejavu.Thread) {
		x.Set(main, 41)
		dejavu.CheckpointTake(main, func() []byte { return []byte{41} })
		x.Set(main, 42)
	})
	rec.Wait()
	rec.Close()

	snap, err := dejavu.CheckpointLatest(rec.Logs())
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Data) != 1 || snap.Data[0] != 41 {
		t.Fatalf("snapshot data %v", snap.Data)
	}

	rep, err := dejavu.NewNode(dejavu.Config{
		ID: 9, Mode: dejavu.Replay, Network: dejavu.NewNetwork(dejavu.NetworkConfig{}),
		Host: "h", ReplayLogs: rec.Logs(), Resume: &snap.Resume,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep.Start(func(main *dejavu.Thread) {
		x.Restore(int64(snap.Data[0]))
		x.Set(main, 42) // the only post-checkpoint event
	})
	rep.Wait()
	rep.Close()
}
