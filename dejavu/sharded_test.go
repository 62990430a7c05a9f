package dejavu_test

import (
	"fmt"
	"testing"
	"time"

	"repro/dejavu"
)

// shardedRun exercises the sharded order mode through the public API: one
// node whose worker threads hammer registered shared objects (per-object
// order) while also exchanging stream bytes with a peer (network events stay
// on the global mechanism). Returns an observable digest.
func shardedRun(t *testing.T, mode dejavu.Mode, serverLogs, clientLogs *dejavu.Logs) (string, *dejavu.Node, *dejavu.Node) {
	t.Helper()
	net := dejavu.NewNetwork(dejavu.NetworkConfig{
		Chaos: dejavu.Chaos{ConnectDelayMax: time.Millisecond, MaxSegment: 6},
		Seed:  time.Now().UnixNano(),
	})
	server, err := dejavu.NewNode(dejavu.Config{
		ID: 1, Mode: mode, World: dejavu.ClosedWorld,
		Network: net, Host: "srv", ReplayLogs: serverLogs, RecordJitter: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	client, err := dejavu.NewNode(dejavu.Config{
		ID: 2, Mode: mode, World: dejavu.ClosedWorld,
		Network: net, Host: "cli", ReplayLogs: clientLogs, RecordJitter: 4,
		OrderMode: dejavu.OrderSharded,
	})
	if err != nil {
		t.Fatal(err)
	}
	if client.OrderMode() != dejavu.OrderSharded {
		t.Fatalf("client order mode %v, want sharded", client.OrderMode())
	}

	// Registered before any thread starts, in a fixed order — the objects'
	// identity across record and replay.
	const workers = 3
	var counters [workers]dejavu.SharedInt
	var trail dejavu.SharedVar[string]
	mon := dejavu.NewMonitor()
	client.RegisterObjects(&counters[0], &counters[1], &counters[2], &trail, mon)

	var digest string
	ready := make(chan uint16, 1)
	server.Start(func(main *dejavu.Thread) {
		ss, err := server.Listen(main, 0)
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
		buf := make([]byte, 7)
		if err := conn.ReadFull(main, buf); err != nil {
			t.Error(err)
			return
		}
		digest = string(buf)
		conn.Close(main)
		ss.Close(main)
	})
	port := <-ready
	client.Start(func(main *dejavu.Thread) {
		done := make(chan struct{}, workers)
		for w := 0; w < workers; w++ {
			w := w
			main.Spawn(func(th *dejavu.Thread) {
				defer func() { done <- struct{}{} }()
				for j := 0; j < 50; j++ {
					// Disjoint per-worker counter: pure per-object order.
					counters[w].Set(th, counters[w].Get(th)+1)
					// Contended monitor-protected trail: cross-object order
					// induced through the shared monitor's counter.
					if j%10 == 0 {
						mon.Enter(th)
						trail.Update(th, func(s string) string {
							return s + string(rune('a'+w))
						})
						mon.Exit(th)
					}
				}
			})
		}
		for i := 0; i < workers; i++ {
			<-done
		}
		sum := counters[0].Get(main) + counters[1].Get(main) + counters[2].Get(main)
		conn, err := client.Connect(main, dejavu.Addr{Host: "srv", Port: port})
		if err != nil {
			t.Error(err)
			return
		}
		conn.Write(main, []byte(fmt.Sprintf("sum=%03d", sum)))
		conn.Close(main)
	})
	server.Wait()
	client.Wait()
	server.Close()
	client.Close()
	digest += "|" + trail.Load()
	return digest, server, client
}

// TestShardedFacadeRecordReplay is the facade-level sharded acceptance test:
// a sharded record run replays to the identical digest (network bytes plus
// the monitor-ordered trail), and the shard counters prove the per-object
// path actually ran.
func TestShardedFacadeRecordReplay(t *testing.T) {
	recDigest, srv, cli := shardedRun(t, dejavu.Record, nil, nil)
	if len(recDigest) == 0 || recDigest[:4] != "sum=" {
		t.Fatalf("record digest %q", recDigest)
	}
	shard := cli.Snapshot().Shard
	if shard.FastPath+shard.Contended == 0 {
		t.Error("sharded record counted no per-object events")
	}
	if shard.ObjRuns == 0 {
		t.Error("sharded record flushed no access runs")
	}
	repDigest, _, repCli := shardedRun(t, dejavu.Replay, srv.Logs(), cli.Logs())
	if repDigest != recDigest {
		t.Errorf("replay digest %q, record %q", repDigest, recDigest)
	}
	if s := repCli.Snapshot().Shard; s.FastPath+s.Contended == 0 {
		t.Error("sharded replay counted no per-object events")
	}
}

// TestFinalCounterCountsEveryStream: under OrderSharded the registered
// objects' accesses are critical events on their own streams, outside the
// global counter, and FinalCounter still counts every event the run had.
func TestFinalCounterCountsEveryStream(t *testing.T) {
	_, _, cli := shardedRun(t, dejavu.Record, nil, nil)
	final, err := dejavu.FinalCounter(cli.Logs())
	if err != nil {
		t.Fatal(err)
	}
	snap := cli.Snapshot()
	if snap.Shard.FastPath+snap.Shard.Contended == 0 {
		t.Fatal("sharded record counted no per-object events")
	}
	if final != snap.TotalEvents {
		t.Errorf("FinalCounter %d, snapshot %d critical events", final, snap.TotalEvents)
	}
}

// TestShardedFacadeModeMismatch: replaying a sharded recording on a global
// node must fail at construction with an order-mode error.
func TestShardedFacadeModeMismatch(t *testing.T) {
	_, _, cli := shardedRun(t, dejavu.Record, nil, nil)
	net := dejavu.NewNetwork(dejavu.NetworkConfig{})
	_, err := dejavu.NewNode(dejavu.Config{
		ID: 2, Mode: dejavu.Replay, World: dejavu.ClosedWorld,
		Network: net, Host: "cli", ReplayLogs: cli.Logs(),
	})
	if err == nil {
		t.Fatal("global replay of a sharded recording was accepted")
	}
}
