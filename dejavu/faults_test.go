package dejavu_test

import (
	"errors"
	"testing"
	"time"

	"repro/dejavu"
)

// TestCrashedPeerResetsARecordedStream: a recorded read on a stream whose
// peer's host crashed fails with dejavu.ErrReset. Its replay, which touches
// no network, re-throws the recorded failure as a *ReplayedError with the
// same message: not ErrReset, and no divergence.
func TestCrashedPeerResetsARecordedStream(t *testing.T) {
	net := dejavu.NewNetwork(dejavu.NetworkConfig{Seed: 1})
	srv, err := dejavu.NewNode(dejavu.Config{ID: 2, Mode: dejavu.Passthrough, World: dejavu.OpenWorld, Network: net, Host: "srv"})
	if err != nil {
		t.Fatal(err)
	}
	ready, accepted := make(chan uint16, 1), make(chan struct{})
	srv.Start(func(main *dejavu.Thread) {
		ss, err := srv.Listen(main, 0)
		if err != nil {
			t.Error(err)
			close(ready)
			return
		}
		ready <- ss.Port()
		if _, err := ss.Accept(main); err != nil {
			t.Error(err)
		}
		close(accepted)
	})
	port := <-ready
	read := func(mode dejavu.Mode, logs *dejavu.Logs, crash func()) (*dejavu.Node, error) {
		node, err := dejavu.NewNode(dejavu.Config{ID: 1, Mode: mode, World: dejavu.OpenWorld, Network: net, Host: "cli", ReplayLogs: logs})
		if err != nil {
			t.Fatal(err)
		}
		var readErr error
		node.Start(func(main *dejavu.Thread) {
			conn, err := node.Connect(main, dejavu.Addr{Host: "srv", Port: port})
			if err != nil {
				t.Error(err)
				return
			}
			crash()
			_, readErr = conn.Read(main, make([]byte, 8))
		})
		node.Wait()
		if err := node.Close(); err != nil {
			t.Fatal(err)
		}
		return node, readErr
	}
	rec, recErr := read(dejavu.Record, nil, func() {
		<-accepted
		net.CrashHost("srv")
	})
	srv.Wait()
	srv.Close()
	if !errors.Is(recErr, dejavu.ErrReset) {
		t.Fatalf("recorded read on a crashed peer = %v, want dejavu.ErrReset", recErr)
	}
	_, repErr := read(dejavu.Replay, rec.Logs(), func() {})
	var replayed *dejavu.ReplayedError
	if !errors.As(repErr, &replayed) || replayed.Msg != recErr.Error() || errors.Is(repErr, dejavu.ErrReset) || errors.Is(repErr, dejavu.ErrDiverged) {
		t.Fatalf("replayed read = %v; want the recorded failure %q re-thrown, matching neither ErrReset nor ErrDiverged", repErr, recErr)
	}
}

// TestReplayToACrashedPeerIsUnreachable: a closed-world replay re-sends a
// recorded datagram over rudp; once the peer's host has crashed and the
// retry budget is spent, the next replayed send fails with an error that
// matches both dejavu.ErrDiverged and dejavu.ErrPeerUnreachable.
func TestReplayToACrashedPeerIsUnreachable(t *testing.T) {
	run := func(mode dejavu.Mode, logs [2]*dejavu.Logs) ([2]*dejavu.Node, error) {
		net := dejavu.NewNetwork(dejavu.NetworkConfig{Seed: 1})
		var nodes [2]*dejavu.Node
		for i, host := range []string{"a", "b"} {
			node, err := dejavu.NewNode(dejavu.Config{ID: dejavu.DJVMID(i + 1), Mode: mode, World: dejavu.ClosedWorld, Network: net, Host: host, ReplayLogs: logs[i]})
			if err != nil {
				t.Fatal(err)
			}
			nodes[i] = node
		}
		a, b := nodes[0], nodes[1]
		bound := make(chan struct{})
		b.Start(func(main *dejavu.Thread) {
			dg, err := b.BindDatagram(main, 4000)
			close(bound)
			if err != nil {
				t.Error(err)
				return
			}
			if mode == dejavu.Replay {
				net.CrashHost("b")
				return
			}
			for range 2 {
				if _, _, err := dg.Receive(main); err != nil {
					t.Error(err)
				}
			}
			dg.Close(main)
		})
		<-bound
		var sendErr error
		a.Start(func(main *dejavu.Thread) {
			dg, err := a.BindDatagram(main, 0)
			if err != nil {
				t.Error(err)
				return
			}
			dg.SendTo(main, dejavu.Addr{Host: "b", Port: 4000}, []byte("first"))
			for mode == dejavu.Replay && a.Snapshot().Faults.PeerUnreachable == 0 {
				time.Sleep(10 * time.Millisecond)
			}
			sendErr = dg.SendTo(main, dejavu.Addr{Host: "b", Port: 4000}, []byte("second"))
		})
		for _, node := range nodes {
			node.Wait()
			node.Close()
		}
		return nodes, sendErr
	}
	rec, err := run(dejavu.Record, [2]*dejavu.Logs{})
	if err != nil {
		t.Fatalf("recorded send: %v", err)
	}
	_, err = run(dejavu.Replay, [2]*dejavu.Logs{rec[0].Logs(), rec[1].Logs()})
	if !errors.Is(err, dejavu.ErrPeerUnreachable) || !errors.Is(err, dejavu.ErrDiverged) {
		t.Fatalf("replayed send to a crashed peer = %v, want dejavu.ErrPeerUnreachable and dejavu.ErrDiverged", err)
	}
}
