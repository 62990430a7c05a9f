package dejavu_test

import (
	"bytes"
	"errors"
	"fmt"

	"repro/dejavu"
)

// Example records a racy two-thread execution and replays it, demonstrating
// the minimal record/replay round trip.
func Example() {
	program := func(node *dejavu.Node) int64 {
		var counter dejavu.SharedInt
		node.Start(func(main *dejavu.Thread) {
			done := make(chan struct{}, 2)
			for i := 0; i < 2; i++ {
				main.Spawn(func(t *dejavu.Thread) {
					defer func() { done <- struct{}{} }()
					for j := 0; j < 100; j++ {
						counter.Set(t, counter.Get(t)+1) // racy increment
					}
				})
			}
			<-done
			<-done
		})
		node.Wait()
		node.Close()
		return counter.Load()
	}

	net := dejavu.NewNetwork(dejavu.NetworkConfig{})
	rec, _ := dejavu.NewNode(dejavu.Config{
		ID: 1, Mode: dejavu.Record, Network: net, Host: "demo", RecordJitter: 4,
	})
	recorded := program(rec)

	rep, _ := dejavu.NewNode(dejavu.Config{
		ID: 1, Mode: dejavu.Replay, Network: dejavu.NewNetwork(dejavu.NetworkConfig{}),
		Host: "demo", ReplayLogs: rec.Logs(),
	})
	replayed := program(rep)

	fmt.Println("replay reproduced the recorded outcome:", recorded == replayed)
	// Output: replay reproduced the recorded outcome: true
}

// ExampleMonitor shows Java-monitor style synchronization with wait/notify.
func ExampleMonitor() {
	net := dejavu.NewNetwork(dejavu.NetworkConfig{})
	node, _ := dejavu.NewNode(dejavu.Config{ID: 1, Mode: dejavu.Record, Network: net, Host: "m"})

	mon := dejavu.NewMonitor()
	var mailbox dejavu.SharedVar[string]
	node.Start(func(main *dejavu.Thread) {
		done := make(chan struct{})
		main.Spawn(func(t *dejavu.Thread) {
			defer close(done)
			mon.Enter(t)
			for mailbox.Get(t) == "" {
				mon.Wait(t)
			}
			fmt.Println("received:", mailbox.Get(t))
			mon.Exit(t)
		})
		mon.Enter(main)
		mailbox.Set(main, "hello")
		mon.Notify(main)
		mon.Exit(main)
		<-done
	})
	node.Wait()
	node.Close()
	// Output: received: hello
}

// ExampleNode_Connect shows a deterministic client/server exchange between
// two nodes on one simulated network.
func ExampleNode_Connect() {
	net := dejavu.NewNetwork(dejavu.NetworkConfig{})
	server, _ := dejavu.NewNode(dejavu.Config{ID: 1, Mode: dejavu.Record, Network: net, Host: "srv"})
	client, _ := dejavu.NewNode(dejavu.Config{ID: 2, Mode: dejavu.Record, Network: net, Host: "cli"})

	ready := make(chan uint16, 1)
	server.Start(func(main *dejavu.Thread) {
		ss, _ := server.Listen(main, 0)
		ready <- ss.Port()
		conn, _ := ss.Accept(main)
		buf := make([]byte, 4)
		conn.ReadFull(main, buf)
		conn.Write(main, append([]byte("re:"), buf...))
		conn.Close(main)
	})
	port := <-ready

	client.Start(func(main *dejavu.Thread) {
		conn, _ := client.Connect(main, dejavu.Addr{Host: "srv", Port: port})
		conn.Write(main, []byte("ping"))
		reply := make([]byte, 7)
		conn.ReadFull(main, reply)
		fmt.Println(string(reply))
		conn.Close(main)
	})
	server.Wait()
	client.Wait()
	server.Close()
	client.Close()
	// Output: re:ping
}

// ExampleNode_NewRPCServer shows a replayable remote call, and the
// RemoteError a call to a method the server does not handle returns.
func ExampleNode_NewRPCServer() {
	net := dejavu.NewNetwork(dejavu.NetworkConfig{})
	server, _ := dejavu.NewNode(dejavu.Config{ID: 1, Mode: dejavu.Record, Network: net, Host: "srv"})
	client, _ := dejavu.NewNode(dejavu.Config{ID: 2, Mode: dejavu.Record, Network: net, Host: "cli"})

	srv := server.NewRPCServer()
	srv.Handle("greet", func(t *dejavu.Thread, body []byte) ([]byte, error) {
		return append([]byte("hello, "), body...), nil
	})
	ready := make(chan uint16, 1)
	server.Start(func(main *dejavu.Thread) {
		ss, _ := server.Listen(main, 0)
		ready <- ss.Port()
		srv.Serve(main, ss, 2)
	})
	port := <-ready

	client.Start(func(main *dejavu.Thread) {
		cl := client.NewRPCClient(dejavu.Addr{Host: "srv", Port: port})
		out, _ := cl.Call(main, "greet", []byte("world"))
		fmt.Println(string(out))
		_, err := cl.Call(main, "shout", nil)
		var remote *dejavu.RemoteError
		if errors.As(err, &remote) {
			fmt.Println("remote error from", remote.Method+":", remote.Msg)
		}
	})
	server.Wait()
	client.Wait()
	server.Close()
	client.Close()
	// Output:
	// hello, world
	// remote error from shout: djrpc: unknown method
}

// ExampleConfig_worlds records a client that talks to a DJVM server and to an
// echo service outside DJVM control, then replays both DJVM nodes with the
// echo service gone. In the open world the client logs every byte it reads,
// so replay serves both legs from its log. In the mixed world each DJVM node
// names the other in DJVMPeers: that leg keeps the closed-world scheme, logs
// no content and replays against the server's own replay, while the echo leg
// is still served from the log.
func ExampleConfig_worlds() {
	const replyLen = 1024
	reply := bytes.Repeat([]byte("dj"), replyLen/2)
	program := func(world dejavu.World, mode dejavu.Mode, srvLogs, cliLogs *dejavu.Logs) (string, *dejavu.Node, *dejavu.Node) {
		net := dejavu.NewNetwork(dejavu.NetworkConfig{})
		const echoPort = 7
		if mode == dejavu.Record {
			echo, _ := dejavu.NewNode(dejavu.Config{ID: 9, Mode: dejavu.Passthrough, Network: net, Host: "echo"})
			up := make(chan struct{})
			echo.Start(func(main *dejavu.Thread) {
				ss, _ := echo.Listen(main, echoPort)
				close(up)
				conn, _ := ss.Accept(main)
				buf := make([]byte, 5)
				conn.ReadFull(main, buf)
				conn.Write(main, bytes.ToUpper(buf))
				conn.Close(main)
			})
			<-up
		}
		node := func(id dejavu.DJVMID, host, peer string, logs *dejavu.Logs) *dejavu.Node {
			cfg := dejavu.Config{ID: id, Mode: mode, World: world, Network: net, Host: host, ReplayLogs: logs}
			if world == dejavu.MixedWorld {
				cfg.DJVMPeers = []string{peer}
			}
			n, _ := dejavu.NewNode(cfg)
			return n
		}
		srv, cli := node(1, "djserver", "client", srvLogs), node(2, "client", "djserver", cliLogs)

		ready := make(chan uint16, 1)
		srv.Start(func(main *dejavu.Thread) {
			ss, _ := srv.Listen(main, 0)
			ready <- ss.Port()
			conn, _ := ss.Accept(main)
			conn.ReadFull(main, make([]byte, 4))
			conn.Write(main, reply)
			conn.Close(main)
		})
		port := <-ready
		var replies string
		cli.Start(func(main *dejavu.Thread) {
			for _, leg := range []struct {
				to      dejavu.Addr
				request string
				n       int
			}{
				{dejavu.Addr{Host: "djserver", Port: port}, "ping", replyLen},
				{dejavu.Addr{Host: "echo", Port: echoPort}, "mixed", 5},
			} {
				conn, _ := cli.Connect(main, leg.to)
				conn.Write(main, []byte(leg.request))
				buf := make([]byte, leg.n)
				conn.ReadFull(main, buf)
				replies += string(buf) + "|"
				conn.Close(main)
			}
		})
		srv.Wait()
		cli.Wait()
		srv.Close()
		cli.Close()
		return replies, srv, cli
	}

	for _, world := range []dejavu.World{dejavu.OpenWorld, dejavu.MixedWorld} {
		recorded, srv, cli := program(world, dejavu.Record, nil, nil)
		replayed, _, _ := program(world, dejavu.Replay, srv.Logs(), cli.Logs())
		fmt.Printf("%v world: replay without the echo service reproduced both replies: %v\n", world, replayed == recorded)
		fmt.Printf("%v world: the DJVM server's reply is in the client's log: %v\n", world, cli.Logs().TotalSize() > replyLen)
	}
	// Output:
	// open world: replay without the echo service reproduced both replies: true
	// open world: the DJVM server's reply is in the client's log: true
	// mixed world: replay without the echo service reproduced both replies: true
	// mixed world: the DJVM server's reply is in the client's log: false
}

// ExampleCheckpointTake shows bounding replay time with a checkpoint.
func ExampleCheckpointTake() {
	var acc dejavu.SharedInt
	program := func(node *dejavu.Node, fromPhase int, restored int64) {
		node.Start(func(main *dejavu.Thread) {
			if fromPhase > 0 {
				acc.Restore(restored)
			}
			for phase := fromPhase; phase < 3; phase++ {
				acc.Set(main, acc.Get(main)+100)
				snapshot := acc.Get(main)
				dejavu.CheckpointTake(main, func() []byte { return []byte{byte(snapshot / 100)} })
			}
		})
		node.Wait()
		node.Close()
	}

	net := dejavu.NewNetwork(dejavu.NetworkConfig{})
	rec, _ := dejavu.NewNode(dejavu.Config{ID: 1, Mode: dejavu.Record, Network: net, Host: "cp"})
	program(rec, 0, 0)
	final := acc.Load()

	snaps, _ := dejavu.Checkpoints(rec.Logs())
	mid := snaps[1] // resume after phase 2
	rep, _ := dejavu.NewNode(dejavu.Config{
		ID: 1, Mode: dejavu.Replay, Network: dejavu.NewNetwork(dejavu.NetworkConfig{}),
		Host: "cp", ReplayLogs: rec.Logs(), Resume: &mid.Resume,
	})
	program(rep, int(mid.Data[0]), int64(mid.Data[0])*100)

	fmt.Println("resumed replay reaches the recorded final state:", acc.Load() == final)
	// Output: resumed replay reaches the recorded final state: true
}

// ExampleReplayedError shows the two errors a replaying network operation can
// hand the application that a recording one cannot: a connect refused while
// recording is refused again during replay — by the log, the network is not
// asked — and an operation the recording never performed is a divergence.
func ExampleReplayedError() {
	var done dejavu.SharedInt
	program := func(node *dejavu.Node, extraListen bool) {
		node.Start(func(main *dejavu.Thread) {
			_, err := node.Connect(main, dejavu.Addr{Host: "nowhere", Port: 80})
			var replayed *dejavu.ReplayedError
			if errors.As(err, &replayed) {
				fmt.Println("replay re-threw the recorded failure of:", replayed.Op)
			} else {
				fmt.Println("connect failed while recording:", err != nil)
			}
			if extraListen {
				_, err := node.Listen(main, 0)
				fmt.Println("an unrecorded listen diverges:", errors.Is(err, dejavu.ErrDiverged))
			}
			done.Set(main, 1)
		})
		node.Wait()
		node.Close()
	}

	rec, _ := dejavu.NewNode(dejavu.Config{
		ID: 1, Mode: dejavu.Record, Network: dejavu.NewNetwork(dejavu.NetworkConfig{}), Host: "cli",
	})
	program(rec, false)

	rep, _ := dejavu.NewNode(dejavu.Config{
		ID: 1, Mode: dejavu.Replay, Network: dejavu.NewNetwork(dejavu.NetworkConfig{}),
		Host: "cli", ReplayLogs: rec.Logs(),
	})
	program(rep, true)
	// Output:
	// connect failed while recording: true
	// replay re-threw the recorded failure of: connect
	// an unrecorded listen diverges: true
}
