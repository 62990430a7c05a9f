package dejavu_test

import (
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

// ExampleNode_NewRPCServer shows a replayable remote call.
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
		srv.Serve(main, ss, 1)
	})
	port := <-ready

	client.Start(func(main *dejavu.Thread) {
		cl := client.NewRPCClient(dejavu.Addr{Host: "srv", Port: port})
		out, _ := cl.Call(main, "greet", []byte("world"))
		fmt.Println(string(out))
	})
	server.Wait()
	client.Wait()
	server.Close()
	client.Close()
	// Output: hello, world
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
