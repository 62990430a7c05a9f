package djsock

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/tracelog"
)

// startEchoServer runs a passthrough-VM ("non-DJVM") echo server that
// uppercases what it receives, standing in for the open-world peer.
func startEchoServer(t *testing.T, net *netsim.Network, host string, conns int) uint16 {
	t.Helper()
	vm := newVM(t, core.Config{ID: 1000, Mode: ids.Passthrough})
	env := NewEnv(vm, net, host)
	ready := make(chan uint16, 1)
	vm.Start(func(main *core.Thread) {
		ss, err := env.Listen(main, 0)
		if err != nil {
			panic(err)
		}
		ready <- ss.Port()
		for i := 0; i < conns; i++ {
			conn, err := ss.Accept(main)
			if err != nil {
				panic(err)
			}
			main.Spawn(func(th *core.Thread) {
				buf := make([]byte, 32)
				for {
					n, err := conn.Read(th, buf)
					if err != nil {
						return
					}
					up := bytes.ToUpper(buf[:n])
					if _, err := conn.Write(th, up); err != nil {
						return
					}
				}
			})
		}
	})
	return <-ready
}

// openClientApp connects to a (possibly absent) server, sends a request, and
// reads the reply.
func openClientApp(t *testing.T, vm *core.VM, env *Env, port uint16, reply *[]byte) {
	t.Helper()
	vm.Start(func(main *core.Thread) {
		conn, err := env.Connect(main, netsim.Addr{Host: "echo", Port: port})
		if err != nil {
			panic(err)
		}
		if _, err := conn.Write(main, []byte("hello world!")); err != nil {
			panic(err)
		}
		buf := make([]byte, 12)
		if err := conn.ReadFull(main, buf); err != nil {
			panic(err)
		}
		*reply = append([]byte(nil), buf...)
		if err := conn.Close(main); err != nil {
			panic(err)
		}
	})
	vm.Wait()
	vm.Close()
}

func TestOpenWorldRecordThenReplayWithoutServer(t *testing.T) {
	// Record: the client DJVM talks to a real (non-DJVM) echo server.
	recNet := netsim.NewNetwork(netsim.Config{Chaos: chaosProfile(), Seed: 41})
	port := startEchoServer(t, recNet, "echo", 1)
	recVM := newVM(t, core.Config{ID: 50, Mode: ids.Record, World: ids.OpenWorld})
	var recReply []byte
	openClientApp(t, recVM, NewEnv(recVM, recNet, "client"), port, &recReply)
	if string(recReply) != "HELLO WORLD!" {
		t.Fatalf("record reply %q", recReply)
	}

	// Replay: an empty network, no server anywhere. All network events are
	// served from the log (§5).
	repNet := netsim.NewNetwork(netsim.Config{Seed: 1})
	repVM := newVM(t, core.Config{ID: 50, Mode: ids.Replay, World: ids.OpenWorld, ReplayLogs: recVM.Logs()})
	var repReply []byte
	openClientApp(t, repVM, NewEnv(repVM, repNet, "client"), port, &repReply)
	if !bytes.Equal(recReply, repReply) {
		t.Errorf("replay reply %q, record reply %q", repReply, recReply)
	}
	// Replay must not have touched the network at all.
	repNet.Quiesce()
	if members := repNet.GroupMembers("echo", port); members != nil {
		t.Error("replay created network state")
	}
}

func TestOpenWorldLogContainsContents(t *testing.T) {
	recNet := netsim.NewNetwork(netsim.Config{Chaos: chaosProfile(), Seed: 43})
	port := startEchoServer(t, recNet, "echo", 1)
	recVM := newVM(t, core.Config{ID: 51, Mode: ids.Record, World: ids.OpenWorld})
	var reply []byte
	openClientApp(t, recVM, NewEnv(recVM, recNet, "client"), port, &reply)

	x, err := tracelog.IndexSet(recVM.Logs())
	if err != nil {
		t.Fatal(err)
	}
	idx := x.Network
	if idx.OpenConnects.Len() != 1 {
		t.Errorf("logged %d open connects, want 1", idx.OpenConnects.Len())
	}
	if idx.OpenReads.Len() == 0 {
		t.Error("no open-world read contents logged")
	}
	if idx.OpenWrites.Len() != 1 {
		t.Errorf("logged %d open writes, want 1", idx.OpenWrites.Len())
	}
	var total int
	for _, r := range idx.OpenReads.All() {
		total += int(r.N)
	}
	if total != 12 {
		t.Errorf("open read contents total %d bytes, want 12", total)
	}
}

func TestOpenWorldWriteDivergenceDetected(t *testing.T) {
	recNet := netsim.NewNetwork(netsim.Config{Seed: 47})
	port := startEchoServer(t, recNet, "echo", 1)
	recVM := newVM(t, core.Config{ID: 52, Mode: ids.Record, World: ids.OpenWorld})
	recEnv := NewEnv(recVM, recNet, "client")
	recVM.Start(func(main *core.Thread) {
		conn, err := recEnv.Connect(main, netsim.Addr{Host: "echo", Port: port})
		if err != nil {
			panic(err)
		}
		conn.Write(main, []byte("payload-A"))
		conn.Close(main)
	})
	recVM.Wait()
	recVM.Close()

	// The write is main's second network event, after the connect.
	event := fmt.Sprint(ids.NetworkEventID{Thread: 0, Event: 1})
	for _, tc := range []struct {
		name, payload string
		want          []string
	}{
		{"changed byte", "payload-B", []string{event, "open-write-wide checksum differs: recorded 0x"}},
		{"shorter", "payload", []string{event, "length differs: recorded 9 bytes, replayed 7"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			repVM := newVM(t, core.Config{ID: 52, Mode: ids.Replay, World: ids.OpenWorld, ReplayLogs: recVM.Logs()})
			repEnv := NewEnv(repVM, netsim.NewNetwork(netsim.Config{}), "client")
			var writeErr error
			repVM.Start(func(main *core.Thread) {
				conn, err := repEnv.Connect(main, netsim.Addr{Host: "echo", Port: port})
				if err != nil {
					panic(err)
				}
				_, writeErr = conn.Write(main, []byte(tc.payload)) // diverged payload
				conn.Close(main)
			})
			repVM.Wait()
			repVM.Close()
			if !errors.Is(writeErr, ErrDiverged) {
				t.Fatalf("diverged write returned %v, want ErrDiverged", writeErr)
			}
			for _, want := range tc.want {
				if !strings.Contains(writeErr.Error(), want) {
					t.Errorf("divergence %q does not say %q", writeErr, want)
				}
			}
		})
	}
}

// TestMixedWorld runs a client DJVM that talks to one DJVM server (closed
// scheme) and one non-DJVM echo server (open scheme) in the same execution.
// Replay re-runs the DJVM pair for real and serves the non-DJVM traffic from
// the log (§5).
func TestMixedWorld(t *testing.T) {
	type result struct {
		fromDJVM string
		fromEcho string
	}
	run := func(mode ids.Mode, seed int64, serverLogs, clientLogs *tracelog.Set) (result, *core.VM, *core.VM) {
		net := netsim.NewNetwork(netsim.Config{Chaos: chaosProfile(), Seed: seed})

		var echoPort uint16
		if mode == ids.Record {
			echoPort = startEchoServer(t, net, "echo", 1)
		} else {
			// Replay: the non-DJVM echo server is absent. Its port number is
			// irrelevant — replay never dials it — but keep it stable.
			echoPort = 49152
		}

		serverVM := newVM(t, core.Config{
			ID: 60, Mode: mode, World: ids.MixedWorld,
			DJVMPeers:  map[string]bool{"client": true},
			ReplayLogs: serverLogs,
		})
		clientVM := newVM(t, core.Config{
			ID: 61, Mode: mode, World: ids.MixedWorld,
			DJVMPeers:  map[string]bool{"djserver": true},
			ReplayLogs: clientLogs,
		})
		senv := NewEnv(serverVM, net, "djserver")
		cenv := NewEnv(clientVM, net, "client")

		ready := make(chan uint16, 1)
		serverVM.Start(func(main *core.Thread) {
			ss, err := senv.Listen(main, 0)
			if err != nil {
				panic(err)
			}
			ready <- ss.Port()
			conn, err := ss.Accept(main)
			if err != nil {
				panic(err)
			}
			buf := make([]byte, 4)
			if err := conn.ReadFull(main, buf); err != nil {
				panic(err)
			}
			if _, err := conn.Write(main, []byte("dj:"+string(buf))); err != nil {
				panic(err)
			}
			conn.Close(main)
		})
		djPort := <-ready

		var res result
		clientVM.Start(func(main *core.Thread) {
			// Closed-scheme leg.
			dj, err := cenv.Connect(main, netsim.Addr{Host: "djserver", Port: djPort})
			if err != nil {
				panic(err)
			}
			dj.Write(main, []byte("ping"))
			buf := make([]byte, 7)
			if err := dj.ReadFull(main, buf); err != nil {
				panic(err)
			}
			res.fromDJVM = string(buf)
			dj.Close(main)

			// Open-scheme leg.
			echo, err := cenv.Connect(main, netsim.Addr{Host: "echo", Port: echoPort})
			if err != nil {
				panic(err)
			}
			echo.Write(main, []byte("mixed"))
			ebuf := make([]byte, 5)
			if err := echo.ReadFull(main, ebuf); err != nil {
				panic(err)
			}
			res.fromEcho = string(ebuf)
			echo.Close(main)
		})

		done := make(chan struct{})
		go func() {
			serverVM.Wait()
			clientVM.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("mixed-world app deadlocked in %v mode", mode)
		}
		serverVM.Close()
		clientVM.Close()
		return res, serverVM, clientVM
	}

	recRes, recS, recC := run(ids.Record, 53, nil, nil)
	if recRes.fromDJVM != "dj:ping" || recRes.fromEcho != "MIXED" {
		t.Fatalf("record results %+v", recRes)
	}
	repRes, _, _ := run(ids.Replay, 777, recS.Logs(), recC.Logs())
	if repRes != recRes {
		t.Errorf("replay results %+v, record %+v", repRes, recRes)
	}

	// The client's log must contain contents only for the echo leg.
	x, err := tracelog.IndexSet(recC.Logs())
	if err != nil {
		t.Fatal(err)
	}
	idx := x.Network
	if idx.OpenConnects.Len() != 1 || idx.OpenWrites.Len() != 1 {
		t.Errorf("client logged %d open connects and %d open writes, want 1 and 1",
			idx.OpenConnects.Len(), idx.OpenWrites.Len())
	}
	if idx.Reads.Len() == 0 {
		t.Error("client logged no closed-scheme reads for the DJVM leg")
	}
}

func TestClosedWorldLogSmallerThanOpenWorld(t *testing.T) {
	// The §6 expectation: for the same traffic, the closed-world log records
	// counters while the open-world log records contents, so increasing the
	// message size grows only the open-world log.
	payload := bytes.Repeat([]byte("x"), 2000)

	runClient := func(world ids.World) int {
		net := netsim.NewNetwork(netsim.Config{Seed: 59})
		srvVM := newVM(t, core.Config{ID: 1001, Mode: ids.Passthrough})
		srvEnv := NewEnv(srvVM, net, "server")
		ready := make(chan uint16, 1)
		srvVM.Start(func(main *core.Thread) {
			ss, err := srvEnv.Listen(main, 0)
			if err != nil {
				panic(err)
			}
			ready <- ss.Port()
			conn, err := ss.Accept(main)
			if err != nil {
				panic(err)
			}
			if world == ids.ClosedWorld {
				// Closed-world peers expect the meta-data prefix; this plain
				// server consumes it manually.
				meta := make([]byte, 12)
				if err := conn.ReadFull(main, meta); err != nil {
					panic(err)
				}
			}
			conn.Write(main, payload)
			conn.Close(main)
		})
		port := <-ready

		vm2 := newVM(t, core.Config{ID: 71, Mode: ids.Record, World: world})
		env2 := NewEnv(vm2, net, "client2")
		vm2.Start(func(main *core.Thread) {
			conn, err := env2.Connect(main, netsim.Addr{Host: "server", Port: port})
			if err != nil {
				panic(err)
			}
			buf := make([]byte, len(payload))
			if err := conn.ReadFull(main, buf); err != nil {
				panic(err)
			}
			conn.Close(main)
		})
		vm2.Wait()
		vm2.Close()
		return vm2.Logs().TotalSize()
	}

	closedSize := runClient(ids.ClosedWorld)
	openSize := runClient(ids.OpenWorld)
	if closedSize >= openSize {
		t.Errorf("closed-world log %d bytes, open-world %d bytes; closed should be smaller", closedSize, openSize)
	}
	if openSize < 2000 {
		t.Errorf("open-world log %d bytes cannot contain the 2000-byte payload", openSize)
	}
}
