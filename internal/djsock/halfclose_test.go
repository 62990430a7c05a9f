package djsock

import (
	"errors"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/netsim"
)

// halfCloseApp: the client sends an EOF-delimited request via CloseWrite and
// still reads the response on the same connection — the shutdownOutput
// protocol pattern.
func halfCloseApp(reply *[]byte) twoVMApp {
	return twoVMApp{
		server: func(e *Env, main *core.Thread, ready chan<- uint16) {
			ss, err := e.Listen(main, 0)
			if err != nil {
				panic(err)
			}
			ready <- ss.Port()
			conn, err := ss.Accept(main)
			if err != nil {
				panic(err)
			}
			var req []byte
			buf := make([]byte, 8)
			for {
				n, err := conn.Read(main, buf)
				if err == io.EOF {
					break
				}
				if err != nil {
					panic(err)
				}
				req = append(req, buf[:n]...)
			}
			if _, err := conn.Write(main, append([]byte("len="), byte('0'+len(req)))); err != nil {
				panic(err)
			}
			conn.Close(main)
		},
		client: func(e *Env, main *core.Thread, port uint16) {
			conn, err := e.Connect(main, netsim.Addr{Host: "server", Port: port})
			if err != nil {
				panic(err)
			}
			conn.Write(main, []byte("abcde"))
			if err := conn.CloseWrite(main); err != nil {
				panic(err)
			}
			out := make([]byte, 5)
			if err := conn.ReadFull(main, out); err != nil {
				panic(err)
			}
			*reply = append([]byte(nil), out...)
			conn.Close(main)
		},
	}
}

func TestHalfCloseRecordReplay(t *testing.T) {
	var rec, rep []byte
	recS, recC := runTwoVMs(t, halfCloseApp(&rec), ids.Record, 101, nil, nil)
	if string(rec) != "len=5" {
		t.Fatalf("record reply %q", rec)
	}
	runTwoVMs(t, halfCloseApp(&rep), ids.Replay, 10101, recS.Logs(), recC.Logs())
	if string(rep) != string(rec) {
		t.Errorf("replay reply %q, record %q", rep, rec)
	}
}

func TestCloseWriteAfterCloseIsError(t *testing.T) {
	// Writes after CloseWrite fail in record mode with a real error.
	net := netsim.NewNetwork(netsim.Config{Seed: 104})
	vm := newVM(t, core.Config{ID: 51, Mode: ids.Record})
	env := NewEnv(vm, net, "server")
	peer := newVM(t, core.Config{ID: 52, Mode: ids.Passthrough})
	penv := NewEnv(peer, net, "peer")

	ready := make(chan uint16, 1)
	peer.Start(func(main *core.Thread) {
		ss, err := penv.Listen(main, 0)
		if err != nil {
			panic(err)
		}
		ready <- ss.Port()
		conn, err := ss.Accept(main)
		if err != nil {
			panic(err)
		}
		conn.Close(main)
	})
	port := <-ready
	var werr error
	vm.Start(func(main *core.Thread) {
		conn, err := env.Connect(main, netsim.Addr{Host: "peer", Port: port})
		if err != nil {
			panic(err)
		}
		conn.CloseWrite(main)
		_, werr = conn.Write(main, []byte("x"))
		conn.Close(main)
	})
	vm.Wait()
	peer.Wait()
	vm.Close()
	peer.Close()
	if !errors.Is(werr, netsim.ErrClosed) {
		t.Errorf("write after CloseWrite: %v, want ErrClosed", werr)
	}
}
