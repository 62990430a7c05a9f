package djsock

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/netsim"
)

func TestAcceptTimeoutSuccessReplays(t *testing.T) {
	// When a connection wins the race, AcceptTimeout records and replays
	// like a plain accept.
	app := func(got *[]byte) twoVMApp {
		return twoVMApp{
			server: func(e *Env, main *core.Thread, ready chan<- uint16) {
				ss, err := e.Listen(main, 0)
				if err != nil {
					panic(err)
				}
				ready <- ss.Port()
				conn, err := ss.AcceptTimeout(main, 10*time.Second)
				if err != nil {
					panic(err)
				}
				buf := make([]byte, 2)
				if err := conn.ReadFull(main, buf); err != nil {
					panic(err)
				}
				*got = append([]byte(nil), buf...)
				conn.Close(main)
			},
			client: func(e *Env, main *core.Thread, port uint16) {
				conn, err := e.Connect(main, netsim.Addr{Host: "server", Port: port})
				if err != nil {
					panic(err)
				}
				conn.Write(main, []byte("hi"))
				conn.Close(main)
			},
		}
	}
	var rec, rep []byte
	recS, recC := runTwoVMs(t, app(&rec), ids.Record, 112, nil, nil)
	if string(rec) != "hi" {
		t.Fatalf("record got %q", rec)
	}
	runTwoVMs(t, app(&rep), ids.Replay, 11211, recS.Logs(), recC.Logs())
	if string(rep) != "hi" {
		t.Errorf("replay got %q", rep)
	}
}

func TestReadTimeoutOutcomesReplay(t *testing.T) {
	// The client reads with a deadline: the first read races a slow server
	// write. Whatever mix of timeouts and data the record phase saw, replay
	// reproduces (eliding the waits).
	app := func(events *[]string) twoVMApp {
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
				main.Sleep(5 * time.Millisecond) // outlast the client's first deadline
				conn.Write(main, []byte("data"))
				conn.Close(main)
			},
			client: func(e *Env, main *core.Thread, port uint16) {
				conn, err := e.Connect(main, netsim.Addr{Host: "server", Port: port})
				if err != nil {
					panic(err)
				}
				buf := make([]byte, 8)
				for tries := 0; tries < 50; tries++ {
					n, rerr := conn.ReadTimeout(main, buf, time.Millisecond)
					switch {
					case rerr == nil:
						*events = append(*events, "data:"+string(buf[:n]))
						conn.Close(main)
						return
					case errors.Is(rerr, netsim.ErrTimeout) || strings.Contains(rerr.Error(), "timed out"):
						*events = append(*events, "timeout")
					default:
						panic(rerr)
					}
				}
				panic("no data after 50 tries")
			},
		}
	}
	var rec, rep []string
	recS, recC := runTwoVMs(t, app(&rec), ids.Record, 113, nil, nil)
	if len(rec) < 2 || rec[len(rec)-1] != "data:data" {
		t.Fatalf("record events %v: want timeouts then data", rec)
	}
	runTwoVMs(t, app(&rep), ids.Replay, 11311, recS.Logs(), recC.Logs())
	if len(rec) != len(rep) {
		t.Fatalf("event counts differ: record %v, replay %v", rec, rep)
	}
	for i := range rec {
		if rec[i] != rep[i] {
			t.Errorf("event %d: record %q, replay %q", i, rec[i], rep[i])
		}
	}
}
