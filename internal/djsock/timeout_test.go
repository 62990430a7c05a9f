package djsock

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/tracelog"
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

// TestTimeoutUniformMapping: every djsock operation with a deadline —
// connect, accept, read — reports expiry as the same exported ErrTimeout, in
// record mode AND when the recorded outcome is re-thrown during replay, while
// keeping the netsim.ErrTimeout chain and the original message intact on the
// live path.
func TestTimeoutUniformMapping(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, mode ids.Mode, replayLogs *tracelog.Set) (error, *tracelog.Set)
	}{
		{
			name: "read",
			run: func(t *testing.T, mode ids.Mode, replayLogs *tracelog.Set) (error, *tracelog.Set) {
				net := netsim.NewNetwork(netsim.Config{Seed: 71})
				l, err := net.Listen("server", 7100)
				if err != nil {
					t.Fatal(err)
				}
				go func() {
					for {
						if _, err := l.Accept(); err != nil {
							return // accepted peers never write: reads must expire
						}
					}
				}()
				defer l.Close()
				vm := newVM(t, core.Config{ID: 61, Mode: mode, World: ids.ClosedWorld, ReplayLogs: replayLogs})
				env := NewEnv(vm, net, "client")
				var opErr error
				vm.Start(func(main *core.Thread) {
					conn, cerr := env.Connect(main, netsim.Addr{Host: "server", Port: 7100})
					if cerr != nil {
						panic(cerr)
					}
					_, opErr = conn.ReadTimeout(main, make([]byte, 4), 5*time.Millisecond)
					conn.Close(main)
				})
				vm.Wait()
				vm.Close()
				return opErr, vm.Logs()
			},
		},
		{
			name: "accept",
			run: func(t *testing.T, mode ids.Mode, replayLogs *tracelog.Set) (error, *tracelog.Set) {
				net := netsim.NewNetwork(netsim.Config{Seed: 72})
				vm := newVM(t, core.Config{ID: 62, Mode: mode, World: ids.ClosedWorld, ReplayLogs: replayLogs})
				env := NewEnv(vm, net, "server")
				var opErr error
				vm.Start(func(main *core.Thread) {
					ss, err := env.Listen(main, 0)
					if err != nil {
						panic(err)
					}
					_, opErr = ss.AcceptTimeout(main, 5*time.Millisecond)
					ss.Close(main)
				})
				vm.Wait()
				vm.Close()
				return opErr, vm.Logs()
			},
		},
		{
			name: "connect",
			run: func(t *testing.T, mode ids.Mode, replayLogs *tracelog.Set) (error, *tracelog.Set) {
				net := netsim.NewNetwork(netsim.Config{Seed: 73})
				if _, err := net.Listen("server", 7100); err != nil {
					t.Fatal(err)
				}
				// The listener exists but a partition blackholes the SYN: the
				// connect expires instead of being refused.
				net.Partition([]string{"client"}, []string{"server"})
				vm := newVM(t, core.Config{ID: 63, Mode: mode, World: ids.ClosedWorld, ReplayLogs: replayLogs})
				env := NewEnv(vm, net, "client")
				var opErr error
				vm.Start(func(main *core.Thread) {
					_, opErr = env.Connect(main, netsim.Addr{Host: "server", Port: 7100})
				})
				vm.Wait()
				vm.Close()
				return opErr, vm.Logs()
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recErr, logs := tc.run(t, ids.Record, nil)
			if recErr == nil {
				t.Fatal("record phase did not time out")
			}
			if !errors.Is(recErr, ErrTimeout) {
				t.Errorf("record error %v does not satisfy djsock.ErrTimeout", recErr)
			}
			if !errors.Is(recErr, netsim.ErrTimeout) {
				t.Errorf("record error %v lost the netsim.ErrTimeout chain", recErr)
			}
			if !strings.Contains(recErr.Error(), "timed out") {
				t.Errorf("record error %q lost its original message", recErr)
			}

			repErr, _ := tc.run(t, ids.Replay, logs)
			if repErr == nil {
				t.Fatal("replay did not reproduce the timeout")
			}
			if !errors.Is(repErr, ErrTimeout) {
				t.Errorf("replayed error %v does not satisfy djsock.ErrTimeout", repErr)
			}
			var re *ReplayedError
			if !errors.As(repErr, &re) {
				t.Errorf("replayed error %v is not a ReplayedError", repErr)
			}
		})
	}
}
