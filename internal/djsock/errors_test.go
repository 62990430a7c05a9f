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

// errScene is the world one phase of an error-path case runs in: the VM under
// test on host "node", closed world, against a plain netsim listener on
// peer:9000 (a closed-scheme connect only needs something to accept it).
type errScene struct {
	t      *testing.T
	net    *netsim.Network
	env    *Env
	record bool
	deny   bool             // record phase of a case netsim can fail: sabotage crashes the host
	peer   *netsim.Listener // nil where the case wants the connect refused

	// What the program built on its way to the call under test.
	conn     *Socket
	peerConn *netsim.Stream
	ss       *ServerSocket
}

// sabotage is what makes the call under test fail while recording: the host
// crashes under the program — its listeners close, its streams reset, nothing
// new can be created on it. The replaying program finds the network intact,
// so the call would go through if replay executed it.
func (sc *errScene) sabotage() {
	if sc.deny {
		sc.net.CrashHost("node")
	}
}

// connect opens the connection the stream cases fail on.
func (sc *errScene) connect(main *core.Thread) {
	conn, err := sc.env.Connect(main, netsim.Addr{Host: "peer", Port: 9000})
	if err != nil {
		sc.t.Fatalf("connect: %v", err)
	}
	sc.conn = conn
	if sc.peerConn, err = sc.peer.Accept(); err != nil {
		sc.t.Fatalf("peer accept: %v", err)
	}
}

// listen opens the server socket the accept cases fail on; while replaying, a
// connection is already waiting in its backlog.
func (sc *errScene) listen(main *core.Thread) {
	ss, err := sc.env.Listen(main, 7100)
	if err != nil {
		sc.t.Fatalf("listen: %v", err)
	}
	sc.ss = ss
	if !sc.record {
		if _, err := sc.net.Connect("peer", netsim.Addr{Host: "node", Port: 7100}); err != nil {
			sc.t.Fatalf("peer connect: %v", err)
		}
	}
}

// peerSends has the peer write to the connection, while replaying only: the
// recorded read found nothing.
func (sc *errScene) peerSends(data string) {
	if !sc.record {
		sc.peerConn.Write([]byte(data))
		sc.conn.stream.WaitAvailable(len(data))
	}
}

// errCase is one operation's error path: prog runs the program up to the call
// under test and returns that call's error.
type errCase struct {
	name string
	op   string // the name the failure is recorded and re-thrown under
	prog func(sc *errScene, main *core.Thread) error
	// untouched reports, after the replay, that the call executed nothing on
	// a network where it would have succeeded.
	untouched func(sc *errScene) bool

	refused  bool          // record with no listener on the peer
	plant    bool          // netsim cannot fail the call: its failure is planted in the recorded log
	deadline time.Duration // the failure is this deadline expiring, which replay does not wait out
}

var errCases = []errCase{
	{name: "connect", op: "connect", refused: true,
		prog: func(sc *errScene, main *core.Thread) error {
			_, err := sc.env.Connect(main, netsim.Addr{Host: "peer", Port: 9000})
			return err
		},
		untouched: func(sc *errScene) bool { return sc.peer.Backlog() == 0 }},
	{name: "listen", op: "listen",
		prog: func(sc *errScene, main *core.Thread) error {
			sc.sabotage()
			_, err := sc.env.Listen(main, 7100)
			return err
		},
		untouched: func(sc *errScene) bool {
			_, err := sc.net.Listen("node", 7100) // the port is still free
			return err == nil
		}},
	{name: "accept", op: "accept",
		prog: func(sc *errScene, main *core.Thread) error {
			sc.listen(main)
			sc.sabotage()
			_, err := sc.ss.Accept(main)
			return err
		},
		untouched: func(sc *errScene) bool { return sc.ss.Backlog() == 1 }},
	{name: "accept-timeout", op: "accept", deadline: 30 * time.Millisecond,
		prog: func(sc *errScene, main *core.Thread) error {
			sc.listen(main)
			_, err := sc.ss.AcceptTimeout(main, 30*time.Millisecond)
			return err
		},
		untouched: func(sc *errScene) bool { return sc.ss.Backlog() == 1 }},
	{name: "read", op: "read",
		prog: func(sc *errScene, main *core.Thread) error {
			sc.connect(main)
			sc.peerSends("data")
			sc.sabotage()
			_, err := sc.conn.Read(main, make([]byte, 8))
			return err
		},
		untouched: func(sc *errScene) bool { return sc.conn.stream.Available() == 4 }},
	{name: "read-timeout", op: "read", deadline: 20 * time.Millisecond,
		prog: func(sc *errScene, main *core.Thread) error {
			sc.connect(main)
			sc.peerSends("data")
			_, err := sc.conn.ReadTimeout(main, make([]byte, 8), 20*time.Millisecond)
			return err
		},
		untouched: func(sc *errScene) bool { return sc.conn.stream.Available() == 4 }},
	{name: "write", op: "write",
		prog: func(sc *errScene, main *core.Thread) error {
			sc.connect(main)
			sc.sabotage()
			_, err := sc.conn.Write(main, []byte("hello"))
			return err
		},
		untouched: func(sc *errScene) bool {
			sc.net.Quiesce()
			return sc.peerConn.Available() == metaLen // the connectionId and nothing else
		}},
	{name: "available", op: "available", plant: true,
		prog: func(sc *errScene, main *core.Thread) error {
			sc.connect(main)
			_, err := sc.conn.Available(main)
			return err
		}},
	{name: "closewrite", op: "closewrite", plant: true,
		prog: func(sc *errScene, main *core.Thread) error {
			sc.connect(main)
			return sc.conn.CloseWrite(main)
		},
		untouched: func(sc *errScene) bool {
			_, err := sc.conn.stream.Write([]byte("x")) // the sending half is still open
			return err == nil
		}},
	{name: "close", op: "close", plant: true,
		prog: func(sc *errScene, main *core.Thread) error {
			sc.connect(main)
			return sc.conn.Close(main)
		},
		untouched: func(sc *errScene) bool {
			_, err := sc.conn.stream.Write([]byte("x"))
			return err == nil
		}},
	{name: "server-close", op: "close", plant: true,
		prog: func(sc *errScene, main *core.Thread) error {
			sc.listen(main)
			return sc.ss.Close(main)
		},
		untouched: func(sc *errScene) bool { return sc.ss.Backlog() == 1 }},
}

// runErrPhase runs prog as the one thread of a VM on host "node" and returns
// its error, the scene it ran in, the thread's next unallocated network event
// number, the phase's duration and the VM.
func runErrPhase(t *testing.T, tc errCase, prog func(*errScene, *core.Thread) error,
	logs *tracelog.Set) (error, *errScene, ids.EventNum, time.Duration, *core.VM) {
	t.Helper()
	mode := ids.Replay
	if logs == nil {
		mode = ids.Record
	}
	sc := &errScene{t: t, record: mode == ids.Record, net: netsim.NewNetwork(netsim.Config{Seed: 5})}
	sc.deny = sc.record && !tc.plant
	if !(sc.record && tc.refused) {
		peer, err := sc.net.Listen("peer", 9000)
		if err != nil {
			t.Fatal(err)
		}
		sc.peer = peer
	}
	vm := newVM(t, core.Config{ID: 70, Mode: mode, World: ids.ClosedWorld, ReplayLogs: logs})
	sc.env = NewEnv(vm, sc.net, "node")
	var (
		err  error
		next ids.EventNum
	)
	start := time.Now()
	vm.Start(func(main *core.Thread) {
		err = prog(sc, main)
		next = main.CurrentEventNum()
	})
	vm.Wait()
	took := time.Since(start)
	vm.Close()
	return err, sc, next, took, vm
}

// recordFailure records tc's program and returns the recorded logs, the
// failure's text as replay must re-throw it, and the event number after it.
func recordFailure(t *testing.T, tc errCase) (*tracelog.Set, string, ids.EventNum, time.Duration) {
	t.Helper()
	err, _, next, took, vm := runErrPhase(t, tc, tc.prog, nil)
	if tc.plant {
		if err != nil {
			t.Fatalf("record: %v", err)
		}
		// What the record phase would have written had the call failed.
		err = errors.New("planted failure")
		vm.Logs().Network.Append(&tracelog.NetErrEntry{
			EventID: ids.NetworkEventID{Thread: 0, Event: next - 1}, Op: tc.op, Msg: err.Error(),
		})
	}
	if err == nil {
		t.Fatal("record: the call under test succeeded")
	}
	return vm.Logs(), err.Error(), next, took
}

// TestRecordedErrorReplays is the error path of every stream-socket operation,
// one row each: the failure the record phase saw is re-thrown during replay as
// an equal ReplayedError, under the same event id, without executing the call
// — on a network where the call would now succeed — and, for a deadline,
// without waiting it out.
func TestRecordedErrorReplays(t *testing.T) {
	for _, tc := range errCases {
		t.Run(tc.name, func(t *testing.T) {
			logs, msg, recNext, recTook := recordFailure(t, tc)
			err, sc, repNext, repTook, _ := runErrPhase(t, tc, tc.prog, logs)

			var re *ReplayedError
			if !errors.As(err, &re) || *re != (ReplayedError{Op: tc.op, Msg: msg}) {
				t.Fatalf("replay returned %v, want the recorded failure %s: %s", err, tc.op, msg)
			}
			if want := tc.op + ": " + msg + " (replayed)"; err.Error() != want {
				t.Errorf("replayed error reads %q, want %q", err, want)
			}
			if repNext != recNext {
				t.Errorf("next event number %d after replay, %d after record", repNext, recNext)
			}
			if tc.untouched != nil && !tc.untouched(sc) {
				t.Error("replay executed the failed call on the network")
			}
			if tc.deadline != 0 {
				if !strings.Contains(msg, "timed out") || !errors.Is(err, ErrTimeout) {
					t.Errorf("recorded %q, replayed %v: want a timeout that errors.Is ErrTimeout", msg, err)
				}
				if recTook < tc.deadline || repTook >= tc.deadline {
					t.Errorf("record took %v, replay %v: the %v deadline was not elided", recTook, repTook, tc.deadline)
				}
			}
		})
	}
}

// TestRecordedErrorIsRethrownOnlyByItsOperation: a replay that reaches a
// failed read's event id with a different operation has diverged, and is told
// so with both names — it is not handed "read: … (replayed)".
func TestRecordedErrorIsRethrownOnlyByItsOperation(t *testing.T) {
	var read errCase
	for _, tc := range errCases {
		if tc.name == "read" {
			read = tc
		}
	}
	logs, _, _, _ := recordFailure(t, read)
	err, _, _, _, _ := runErrPhase(t, read, func(sc *errScene, main *core.Thread) error {
		sc.connect(main)
		return sc.conn.Close(main) // recorded as a read
	}, logs)
	if !errors.Is(err, ErrDiverged) || !strings.Contains(err.Error(), "read") || !strings.Contains(err.Error(), "close") {
		t.Fatalf("close at a failed read's event returned %v, want a divergence naming both", err)
	}
}
