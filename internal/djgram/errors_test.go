package djgram

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/tracelog"
)

// errScene is the world one phase of an error-path case runs in: the VM under
// test on host "node", closed world, and a plain netsim socket on rx:7001 to
// send at.
type errScene struct {
	t    *testing.T
	net  *netsim.Network
	env  *Env
	deny bool // record phase of a case netsim can fail: sabotage crashes the host
	rx   *netsim.DatagramSocket
	sock *DatagramSocket // what the program bound on its way to the call under test
}

// sabotage is what makes the call under test fail while recording: the host
// crashes under the program — its sockets close, no new one can be bound. The
// replaying program finds the network intact.
func (sc *errScene) sabotage() {
	if sc.deny {
		sc.net.CrashHost("node")
	}
}

func (sc *errScene) bind(main *core.Thread) {
	sock, err := sc.env.Bind(main, 7000)
	if err != nil {
		sc.t.Fatalf("bind: %v", err)
	}
	sc.sock = sock
}

// errCase is one operation's error path: prog runs the program up to the call
// under test and returns that call's error.
type errCase struct {
	name string // also the name the failure is recorded and re-thrown under
	prog func(sc *errScene, main *core.Thread) error
	// untouched reports, after the replay, that the call executed nothing on
	// a network where it would have succeeded.
	untouched func(sc *errScene) bool

	plant    bool // netsim cannot fail the call: its failure is planted in the recorded log
	maxDgram int  // the record phase's datagram ceiling (0: the default, as in replay)
}

var errCases = []errCase{
	{name: "bind",
		prog: func(sc *errScene, main *core.Thread) error {
			sc.sabotage()
			_, err := sc.env.Bind(main, 7000)
			return err
		},
		untouched: func(sc *errScene) bool {
			_, err := sc.net.DatagramBind("node", 7000) // the port is still free
			return err == nil
		}},
	{name: "joingroup",
		prog: func(sc *errScene, main *core.Thread) error {
			sc.bind(main)
			sc.sabotage()
			return sc.sock.JoinGroup(main, "group-A")
		},
		untouched: func(sc *errScene) bool { return !sc.net.IsGroup("group-A") }},
	// Oversized while recording, under a ceiling of 100 bytes; the replay's
	// network would carry it.
	{name: "send", maxDgram: 100,
		prog: func(sc *errScene, main *core.Thread) error {
			sc.bind(main)
			return sc.sock.SendTo(main, netsim.Addr{Host: "rx", Port: 7001}, make([]byte, 400))
		},
		untouched: func(sc *errScene) bool {
			sc.net.Quiesce()
			return sc.rx.Pending() == 0
		}},
	// Replay would block in this receive for good — nobody sends — if it
	// executed it.
	{name: "receive",
		prog: func(sc *errScene, main *core.Thread) error {
			sc.bind(main)
			sc.sabotage()
			_, _, err := sc.sock.Receive(main)
			return err
		}},
	{name: "close", plant: true,
		prog: func(sc *errScene, main *core.Thread) error {
			sc.bind(main)
			return sc.sock.Close(main)
		},
		untouched: func(sc *errScene) bool {
			_, err := sc.net.DatagramBind("node", 7000) // the port is still taken
			return errors.Is(err, netsim.ErrPortInUse)
		}},
}

// runErrPhase runs prog as the one thread of a VM on host "node" and returns
// its error, the scene it ran in, the thread's next unallocated network event
// number and the VM.
func runErrPhase(t *testing.T, tc errCase, prog func(*errScene, *core.Thread) error,
	logs *tracelog.Set) (error, *errScene, ids.EventNum, *core.VM) {
	t.Helper()
	mode, cfg := ids.Replay, netsim.Config{Seed: 5}
	if logs == nil {
		mode, cfg.MaxDatagram = ids.Record, tc.maxDgram
	}
	sc := &errScene{t: t, net: netsim.NewNetwork(cfg), deny: mode == ids.Record && !tc.plant}
	rx, err := sc.net.DatagramBind("rx", 7001)
	if err != nil {
		t.Fatal(err)
	}
	sc.rx = rx
	vm := newVM(t, core.Config{ID: 70, Mode: mode, World: ids.ClosedWorld, ReplayLogs: logs})
	sc.env = NewEnv(vm, sc.net, "node")
	var next ids.EventNum
	vm.Start(func(main *core.Thread) {
		err = prog(sc, main)
		next = main.CurrentEventNum()
	})
	vm.Wait()
	vm.Close()
	if sc.sock != nil && sc.sock.rc != nil {
		t.Cleanup(func() { sc.sock.rc.Close() }) // the program stopped short of its close
	}
	return err, sc, next, vm
}

// recordFailure records tc's program and returns the recorded logs, the
// failure's text as replay must re-throw it, and the event number after it.
func recordFailure(t *testing.T, tc errCase) (*tracelog.Set, string, ids.EventNum) {
	t.Helper()
	err, _, next, vm := runErrPhase(t, tc, tc.prog, nil)
	if tc.plant {
		if err != nil {
			t.Fatalf("record: %v", err)
		}
		// What the record phase would have written had the call failed.
		err = errors.New("planted failure")
		vm.Logs().Network.Append(&tracelog.NetErrEntry{
			EventID: ids.NetworkEventID{Thread: 0, Event: next - 1}, Op: tc.name, Msg: err.Error(),
		})
	}
	if err == nil {
		t.Fatal("record: the call under test succeeded")
	}
	return vm.Logs(), err.Error(), next
}

// TestRecordedErrorReplays is the error path of every datagram-socket
// operation, one row each: the failure the record phase saw is re-thrown
// during replay as an equal ReplayedError, under the same event id, without
// executing the call — on a network where the call would now succeed.
func TestRecordedErrorReplays(t *testing.T) {
	for _, tc := range errCases {
		t.Run(tc.name, func(t *testing.T) {
			logs, msg, recNext := recordFailure(t, tc)
			err, sc, repNext, _ := runErrPhase(t, tc, tc.prog, logs)

			var re *ReplayedError
			if !errors.As(err, &re) || *re != (ReplayedError{Op: tc.name, Msg: msg}) {
				t.Fatalf("replay returned %v, want the recorded failure %s: %s", err, tc.name, msg)
			}
			if want := tc.name + ": " + msg + " (replayed)"; err.Error() != want {
				t.Errorf("replayed error reads %q, want %q", err, want)
			}
			if repNext != recNext {
				t.Errorf("next event number %d after replay, %d after record", repNext, recNext)
			}
			if tc.untouched != nil && !tc.untouched(sc) {
				t.Error("replay executed the failed call on the network")
			}
		})
	}
}

// TestRecordedErrorIsRethrownOnlyByItsOperation: a replay that reaches a
// failed receive's event id with a different operation has diverged, and is
// told so with both names — it is not handed "receive: … (replayed)".
func TestRecordedErrorIsRethrownOnlyByItsOperation(t *testing.T) {
	var receive errCase
	for _, tc := range errCases {
		if tc.name == "receive" {
			receive = tc
		}
	}
	logs, _, _ := recordFailure(t, receive)
	err, _, _, _ := runErrPhase(t, receive, func(sc *errScene, main *core.Thread) error {
		sc.bind(main)
		return sc.sock.Close(main) // recorded as a receive
	}, logs)
	if !errors.Is(err, ErrDiverged) || !strings.Contains(err.Error(), "receive") || !strings.Contains(err.Error(), "close") {
		t.Fatalf("close at a failed receive's event returned %v, want a divergence naming both", err)
	}
}
