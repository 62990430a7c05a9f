package djgram

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/tracelog"
)

// TestCrashPointIsALogEndForDatagrams is the datagram half of the crash-point
// property (dejavu.TestCrashPointIsALogEndForNetworkEvents has the stream
// sockets and the environment queries): a closed-world receiver records
// through a WAL fsynced at every record, the file is cut at every byte, and the
// receiver replays what RecoverFile salvages, with StopAtLogEnd, against a
// sender replaying its whole recording. The repair drops every delivery at or
// past the recovered prefix, so the receive at the crash point never finds its
// record: it is where the thread stops, not a divergence handed to the
// application.
func TestCrashPointIsALogEndForDatagrams(t *testing.T) {
	const nSend, nRecv = 6, 4
	dir := t.TempDir()
	walPath := filepath.Join(dir, "rx.wal")

	// run executes the receiver/sender pair once and returns what the
	// receiving application saw, the receiver's observer trace and its VM.
	run := func(mode ids.Mode, recvLogs, sendLogs *tracelog.Set) ([]string, []string, *core.VM, *core.VM) {
		var out, trace []string
		net := netsim.NewNetwork(netsim.Config{Seed: 31})
		recvVM := newVM(t, core.Config{ID: 100, Mode: mode, World: ids.ClosedWorld, ReplayLogs: recvLogs,
			StopAtLogEnd: mode == ids.Replay, StallTimeout: 20 * time.Second,
			EventObserver: func(tn ids.ThreadNum, gc ids.GCount) {
				trace = append(trace, fmt.Sprintf("t%d@%d", tn, gc))
			}})
		sendVM := newVM(t, core.Config{ID: 200, Mode: mode, World: ids.ClosedWorld, ReplayLogs: sendLogs})
		if mode == ids.Record {
			if err := recvVM.EnableWAL(walPath, tracelog.WALOptions{SyncEvery: 1}); err != nil {
				t.Fatal(err)
			}
		}
		senv := NewEnv(sendVM, net, "tx")
		// A receiver that has stopped, at its log end or at its recorded close,
		// acknowledges nothing more: the sender's close need not wait long.
		senv.ReplayCloseFlush = 5 * time.Millisecond

		saw := func(step string, data []byte, err error) {
			if errors.Is(err, ErrDiverged) {
				t.Errorf("%s: a divergence reached the application: %v", step, err)
			}
			out = append(out, fmt.Sprintf("%s %q failed=%v", step, data, err != nil))
		}
		var rsock *DatagramSocket
		bound := make(chan struct{})
		recvVM.Start(func(main *core.Thread) {
			sock, err := NewEnv(recvVM, net, "rx").Bind(main, 7000)
			saw("bind", nil, err)
			if err != nil {
				return
			}
			rsock = sock
			close(bound)
			for i := 0; i < nRecv; i++ {
				data, _, err := sock.Receive(main)
				saw("receive", data, err)
			}
			saw("close", nil, sock.Close(main))
		})
		stopped := make(chan struct{})
		go func() {
			recvVM.Wait()
			close(stopped)
		}()
		select {
		case <-bound:
		case <-stopped:
			// Cut short of its bind: there is no host to send to.
			recvVM.Close()
			sendVM.Close()
			return out, trace, recvVM, sendVM
		}
		sendVM.Start(func(main *core.Thread) {
			sock, err := senv.Bind(main, 0)
			if err != nil {
				panic(err)
			}
			for i := 0; i < nSend; i++ {
				if err := sock.SendTo(main, netsim.Addr{Host: "rx", Port: 7000}, []byte(fmt.Sprintf("dg-%d", i))); err != nil {
					panic(err)
				}
			}
			sock.Close(main)
		})
		<-stopped
		sendVM.Wait()
		if rsock.rc != nil {
			rsock.rc.Close() // a thread stopped at the log end never closed it
		}
		recvVM.Close()
		sendVM.Close()
		return out, trace, recvVM, sendVM
	}

	recOut, recTrace, _, sendVM := run(ids.Record, nil, nil)
	if t.Failed() || len(recOut) != nRecv+2 {
		t.Fatalf("record run saw %q", recOut)
	}
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	cutPath := filepath.Join(dir, "cut.wal")
	replayed, stopped := 0, 0
	for cut := 0; cut <= len(data); cut++ {
		if err := os.WriteFile(cutPath, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		logs, rep, err := tracelog.RecoverFile(cutPath)
		if err != nil {
			if rep == nil || rep.Frames == 0 {
				continue // nothing salvaged: not the magic, or not the identity header
			}
			t.Fatalf("cut=%d: RecoverFile: %v", cut, err)
		}
		k := int(rep.FinalGC)
		out, trace, recvVM, _ := run(ids.Replay, logs, sendVM.Logs())
		replayed++

		if len(out) > len(recOut) || !slices.Equal(out, recOut[:len(out)]) {
			t.Fatalf("cut=%d (prefix %d of %d events): the application saw\n%q\nwhile replaying, and\n%q\nwhile recording",
				cut, k, len(recTrace), out, recOut)
		}
		if k > len(recTrace) || !slices.Equal(trace, recTrace[:k]) {
			t.Fatalf("cut=%d: replay observed events %v, the recorded prefix [0,%d) is %v", cut, trace, k, recTrace)
		}
		switch stops := recvVM.LogEndStops(); {
		case k < len(recTrace) && stops == 0:
			t.Fatalf("cut=%d: truncated replay (prefix %d of %d) reported no log-end stop", cut, k, len(recTrace))
		case k == len(recTrace) && stops != 0:
			t.Fatalf("cut=%d: full replay reported %d log-end stops", cut, stops)
		case stops != 0:
			stopped++
		}
	}
	t.Logf("%d-byte WAL: %d cuts replayed, %d of them to a log-end stop", len(data), replayed, stopped)
	if replayed < len(data)/2 || stopped == 0 {
		t.Errorf("%d of %d cuts replayed, %d of them stopped at a log end: the property was barely exercised",
			replayed, len(data)+1, stopped)
	}
}
