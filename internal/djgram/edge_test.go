package djgram

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/tracelog"
)

func TestReplayExtraReceiveDiverges(t *testing.T) {
	// Record one delivery; replay attempts two receives.
	rec := runUDPApp(t, ids.Record, 201, 5, 1, netsim.Chaos{}, 0,
		func(i int) string { return "x" }, nil, nil)

	net := netsim.NewNetwork(netsim.Config{Seed: 202})
	recvVM := newVM(t, core.Config{ID: 100, Mode: ids.Replay, World: ids.ClosedWorld, ReplayLogs: rec.recvVM.Logs()})
	sendVM := newVM(t, core.Config{ID: 200, Mode: ids.Replay, World: ids.ClosedWorld, ReplayLogs: rec.sendVM.Logs()})
	renv := NewEnv(recvVM, net, "rx")
	senv := NewEnv(sendVM, net, "tx")

	var extraErr error
	ready := make(chan netsim.Addr, 1)
	recvVM.Start(func(main *core.Thread) {
		sock, err := renv.Bind(main, 7000)
		if err != nil {
			panic(err)
		}
		ready <- sock.Addr()
		if _, _, err := sock.Receive(main); err != nil {
			panic(err)
		}
		_, _, extraErr = sock.Receive(main) // not recorded
		sock.Close(main)
	})
	dest := <-ready
	sendVM.Start(func(main *core.Thread) {
		sock, err := senv.Bind(main, 0)
		if err != nil {
			panic(err)
		}
		for i := 0; i < 5; i++ {
			sock.SendTo(main, dest, []byte("x"))
		}
		sock.Close(main)
	})
	recvVM.Wait()
	sendVM.Wait()
	if !errors.Is(extraErr, ErrDiverged) {
		t.Errorf("extra replay receive returned %v, want ErrDiverged", extraErr)
	}
}

// TestOpenWorldSendDivergenceSaysHow: an open-world send is not re-sent on
// replay, only verified against its record (§5). A replay that sends other
// bytes is told which way they differ — in checksum at equal lengths, in
// length otherwise — and at which event.
func TestOpenWorldSendDivergenceSaysHow(t *testing.T) {
	dest := netsim.Addr{Host: "plain", Port: 7600}
	run := func(vm *core.VM, env *Env, payload string) error {
		var sendErr error
		vm.Start(func(main *core.Thread) {
			sock, err := env.Bind(main, 7601)
			if err != nil {
				panic(err)
			}
			sendErr = sock.SendTo(main, dest, []byte(payload))
			sock.Close(main)
		})
		vm.Wait()
		vm.Close()
		return sendErr
	}
	// Record against a plain socket of the network itself: the non-DJVM peer.
	recNet := netsim.NewNetwork(netsim.Config{Seed: 73})
	if _, err := recNet.DatagramBind(dest.Host, dest.Port); err != nil {
		t.Fatal(err)
	}
	recVM := newVM(t, core.Config{ID: 510, Mode: ids.Record, World: ids.OpenWorld})
	if err := run(recVM, NewEnv(recVM, recNet, "tx"), "datagram-A"); err != nil {
		t.Fatalf("recorded send: %v", err)
	}

	// The send is main's second network event, after the bind.
	event := fmt.Sprint(ids.NetworkEventID{Thread: 0, Event: 1})
	for _, tc := range []struct {
		name, payload string
		want          []string
	}{
		{"same", "datagram-A", nil},
		{"changed byte", "datagram-B", []string{event, "open-write-wide checksum differs: recorded 0x"}},
		{"shorter", "datagram", []string{event, "length differs: recorded 10 bytes, replayed 8"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			repVM := newVM(t, core.Config{ID: 510, Mode: ids.Replay, World: ids.OpenWorld, ReplayLogs: recVM.Logs()})
			err := run(repVM, NewEnv(repVM, netsim.NewNetwork(netsim.Config{}), "tx"), tc.payload)
			if tc.want == nil {
				if err != nil {
					t.Fatalf("faithful replay: %v", err)
				}
				return
			}
			if !errors.Is(err, ErrDiverged) {
				t.Fatalf("diverged send returned %v, want ErrDiverged", err)
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("divergence %q does not say %q", err, want)
				}
			}
		})
	}
}

func TestReassembleDuplicateHalves(t *testing.T) {
	ds := &DatagramSocket{
		reasm: make(map[ids.DGNetworkEventID]*partial),
		pool:  make(map[ids.DGNetworkEventID]*pooled),
	}
	id := ids.DGNetworkEventID{VM: 1, GC: 10}

	if _, ok := ds.reassemble(id, portionFront, []byte("AB")); ok {
		t.Fatal("front half alone completed")
	}
	// Duplicate front before the rear arrives: overwrites, still incomplete.
	if _, ok := ds.reassemble(id, portionFront, []byte("AB")); ok {
		t.Fatal("duplicate front completed")
	}
	got, ok := ds.reassemble(id, portionRear, []byte("CD"))
	if !ok || !bytes.Equal(got, []byte("ABCD")) {
		t.Fatalf("reassemble = %q, %v", got, ok)
	}
	// The entry is consumed; a late duplicate rear starts a fresh partial.
	if _, ok := ds.reassemble(id, portionRear, []byte("CD")); ok {
		t.Fatal("stale rear half completed after consumption")
	}
}

func TestDecodeTrailerRejectsBadFrames(t *testing.T) {
	if _, _, _, err := decodeTrailer([]byte{1, 2, 3}); err == nil {
		t.Error("short frame accepted")
	}
	frame := encodeTrailer([]byte("data"), ids.DGNetworkEventID{VM: 1, GC: 2}, portionWhole)
	frame[len(frame)-1] = 9 // bad portion flag
	if _, _, _, err := decodeTrailer(frame); err == nil {
		t.Error("bad portion flag accepted")
	}
}

func TestBindPortReplayed(t *testing.T) {
	// Ephemeral datagram bind must rebind the recorded port.
	run := func(mode ids.Mode, logs *core.VM) (uint16, *core.VM) {
		var replay *tracelog.Set
		if logs != nil {
			replay = logs.Logs()
		}
		net := netsim.NewNetwork(netsim.Config{
			Chaos: netsim.Chaos{RandomEphemeral: true}, Seed: 301,
		})
		vm := newVM(t, core.Config{ID: 300, Mode: mode, World: ids.ClosedWorld, ReplayLogs: replay})
		env := NewEnv(vm, net, "h")
		var port uint16
		vm.Start(func(main *core.Thread) {
			sock, err := env.Bind(main, 0)
			if err != nil {
				panic(err)
			}
			port = sock.Addr().Port
			sock.Close(main)
		})
		vm.Wait()
		vm.Close()
		return port, vm
	}
	recPort, recVM := run(ids.Record, nil)
	repPort, _ := run(ids.Replay, recVM)
	if recPort != repPort {
		t.Errorf("replay bound port %d, record %d", repPort, recPort)
	}
}
