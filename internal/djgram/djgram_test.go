package djgram

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/tracelog"
)

func newVM(t *testing.T, cfg core.Config) *core.VM {
	t.Helper()
	vm, err := core.NewVM(cfg)
	if err != nil {
		t.Fatalf("NewVM: %v", err)
	}
	return vm
}

// lossyChaos injects heavy datagram chaos: loss, duplication, reordering.
func lossyChaos() netsim.Chaos {
	return netsim.Chaos{
		DeliverDelayMax: 300 * time.Microsecond,
		LossRate:        0.15,
		DupRate:         0.15,
		ReorderRate:     0.3,
	}
}

// udpApp: the sender fires nSend numbered datagrams; the receiver delivers
// exactly nRecv of them to the application, recording payloads in order.
type udpAppResult struct {
	payloads []string
	recvVM   *core.VM
	sendVM   *core.VM
}

func runUDPApp(t *testing.T, mode ids.Mode, seed int64, nSend, nRecv int,
	chaos netsim.Chaos, maxDatagram int, payloadFor func(i int) string,
	sendLogs, recvLogs *tracelog.Set) udpAppResult {
	t.Helper()
	net := netsim.NewNetwork(netsim.Config{Chaos: chaos, Seed: seed, MaxDatagram: maxDatagram})

	recvVM := newVM(t, core.Config{ID: 100, Mode: mode, World: ids.ClosedWorld, ReplayLogs: recvLogs})
	sendVM := newVM(t, core.Config{ID: 200, Mode: mode, World: ids.ClosedWorld, ReplayLogs: sendLogs})
	renv := NewEnv(recvVM, net, "rx")
	senv := NewEnv(sendVM, net, "tx")

	res := udpAppResult{recvVM: recvVM, sendVM: sendVM}
	ready := make(chan netsim.Addr, 1)

	recvVM.Start(func(main *core.Thread) {
		sock, err := renv.Bind(main, 7000)
		if err != nil {
			panic(err)
		}
		ready <- sock.Addr()
		for i := 0; i < nRecv; i++ {
			data, _, err := sock.Receive(main)
			if err != nil {
				panic(err)
			}
			res.payloads = append(res.payloads, string(data))
		}
		if err := sock.Close(main); err != nil {
			panic(err)
		}
	})
	dest := <-ready

	sendVM.Start(func(main *core.Thread) {
		sock, err := senv.Bind(main, 0)
		if err != nil {
			panic(err)
		}
		for i := 0; i < nSend; i++ {
			if err := sock.SendTo(main, dest, []byte(payloadFor(i))); err != nil {
				panic(err)
			}
		}
		if err := sock.Close(main); err != nil {
			panic(err)
		}
	})

	done := make(chan struct{})
	go func() {
		recvVM.Wait()
		sendVM.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("udp app deadlocked in %v mode", mode)
	}
	recvVM.Close()
	sendVM.Close()
	return res
}

func TestLossyUDPRecordReplay(t *testing.T) {
	pf := func(i int) string { return fmt.Sprintf("datagram-%03d", i) }
	rec := runUDPApp(t, ids.Record, 61, 200, 50, lossyChaos(), 0, pf, nil, nil)
	if len(rec.payloads) != 50 {
		t.Fatalf("record delivered %d datagrams, want 50", len(rec.payloads))
	}

	rep := runUDPApp(t, ids.Replay, 3131, 200, 50, lossyChaos(), 0, pf,
		rec.sendVM.Logs(), rec.recvVM.Logs())
	for i := range rec.payloads {
		if rec.payloads[i] != rep.payloads[i] {
			t.Fatalf("delivery %d: replay %q, record %q", i, rep.payloads[i], rec.payloads[i])
		}
	}
}

func TestUDPDeliveryOrderVariesAcrossFreeRuns(t *testing.T) {
	pf := func(i int) string { return fmt.Sprintf("datagram-%03d", i) }
	seen := map[string]bool{}
	for run := 0; run < 8; run++ {
		res := runUDPApp(t, ids.Record, int64(500+run), 200, 50, lossyChaos(), 0, pf, nil, nil)
		key := ""
		for _, p := range res.payloads {
			key += p + "|"
		}
		seen[key] = true
		if len(seen) >= 2 {
			return
		}
	}
	t.Skip("udp delivery order identical across free runs")
}

func TestDuplicatedDatagramsReplayed(t *testing.T) {
	pf := func(i int) string { return fmt.Sprintf("dup-%03d", i) }
	chaos := lossyChaos()
	chaos.DupRate = 0.5
	chaos.LossRate = 0

	var rec udpAppResult
	dupSeen := false
	for seed := int64(70); seed < 90 && !dupSeen; seed++ {
		rec = runUDPApp(t, ids.Record, seed, 60, 60, chaos, 0, pf, nil, nil)
		counts := map[string]int{}
		for _, p := range rec.payloads {
			counts[p]++
			if counts[p] > 1 {
				dupSeen = true
			}
		}
	}
	if !dupSeen {
		t.Skip("no duplicated delivery observed during record")
	}
	rep := runUDPApp(t, ids.Replay, 9191, 60, 60, chaos, 0, pf,
		rec.sendVM.Logs(), rec.recvVM.Logs())
	for i := range rec.payloads {
		if rec.payloads[i] != rep.payloads[i] {
			t.Fatalf("delivery %d: replay %q, record %q", i, rep.payloads[i], rec.payloads[i])
		}
	}
}

func TestSplitDatagramsRecombine(t *testing.T) {
	// Payloads near the datagram ceiling force the meta trailer to split
	// every datagram into front/rear halves (§4.2.2).
	const maxDG = 128
	big := bytes.Repeat([]byte("Z"), 120)
	pf := func(i int) string { return fmt.Sprintf("%03d:%s", i, big[:100+i%20]) }

	chaos := netsim.Chaos{
		DeliverDelayMax: 200 * time.Microsecond,
		ReorderRate:     0.5, // halves arrive out of order
	}
	rec := runUDPApp(t, ids.Record, 81, 20, 20, chaos, maxDG, pf, nil, nil)
	for i, p := range rec.payloads {
		if len(p) < 100 {
			t.Fatalf("record payload %d truncated: %d bytes", i, len(p))
		}
	}
	rep := runUDPApp(t, ids.Replay, 4141, 20, 20, chaos, maxDG, pf,
		rec.sendVM.Logs(), rec.recvVM.Logs())
	for i := range rec.payloads {
		if rec.payloads[i] != rep.payloads[i] {
			t.Fatalf("delivery %d: replay %q, record %q", i, rep.payloads[i], rec.payloads[i])
		}
	}
}

// multicastApp: one sender, two receiver VMs joined to a group; each
// receiver delivers nRecv datagrams.
func runMulticastApp(t *testing.T, mode ids.Mode, seed int64, nSend, nRecv int,
	logs [3]*tracelog.Set) ([3]*core.VM, [2][]string) {
	t.Helper()
	net := netsim.NewNetwork(netsim.Config{Chaos: lossyChaos(), Seed: seed})

	var vms [3]*core.VM
	var got [2][]string
	vms[0] = newVM(t, core.Config{ID: 400, Mode: mode, World: ids.ClosedWorld, ReplayLogs: logs[0]})
	vms[1] = newVM(t, core.Config{ID: 401, Mode: mode, World: ids.ClosedWorld, ReplayLogs: logs[1]})
	vms[2] = newVM(t, core.Config{ID: 402, Mode: mode, World: ids.ClosedWorld, ReplayLogs: logs[2]})

	readyCount := make(chan struct{}, 2)
	for r := 0; r < 2; r++ {
		r := r
		env := NewEnv(vms[r], net, fmt.Sprintf("member%d", r))
		vms[r].Start(func(main *core.Thread) {
			sock, err := env.Bind(main, 9000)
			if err != nil {
				panic(err)
			}
			if err := sock.JoinGroup(main, "group-A"); err != nil {
				panic(err)
			}
			readyCount <- struct{}{}
			for i := 0; i < nRecv; i++ {
				data, _, err := sock.Receive(main)
				if err != nil {
					panic(err)
				}
				got[r] = append(got[r], string(data))
			}
			sock.Close(main)
		})
	}
	<-readyCount
	<-readyCount

	senv := NewEnv(vms[2], net, "mcsender")
	vms[2].Start(func(main *core.Thread) {
		sock, err := senv.Bind(main, 0)
		if err != nil {
			panic(err)
		}
		for i := 0; i < nSend; i++ {
			if err := sock.SendTo(main, netsim.Addr{Host: "group-A", Port: 9000},
				[]byte(fmt.Sprintf("mc-%03d", i))); err != nil {
				panic(err)
			}
		}
		sock.Close(main)
	})

	done := make(chan struct{})
	go func() {
		for _, vm := range vms {
			vm.Wait()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("multicast app deadlocked in %v mode", mode)
	}
	for _, vm := range vms {
		vm.Close()
	}
	return vms, got
}

func TestMulticastRecordReplay(t *testing.T) {
	recVMs, recGot := runMulticastApp(t, ids.Record, 91, 120, 30, [3]*tracelog.Set{})
	for r := 0; r < 2; r++ {
		if len(recGot[r]) != 30 {
			t.Fatalf("record member %d delivered %d datagrams, want 30", r, len(recGot[r]))
		}
	}
	_, repGot := runMulticastApp(t, ids.Replay, 5151, 120, 30, [3]*tracelog.Set{
		recVMs[0].Logs(), recVMs[1].Logs(), recVMs[2].Logs(),
	})
	for r := 0; r < 2; r++ {
		for i := range recGot[r] {
			if recGot[r][i] != repGot[r][i] {
				t.Fatalf("member %d delivery %d: replay %q, record %q",
					r, i, repGot[r][i], recGot[r][i])
			}
		}
	}
}

func TestOpenWorldDatagramReplayWithoutSender(t *testing.T) {
	// Record: an open-world DJVM receives from a plain (non-DJVM) sender.
	recNet := netsim.NewNetwork(netsim.Config{Seed: 71})
	plainVM := newVM(t, core.Config{ID: 500, Mode: ids.Passthrough})
	plainEnv := NewEnv(plainVM, recNet, "plain")

	recVM := newVM(t, core.Config{ID: 501, Mode: ids.Record, World: ids.OpenWorld})
	recEnv := NewEnv(recVM, recNet, "rx")
	var recGot []string
	ready := make(chan netsim.Addr, 1)
	recVM.Start(func(main *core.Thread) {
		sock, err := recEnv.Bind(main, 7500)
		if err != nil {
			panic(err)
		}
		ready <- sock.Addr()
		for i := 0; i < 5; i++ {
			data, src, err := sock.Receive(main)
			if err != nil {
				panic(err)
			}
			recGot = append(recGot, fmt.Sprintf("%s@%s", data, src.Host))
		}
		sock.Close(main)
	})
	dest := <-ready
	plainVM.Start(func(main *core.Thread) {
		sock, err := plainEnv.Bind(main, 0)
		if err != nil {
			panic(err)
		}
		for i := 0; i < 5; i++ {
			if err := sock.SendTo(main, dest, []byte(fmt.Sprintf("plain-%d", i))); err != nil {
				panic(err)
			}
		}
		sock.Close(main)
	})
	recVM.Wait()
	plainVM.Wait()
	recVM.Close()
	plainVM.Close()

	// Replay: empty network, sender absent.
	repVM := newVM(t, core.Config{ID: 501, Mode: ids.Replay, World: ids.OpenWorld, ReplayLogs: recVM.Logs()})
	repEnv := NewEnv(repVM, netsim.NewNetwork(netsim.Config{}), "rx")
	var repGot []string
	repVM.Start(func(main *core.Thread) {
		sock, err := repEnv.Bind(main, 7500)
		if err != nil {
			panic(err)
		}
		for i := 0; i < 5; i++ {
			data, src, err := sock.Receive(main)
			if err != nil {
				panic(err)
			}
			repGot = append(repGot, fmt.Sprintf("%s@%s", data, src.Host))
		}
		sock.Close(main)
	})
	repVM.Wait()
	repVM.Close()

	if len(recGot) != len(repGot) {
		t.Fatalf("record delivered %d, replay %d", len(recGot), len(repGot))
	}
	for i := range recGot {
		if recGot[i] != repGot[i] {
			t.Errorf("delivery %d: replay %q, record %q", i, repGot[i], recGot[i])
		}
	}
}

func TestSplitFramesRoundTrip(t *testing.T) {
	id := ids.DGNetworkEventID{VM: 3, GC: 12345}
	for _, n := range []int{0, 1, 50, 100, 101, 150, 200} {
		data := bytes.Repeat([]byte{0xAB}, n)
		frames, err := splitFrames(data, id, 100)
		if err != nil {
			t.Fatalf("splitFrames(%d): %v", n, err)
		}
		wantFrames := 1
		if n > 100 {
			wantFrames = 2
		}
		if len(frames) != wantFrames {
			t.Fatalf("splitFrames(%d) produced %d frames, want %d", n, len(frames), wantFrames)
		}
		var rebuilt []byte
		for i, f := range frames {
			payload, gotID, portion, err := decodeTrailer(f)
			if err != nil {
				t.Fatalf("decodeTrailer: %v", err)
			}
			if gotID != id {
				t.Fatalf("frame %d id %v, want %v", i, gotID, id)
			}
			if wantFrames == 1 && portion != portionWhole {
				t.Fatalf("single frame has portion %d", portion)
			}
			rebuilt = append(rebuilt, payload...)
		}
		if !bytes.Equal(rebuilt, data) {
			t.Fatalf("splitFrames(%d) round trip lost data", n)
		}
	}
	if _, err := splitFrames(make([]byte, 201), id, 100); err == nil {
		t.Error("payload beyond two-way split accepted")
	}
}
