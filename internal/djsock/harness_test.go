package djsock

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/tracelog"
)

// chaosProfile is the default nondeterminism profile used by these tests:
// enough jitter to scramble connection order and fragment streams.
func chaosProfile() netsim.Chaos {
	return netsim.Chaos{
		ConnectDelayMax: 2 * time.Millisecond,
		DeliverDelayMax: 500 * time.Microsecond,
		MaxSegment:      7,
		RandomEphemeral: true,
	}
}

func newVM(t *testing.T, cfg core.Config) *core.VM {
	t.Helper()
	vm, err := core.NewVM(cfg)
	if err != nil {
		t.Fatalf("NewVM(%+v): %v", cfg, err)
	}
	return vm
}

// twoVMApp describes a client/server application whose two components run on
// two VMs over one network. The server half must create its listener before
// signaling readiness; the harness starts the client half afterwards.
type twoVMApp struct {
	server func(e *Env, main *core.Thread, ready chan<- uint16)
	client func(e *Env, main *core.Thread, port uint16)
}

// runTwoVMs executes app with both components in the given mode and returns
// both VMs (closed). Replay runs pass the record-phase logs.
func runTwoVMs(t *testing.T, app twoVMApp, mode ids.Mode, seed int64,
	serverLogs, clientLogs *tracelog.Set) (serverVM, clientVM *core.VM) {
	t.Helper()
	net := netsim.NewNetwork(netsim.Config{Chaos: chaosProfile(), Seed: seed})

	serverVM = newVM(t, core.Config{ID: 10, Mode: mode, World: ids.ClosedWorld, ReplayLogs: serverLogs})
	clientVM = newVM(t, core.Config{ID: 20, Mode: mode, World: ids.ClosedWorld, ReplayLogs: clientLogs})
	senv := NewEnv(serverVM, net, "server")
	cenv := NewEnv(clientVM, net, "client")

	ready := make(chan uint16, 1)
	serverVM.Start(func(main *core.Thread) {
		app.server(senv, main, ready)
	})
	port := <-ready
	clientVM.Start(func(main *core.Thread) {
		app.client(cenv, main, port)
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
		t.Fatalf("two-VM app deadlocked in %v mode", mode)
	}
	serverVM.Close()
	clientVM.Close()
	return serverVM, clientVM
}

// recordThenReplay runs app in record mode, then replays it on a network
// with a different chaos seed, returning the VMs of both runs.
func recordThenReplay(t *testing.T, app twoVMApp) (recS, recC, repS, repC *core.VM) {
	t.Helper()
	recS, recC = runTwoVMs(t, app, ids.Record, 1, nil, nil)
	repS, repC = runTwoVMs(t, app, ids.Replay, 99, recS.Logs(), recC.Logs())
	return recS, recC, repS, repC
}
