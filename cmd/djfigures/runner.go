package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/djsock"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/tracelog"
)

// DJVM identities used by the benchmark, logged and reused across phases.
const (
	ServerID ids.DJVMID = 11
	ClientID ids.DJVMID = 22
)

const serverHost, clientHost = "bench-server", "bench-client"

// ComponentSpec configures one component (server or client) of a run.
type ComponentSpec struct {
	// Enabled=false skips the component entirely — an open-world replay runs
	// without its non-DJVM peer (§5).
	Enabled bool
	Mode    ids.Mode
	World   ids.World
	// ReplayLogs supplies the component's recorded logs in replay mode.
	ReplayLogs *tracelog.Set
}

// Spec configures one benchmark run.
type Spec struct {
	Params Params
	Server ComponentSpec
	Client ComponentSpec
	// SeedOffset perturbs the network chaos seed (replay runs use a
	// different seed than record runs to demonstrate chaos-independence).
	SeedOffset int64
}

// ComponentStats are the per-component quantities of the paper's tables.
type ComponentStats struct {
	CriticalEvents uint64
	NetworkEvents  uint64
	LogBytes       int
	Outcome        Outcome
}

// RunResult is the outcome of one benchmark run.
type RunResult struct {
	Server, Client ComponentStats
	// Duration is the wall time from component start to joint completion.
	Duration time.Duration
	// Logs holds the recorded log sets of recording components (nil
	// otherwise).
	ServerLogs, ClientLogs *tracelog.Set
}

// Run executes the benchmark per spec.
func Run(spec Spec) (RunResult, error) {
	p := spec.Params
	if p.Threads <= 0 {
		return RunResult{}, fmt.Errorf("bench: Threads must be positive")
	}
	if p.totalConnections()%p.Threads != 0 {
		return RunResult{}, fmt.Errorf("bench: %d connections do not divide evenly over %d server threads",
			p.totalConnections(), p.Threads)
	}
	net := netsim.NewNetwork(netsim.Config{Chaos: p.Chaos, Seed: p.Seed + spec.SeedOffset})

	mkVM := func(id ids.DJVMID, cs ComponentSpec, peer string) (*core.VM, error) {
		peers := map[string]bool{peer: true}
		return core.NewVM(core.Config{
			ID:           id,
			Mode:         cs.Mode,
			World:        cs.World,
			DJVMPeers:    peers,
			ReplayLogs:   cs.ReplayLogs,
			RecordJitter: p.Jitter,
		})
	}

	var (
		serverVM, clientVM   *core.VM
		serverOut, clientOut Outcome
		res                  RunResult
	)

	start := time.Now()

	port := uint16(1) // placeholder when the server is absent (open-world client replay)
	if spec.Server.Enabled {
		vm, err := mkVM(ServerID, spec.Server, clientHost)
		if err != nil {
			return RunResult{}, fmt.Errorf("bench: server vm: %w", err)
		}
		serverVM = vm
		env := djsock.NewEnv(vm, net, serverHost)
		ready := make(chan uint16, 1)
		serverComponent(vm, env, p, ready, &serverOut)
		port = <-ready
	}
	if spec.Client.Enabled {
		vm, err := mkVM(ClientID, spec.Client, serverHost)
		if err != nil {
			return RunResult{}, fmt.Errorf("bench: client vm: %w", err)
		}
		clientVM = vm
		env := djsock.NewEnv(vm, net, clientHost)
		clientComponent(vm, env, p, serverHost, port, &clientOut)
	}

	done := make(chan struct{})
	go func() {
		if serverVM != nil {
			serverVM.Wait()
		}
		if clientVM != nil {
			clientVM.Wait()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		return RunResult{}, fmt.Errorf("bench: run deadlocked (threads=%d)", p.Threads)
	}
	res.Duration = time.Since(start)

	if serverVM != nil {
		serverVM.Close()
		st := serverVM.Stats()
		res.Server = ComponentStats{
			CriticalEvents: st.CriticalEvents,
			NetworkEvents:  st.NetworkEvents,
			Outcome:        serverOut,
		}
		if logs := serverVM.Logs(); logs != nil {
			res.Server.LogBytes = logs.TotalSize()
			res.ServerLogs = logs
		}
	}
	if clientVM != nil {
		clientVM.Close()
		st := clientVM.Stats()
		res.Client = ComponentStats{
			CriticalEvents: st.CriticalEvents,
			NetworkEvents:  st.NetworkEvents,
			Outcome:        clientOut,
		}
		if logs := clientVM.Logs(); logs != nil {
			res.Client.LogBytes = logs.TotalSize()
			res.ClientLogs = logs
		}
	}
	return res, nil
}

// RunClosed runs both components in the given mode in the closed world
// (Table 1's configuration).
func RunClosed(p Params, mode ids.Mode, serverLogs, clientLogs *tracelog.Set) (RunResult, error) {
	seedOffset := int64(0)
	if mode == ids.Replay {
		seedOffset = 7777
	}
	return Run(Spec{
		Params:     p,
		Server:     ComponentSpec{Enabled: true, Mode: mode, World: ids.ClosedWorld, ReplayLogs: serverLogs},
		Client:     ComponentSpec{Enabled: true, Mode: mode, World: ids.ClosedWorld, ReplayLogs: clientLogs},
		SeedOffset: seedOffset,
	})
}

// RunOpen runs the benchmark in the open-world configuration: exactly one
// component is a DJVM (Table 2). During record the other component runs as a
// plain VM; during replay it is absent.
func RunOpen(p Params, djvmServer bool, mode ids.Mode, logs *tracelog.Set) (RunResult, error) {
	srv := ComponentSpec{Enabled: true, Mode: ids.Passthrough}
	cli := ComponentSpec{Enabled: true, Mode: ids.Passthrough}
	target := &cli
	if djvmServer {
		target = &srv
	}
	target.Mode = mode
	target.World = ids.OpenWorld
	target.ReplayLogs = logs

	seedOffset := int64(0)
	if mode == ids.Replay {
		seedOffset = 7777
		// The non-DJVM component does not participate in replay.
		if djvmServer {
			cli.Enabled = false
		} else {
			srv.Enabled = false
		}
	}
	return Run(Spec{Params: p, Server: srv, Client: cli, SeedOffset: seedOffset})
}

// RunBaseline runs both components as plain VMs — the unmodified-JVM
// baseline for the rec ovhd column.
func RunBaseline(p Params) (RunResult, error) {
	return Run(Spec{
		Params: p,
		Server: ComponentSpec{Enabled: true, Mode: ids.Passthrough},
		Client: ComponentSpec{Enabled: true, Mode: ids.Passthrough},
	})
}
