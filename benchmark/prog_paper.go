package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/djsock"
	"repro/internal/ids"
	"repro/internal/netsim"
)

// The paper's §6 program, written against the layers directly: a server and a
// client component of `threads` threads each. Every thread first runs a racy
// get+set loop on its component's shared accumulator, then the client threads
// connect, send a request fed by a racy connection counter, and read the
// server's reply, which in turn depends on the server's racy state. Free runs
// differ; a replay must reproduce every digest.

type paperParams struct {
	open           bool // the server is the only DJVM (paper Table 2's setup)
	threads        int
	iters          int // get+set iterations per thread, on each component
	connsPerThread int
	msgBytes       int
	// request and reply templates, one per thread, generated from the seed.
	requests, replies [][]byte
}

const digestPrime = 1099511628211

func fold(digest, v uint64) uint64 { return (digest ^ v) * digestPrime }

func buildSharedMem(scale float64, seed int64) *program {
	// 2 components x 8 threads x 344000 iterations x 2 events = 11.0 M
	// critical events; 6 connects per client thread, 64-byte messages.
	return paperProgram(paperParams{
		threads:        8,
		iters:          scaled(344000, scale, 50),
		connsPerThread: 6,
		msgBytes:       64,
	}, seed)
}

func buildNetOpen(scale float64, seed int64) *program {
	// 32000 connections, 1 KiB each way, no shared loop: every logged byte
	// is a request's content.
	return paperProgram(paperParams{
		open:           true,
		threads:        8,
		connsPerThread: scaled(4000, scale, 4),
		msgBytes:       1024,
	}, seed)
}

func paperProgram(p paperParams, seed int64) *program {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < p.threads; i++ {
		req, rep := make([]byte, p.msgBytes), make([]byte, p.msgBytes)
		rng.Read(req)
		rng.Read(rep)
		p.requests, p.replies = append(p.requests, req), append(p.replies, rep)
	}
	world := ids.ClosedWorld
	if p.open {
		world = ids.OpenWorld
	}
	return &program{
		specs: []vmSpec{
			{name: "server", id: 11, djvm: true, world: world},
			{name: "client", id: 22, djvm: !p.open, world: world},
		},
		// No injected delays: timer granularity would swamp the mechanism
		// being measured. Connection pairing is still scrambled by the racing
		// delivery goroutines.
		chaos: netsim.Chaos{RandomEphemeral: true},
		// One yield in 2000 events gives schedule intervals of thousands of
		// events, the paper's "typical" interval length (§2.2).
		jitter: 2000,
		start:  func(e *phaseEnv) func() outcome { return p.start(e) },
	}
}

func (p paperParams) start(e *phaseEnv) func() outcome {
	out := outcome{}
	ready := make(chan uint16, 1)
	if vm := e.vms["server"]; vm != nil {
		digests := make([]uint64, p.threads+2)
		out["server"] = digests
		p.startServer(e, vm, ready, digests)
	}
	if vm := e.vms["client"]; vm != nil {
		digests := make([]uint64, p.threads+2)
		out["client"] = digests
		select {
		case port := <-ready:
			p.startClient(e, vm, port, digests)
		case <-e.failed:
		}
	}
	e.note("conns", float64(p.threads*p.connsPerThread))
	return func() outcome { return out }
}

// sharedLoop is the racy get+set loop both components run.
func (p paperParams) sharedLoop(t *core.Thread, tt *threadTrace, accum *core.SharedInt, digest uint64) uint64 {
	for j := 0; j < p.iters; j++ {
		s := tt.hot(spShared)
		v := accum.Get(t)
		tt.hotEnd(s)
		digest = fold(digest, uint64(v))
		s = tt.hot(spShared)
		accum.Set(t, v+1)
		tt.hotEnd(s)
	}
	return digest
}

func (p paperParams) startServer(e *phaseEnv, vm *core.VM, ready chan<- uint16, digests []uint64) {
	env := djsock.NewEnv(vm, e.net, "server")
	connCount, accum := new(core.SharedInt), new(core.SharedInt)
	vm.Start(e.thread("server", "main", func(main *core.Thread, tt *threadTrace) {
		tt.begin(spListen)
		ss, err := env.Listen(main, 0)
		tt.end()
		if err != nil {
			e.fail(fmt.Errorf("server listen: %w", err))
			return
		}
		ready <- ss.Port()
		workers := make([]*core.Thread, p.threads)
		for i := range workers {
			i := i
			workers[i] = main.Spawn(e.thread("server", "worker", func(t *core.Thread, tt *threadTrace) {
				digest := p.sharedLoop(t, tt, accum, fold(0, uint64(i)))
				req := make([]byte, p.msgBytes)
				for c := 0; c < p.connsPerThread; c++ {
					tt.begin(spAccept)
					conn, err := ss.Accept(t)
					tt.end()
					if err != nil {
						e.fail(fmt.Errorf("server accept: %w", err))
						return
					}
					tt.begin(spRead)
					err = conn.ReadFull(t, req)
					tt.end()
					if err != nil {
						e.fail(fmt.Errorf("server read: %w", err))
						return
					}
					// Fold the request into shared state, racily.
					s := tt.hot(spShared)
					v := connCount.Get(t)
					tt.hotEnd(s)
					s = tt.hot(spShared)
					connCount.Set(t, v+int64(req[8]))
					tt.hotEnd(s)
					digest = fold(digest, uint64(v)^binary.BigEndian.Uint64(req))

					resp := append([]byte(nil), p.replies[i]...)
					binary.BigEndian.PutUint64(resp, digest)
					resp[8] = byte(v)
					tt.begin(spWrite)
					_, err = conn.Write(t, resp)
					tt.end()
					if err != nil {
						e.fail(fmt.Errorf("server write: %w", err))
						return
					}
					tt.begin(spClose)
					err = conn.Close(t)
					tt.end()
					if err != nil {
						e.fail(fmt.Errorf("server close: %w", err))
						return
					}
				}
				digests[i] = digest
			}))
		}
		for _, w := range workers {
			main.Join(w)
		}
		digests[p.threads] = uint64(connCount.Get(main))
		digests[p.threads+1] = uint64(accum.Get(main))
		tt.begin(spClose)
		err = ss.Close(main)
		tt.end()
		if err != nil {
			e.fail(fmt.Errorf("server close listener: %w", err))
		}
	}))
}

func (p paperParams) startClient(e *phaseEnv, vm *core.VM, port uint16, digests []uint64) {
	env := djsock.NewEnv(vm, e.net, "client")
	connCount, accum := new(core.SharedInt), new(core.SharedInt)
	addr := netsim.Addr{Host: "server", Port: port}
	vm.Start(e.thread("client", "main", func(main *core.Thread, tt *threadTrace) {
		workers := make([]*core.Thread, p.threads)
		for i := range workers {
			i := i
			workers[i] = main.Spawn(e.thread("client", "worker", func(t *core.Thread, tt *threadTrace) {
				digest := p.sharedLoop(t, tt, accum, fold(0, uint64(i)))
				resp := make([]byte, p.msgBytes)
				for c := 0; c < p.connsPerThread; c++ {
					// The racy connection count feeds the request.
					s := tt.hot(spShared)
					v := connCount.Get(t)
					tt.hotEnd(s)
					s = tt.hot(spShared)
					connCount.Set(t, v+1)
					tt.hotEnd(s)
					digest = fold(digest, uint64(v))

					tt.begin(spConnect)
					conn, err := env.Connect(t, addr)
					tt.end()
					if err != nil {
						e.fail(fmt.Errorf("client connect: %w", err))
						return
					}
					req := append([]byte(nil), p.requests[i]...)
					binary.BigEndian.PutUint64(req, digest)
					req[8] = byte(v + 1)
					tt.begin(spWrite)
					_, err = conn.Write(t, req)
					tt.end()
					if err != nil {
						e.fail(fmt.Errorf("client write: %w", err))
						return
					}
					tt.begin(spRead)
					err = conn.ReadFull(t, resp)
					tt.end()
					if err != nil {
						e.fail(fmt.Errorf("client read: %w", err))
						return
					}
					digest = fold(digest, binary.BigEndian.Uint64(resp)^uint64(resp[8]))
					tt.begin(spClose)
					err = conn.Close(t)
					tt.end()
					if err != nil {
						e.fail(fmt.Errorf("client close: %w", err))
						return
					}
				}
				digests[i] = digest
			}))
		}
		for _, w := range workers {
			main.Join(w)
		}
		digests[p.threads] = uint64(connCount.Get(main))
		digests[p.threads+1] = uint64(accum.Get(main))
	}))
}
