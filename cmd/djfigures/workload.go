package main

// The synthetic, multi-threaded client-server benchmark of the paper's §6,
// which Tables 1 and 2 measure.
//
// The benchmark is "written to deliberately contain non-determinism in
// updating both shared variables and passing the result of computation over
// these shared variables between the client and the server":
//
//   - the number of connections performed is a shared variable updated
//     *without exclusive access* by the client threads (a racy read +
//     write), and that variable feeds the individual thread computations;
//   - client threads perform multiple connects per session, making the
//     accept/connect pairing nondeterministic under network delay;
//   - both components run extra racy shared-variable loops, so the bulk of
//     critical events are shared-memory accesses (as in the paper, where
//     ~500k critical events accompany a few hundred network events).
//
// Because of these sources of nondeterminism, repeated free executions
// complete with different results; under DJVM record/replay the results
// reproduce exactly (§6: "a perfect replay is observed").

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"repro/internal/core"
	"repro/internal/djsock"
	"repro/internal/netsim"
)

// Params configures one benchmark run.
type Params struct {
	// Threads is the thread count of each component (the tables' first
	// column).
	Threads int
	// Sessions is the number of sessions each client thread performs.
	Sessions int
	// ConnectsPerSession is the number of connects per session ("the client
	// threads perform multiple connects per "session"", §6).
	ConnectsPerSession int
	// MsgBytes is the size of each request and each response.
	MsgBytes int
	// BaseSharedIters racy get+set iterations are split evenly across a
	// component's threads; PerThreadSharedIters more are added per thread.
	// Together they control the "#critical events" column.
	BaseSharedIters      int
	PerThreadSharedIters int
	// ComputePerIter adds non-critical work (bytes hashed) to each shared
	// iteration, modeling application compute between critical events.
	ComputePerIter int
	// Jitter is the RecordJitter knob passed to both components.
	Jitter int
	// Chaos and Seed configure the simulated network.
	Chaos netsim.Chaos
	Seed  int64
}

// DefaultChaos is the network profile used for the tables: enough jitter to
// scramble connection pairing. Stream fragmentation is off so each
// message arrives whole and the per-connection read-call count is
// deterministic — as on the paper's loopback setup — keeping the "#nw
// events" column identical across runs and worlds (§6). The partial-read
// machinery is exercised by the Figure 3 demo and the djsock tests instead.
func DefaultChaos() netsim.Chaos {
	// No injected delays: on the timing-sensitive benchmark, timer
	// granularity would swamp the record-machinery overhead being measured.
	// Connection scrambling still happens — deliveries run on racing
	// goroutines — and the delay-driven paths are exercised by the figure
	// demos and the djsock/djgram tests.
	return netsim.Chaos{RandomEphemeral: true}
}

// ClosedParams are the workload parameters used for Table 1, calibrated so
// the "#critical events" column lands in the paper's magnitude
// (≈490k–780k events as threads go 2→32).
func ClosedParams(threads int) Params {
	return Params{
		Threads:            threads,
		Sessions:           3,
		ConnectsPerSession: 2,
		MsgBytes:           64,
		// Solved from Table 1's #critical events column
		// (crit(t) ≈ 474560 + 9599·t, two events per iteration).
		BaseSharedIters:      237000,
		PerThreadSharedIters: 4800,
		ComputePerIter:       16,
		// 1-in-2000 yields give logical schedule intervals of ~thousands of
		// events (§2.2's "typical" interval length) while still forcing
		// scheduler-driven nondeterminism.
		Jitter: 2000,
		Chaos:  DefaultChaos(),
		Seed:   int64(threads) * 7919,
	}
}

// OpenParams are the workload parameters used for Table 2. The paper's
// open-world runs used a much lighter shared-variable load (≈21k–230k
// critical events) over the same network activity.
func OpenParams(threads int) Params {
	return Params{
		Threads:            threads,
		Sessions:           3,
		ConnectsPerSession: 2,
		MsgBytes:           64,
		// Solved from Table 2's #critical events column
		// (crit(t) ≈ 6808 + 6977·t).
		BaseSharedIters:      3400,
		PerThreadSharedIters: 3489,
		ComputePerIter:       16,
		Jitter:               2000,
		Chaos:                DefaultChaos(),
		Seed:                 int64(threads) * 104729,
	}
}

// totalConnections is how many connections one run establishes.
func (p Params) totalConnections() int {
	return p.Threads * p.Sessions * p.ConnectsPerSession
}

// compute hashes n bytes of scratch, simulating application work between
// critical events.
func compute(seed uint64, n int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], seed)
	for i := 0; i < n; i += 8 {
		h.Write(buf[:])
	}
	return h.Sum64()
}

// Outcome is the application-observable result of one component, used to
// verify that a replay reproduced the recorded execution.
type Outcome struct {
	// ConnCount is the final value of the racy shared connection counter.
	ConnCount int64
	// Accum is the final value of the racy shared accumulator.
	Accum int64
	// Digest folds every thread's observations in thread order.
	Digest uint64
}

func (o Outcome) String() string {
	return fmt.Sprintf("conns=%d accum=%d digest=%016x", o.ConnCount, o.Accum, o.Digest)
}

// serverComponent runs the server side: Threads acceptor/worker threads,
// each handling an equal share of the connections. Every handler reads a
// request, folds it into the racy shared accumulator, computes, and writes
// a response derived from shared state. Alongside, each thread runs its
// share of the racy shared loop.
func serverComponent(vm *core.VM, env *djsock.Env, p Params, ready chan<- uint16, out *Outcome) {
	var connCount core.SharedInt
	var accum core.SharedInt
	perThread := p.totalConnections() / p.Threads
	baseShare := p.BaseSharedIters / p.Threads
	threadDigests := make([]uint64, p.Threads)

	vm.Start(func(main *core.Thread) {
		ss, err := env.Listen(main, 0)
		if err != nil {
			panic(fmt.Sprintf("bench server: listen: %v", err))
		}
		ready <- ss.Port()
		joined := make(chan struct{}, p.Threads)
		for i := 0; i < p.Threads; i++ {
			i := i
			main.Spawn(func(t *core.Thread) {
				defer func() { joined <- struct{}{} }()
				digest := uint64(14695981039346656037)
				// Shared-variable loop: racy get+set pairs.
				for j := 0; j < baseShare+p.PerThreadSharedIters; j++ {
					v := accum.Get(t)
					digest = compute(digest^uint64(v), p.ComputePerIter)
					accum.Set(t, v+1)
				}
				// Connection handling.
				req := make([]byte, p.MsgBytes)
				for c := 0; c < perThread; c++ {
					conn, err := ss.Accept(t)
					if err != nil {
						panic(fmt.Sprintf("bench server: accept: %v", err))
					}
					if err := conn.ReadFull(t, req); err != nil {
						panic(fmt.Sprintf("bench server: read: %v", err))
					}
					// Fold the request into shared state — racily.
					v := connCount.Get(t)
					connCount.Set(t, v+int64(req[0]))
					digest = compute(digest^uint64(v), p.ComputePerIter)

					resp := make([]byte, p.MsgBytes)
					binary.BigEndian.PutUint64(resp, digest)
					resp[8] = byte(v)
					if _, err := conn.Write(t, resp); err != nil {
						panic(fmt.Sprintf("bench server: write: %v", err))
					}
					if err := conn.Close(t); err != nil {
						panic(fmt.Sprintf("bench server: close: %v", err))
					}
				}
				threadDigests[i] = digest
			})
		}
		for i := 0; i < p.Threads; i++ {
			<-joined
		}
		out.ConnCount = connCount.Get(main)
		out.Accum = accum.Get(main)
		d := uint64(1099511628211)
		for _, td := range threadDigests {
			d = d*31 + td
		}
		out.Digest = d
		if err := ss.Close(main); err != nil {
			panic(fmt.Sprintf("bench server: close listener: %v", err))
		}
	})
}

// clientComponent runs the client side: Threads session threads, each
// performing Sessions sessions of ConnectsPerSession connects. The number
// of connections performed is a shared variable updated without exclusive
// access, and its value feeds each thread's computation and the request
// bytes sent to the server (§6).
func clientComponent(vm *core.VM, env *djsock.Env, p Params, serverHost string, port uint16, out *Outcome) {
	var connCount core.SharedInt
	var accum core.SharedInt
	baseShare := p.BaseSharedIters / p.Threads
	threadDigests := make([]uint64, p.Threads)

	vm.Start(func(main *core.Thread) {
		joined := make(chan struct{}, p.Threads)
		for i := 0; i < p.Threads; i++ {
			i := i
			main.Spawn(func(t *core.Thread) {
				defer func() { joined <- struct{}{} }()
				digest := uint64(14695981039346656037)
				for j := 0; j < baseShare+p.PerThreadSharedIters; j++ {
					v := accum.Get(t)
					digest = compute(digest^uint64(v), p.ComputePerIter)
					accum.Set(t, v+1)
				}
				resp := make([]byte, p.MsgBytes)
				for s := 0; s < p.Sessions; s++ {
					for c := 0; c < p.ConnectsPerSession; c++ {
						// Racy connection-count update feeding the request.
						v := connCount.Get(t)
						connCount.Set(t, v+1)
						digest = compute(digest^uint64(v), p.ComputePerIter)

						conn, err := env.Connect(t, netsim.Addr{Host: serverHost, Port: port})
						if err != nil {
							panic(fmt.Sprintf("bench client: connect: %v", err))
						}
						req := make([]byte, p.MsgBytes)
						binary.BigEndian.PutUint64(req, digest)
						req[0] = byte(v + 1)
						if _, err := conn.Write(t, req); err != nil {
							panic(fmt.Sprintf("bench client: write: %v", err))
						}
						if _, err := conn.Available(t); err != nil {
							panic(fmt.Sprintf("bench client: available: %v", err))
						}
						if err := conn.ReadFull(t, resp); err != nil {
							panic(fmt.Sprintf("bench client: read: %v", err))
						}
						digest = compute(digest^binary.BigEndian.Uint64(resp), p.ComputePerIter)
						if err := conn.Close(t); err != nil {
							panic(fmt.Sprintf("bench client: close: %v", err))
						}
					}
				}
				threadDigests[i] = digest
			})
		}
		for i := 0; i < p.Threads; i++ {
			<-joined
		}
		out.ConnCount = connCount.Get(main)
		out.Accum = accum.Get(main)
		d := uint64(1099511628211)
		for _, td := range threadDigests {
			d = d*31 + td
		}
		out.Digest = d
	})
}
