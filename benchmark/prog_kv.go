package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/djgram"
	"repro/internal/djrpc"
	"repro/internal/djsock"
	"repro/internal/ids"
	"repro/internal/netsim"
)

// A key-value store served over djrpc, the program of kv-cluster and
// kv-durable. Clients run a closed loop: a thread issues its next call only
// after the reply to the previous one, one connection per call.

const (
	kvKeys     = 256
	kvValBytes = 64
	kvClients  = 4
)

// kvOp is one generated client operation.
type kvOp struct {
	put bool
	key string
	val string
}

// genOps draws each client thread's operations from the seed: 2/3 put and
// 1/3 get over kvKeys keys, kvValBytes-byte values.
func genOps(seed int64, clients, perClient int) [][]kvOp {
	ops := make([][]kvOp, clients)
	for c := range ops {
		rng := rand.New(rand.NewSource(seed*1009 + int64(c)))
		ops[c] = make([]kvOp, perClient)
		for i := range ops[c] {
			op := kvOp{put: rng.Intn(3) != 0, key: fmt.Sprintf("k%03d", rng.Intn(kvKeys))}
			if op.put {
				val := make([]byte, kvValBytes)
				rng.Read(val)
				op.val = string(val)
			}
			ops[c][i] = op
		}
	}
	return ops
}

func encodePut(key, val string) []byte {
	out := make([]byte, 1+len(key)+len(val))
	out[0] = byte(len(key))
	copy(out[1:], key)
	copy(out[1+len(key):], val)
	return out
}

// decodePut is encodePut's inverse; an empty key marks the end-of-stream
// datagram the primary sends its replicas.
func decodePut(b []byte) (key, val string) {
	if len(b) == 0 || int(b[0]) > len(b)-1 {
		return "", ""
	}
	n := int(b[0])
	return string(b[1 : 1+n]), string(b[1+n:])
}

// kvStore is a primary's state: a map guarded by a monitor (so only its
// synchronization is replayed, not each access) and a racy served counter.
type kvStore struct {
	mon    *core.Monitor
	data   map[string]string
	served core.SharedInt
}

func newKVStore() *kvStore {
	return &kvStore{mon: core.NewMonitor(), data: map[string]string{}}
}

func (s *kvStore) digest() uint64 { return digestMap(s.data) }

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func digestMap(m map[string]string) uint64 {
	h := fnv.New64a()
	for _, k := range sortedKeys(m) {
		h.Write([]byte(k))
		h.Write([]byte{0})
		h.Write([]byte(m[k]))
		h.Write([]byte{0xff})
	}
	return h.Sum64()
}

// bump is the racy served-operations update: two critical events.
func (s *kvStore) bump(t *core.Thread, tt *threadTrace) {
	sp := tt.hot(spShared)
	v := s.served.Get(t)
	tt.hotEnd(sp)
	sp = tt.hot(spShared)
	s.served.Set(t, v+1)
	tt.hotEnd(sp)
}

// server builds one worker thread's djrpc server. Handlers close over the
// worker's trace, so each worker has its own; afterPut, when set, runs inside
// the put handler (kv-cluster multicasts the update there).
func (s *kvStore) server(env *djsock.Env, tt *threadTrace, afterPut func(t *core.Thread, body []byte) error) *djrpc.Server {
	srv := djrpc.NewServer(env)
	srv.Handle("put", func(t *core.Thread, body []byte) ([]byte, error) {
		tt.begin(spHandler)
		defer tt.end()
		key, val := decodePut(body)
		sp := tt.hot(spMonitor)
		s.mon.Enter(t)
		s.data[key] = val
		s.mon.Exit(t)
		tt.hotEnd(sp)
		s.bump(t, tt)
		if afterPut != nil {
			if err := afterPut(t, body); err != nil {
				return nil, err
			}
		}
		return []byte("ok"), nil
	})
	srv.Handle("get", func(t *core.Thread, body []byte) ([]byte, error) {
		tt.begin(spHandler)
		defer tt.end()
		sp := tt.hot(spMonitor)
		s.mon.Enter(t)
		val := s.data[string(body)]
		s.mon.Exit(t)
		tt.hotEnd(sp)
		s.bump(t, tt)
		return []byte(val), nil
	})
	return srv
}

// runClient issues ops in a closed loop and returns the digest of every
// reply. Each call is timed on the client side; a failed call is a failed
// operation and the loop goes on.
func runClient(e *phaseEnv, t *core.Thread, tt *threadTrace, cl *djrpc.Client, ops []kvOp, h uint64) uint64 {
	latency := make([]float64, 0, len(ops))
	fails := 0
	for _, op := range ops {
		method, body := "get", []byte(op.key)
		if op.put {
			method, body = "put", encodePut(op.key, op.val)
		}
		tt.begin(spCall)
		start := time.Now()
		reply, err := cl.Call(t, method, body)
		d := time.Since(start)
		tt.end()
		if err != nil {
			fails++
			h = fold(h, 1)
			continue
		}
		latency = append(latency, us(d))
		for _, b := range reply {
			h = fold(h, uint64(b))
		}
	}
	e.addOps(latency, len(ops), fails)
	return h
}

// --- kv-cluster -------------------------------------------------------------

const (
	replicaPort  = 7100
	updateGroup  = "kv.updates"
	updateBursts = 2  // each update datagram is sent twice against loss
	sentinels    = 12 // end-of-stream datagrams; a replica stops at the first
	kvReplicas   = 2
	// replayCloseFlush bounds how long the replaying primary's close waits for
	// acknowledgements. With the replicas still listening it returns as soon as
	// the last one arrives; the bound only has to outlast a starved scheduler.
	replayCloseFlush = 5 * time.Second
)

type clusterParams struct {
	ops [][]kvOp
}

func buildKVCluster(scale float64, seed int64) *program {
	// 4 client threads x 6000 calls = 24000 djrpc calls.
	p := clusterParams{ops: genOps(seed, kvClients, scaled(6000, scale, 8))}
	specs := []vmSpec{{name: "primary", id: 1, djvm: true, world: ids.ClosedWorld}}
	for i := 0; i < kvReplicas; i++ {
		specs = append(specs, vmSpec{name: fmt.Sprintf("replica%d", i), id: ids.DJVMID(10 + i), djvm: true, world: ids.ClosedWorld})
	}
	specs = append(specs, vmSpec{name: "client", id: 2, djvm: true, world: ids.ClosedWorld})
	return &program{
		specs: specs,
		// Seeded datagram faults, no delays: reordering needs a delay to act
		// on and none is configured, so it only draws from the seed.
		chaos:  netsim.Chaos{LossRate: 0.15, DupRate: 0.05, ReorderRate: 0.20, RandomEphemeral: true},
		jitter: 2000,
		start:  func(e *phaseEnv) func() outcome { return p.start(e) },
	}
}

func (p clusterParams) start(e *phaseEnv) func() outcome {
	out := outcome{}
	perClient := len(p.ops[0])
	total := kvClients * perClient

	// Replicas apply whatever survives the lossy multicast, until the first
	// end-of-stream datagram. They keep their sockets open until the primary
	// has closed its own: a replica that left early would never acknowledge
	// the remaining end-of-stream datagrams, and in a replay the primary's
	// close would wait out its whole flush bound on them, then abandon
	// whatever else was unacknowledged, including a datagram the other replica
	// still needs (seen once in 250 replays: that replica waits forever).
	primaryDone := make(chan struct{})
	replicaReady := make(chan struct{}, kvReplicas)
	for i := 0; i < kvReplicas; i++ {
		name := fmt.Sprintf("replica%d", i)
		vm := e.vms[name]
		digests := make([]uint64, 2)
		out[name] = digests
		env := djgram.NewEnv(vm, e.net, name)
		mon := core.NewMonitor()
		vm.Start(e.thread(name, "main", func(main *core.Thread, tt *threadTrace) {
			tt.begin(spBind)
			sock, err := env.Bind(main, replicaPort)
			tt.end()
			if err == nil {
				err = sock.JoinGroup(main, updateGroup)
			}
			if err != nil {
				e.fail(fmt.Errorf("%s: %w", name, err))
				return
			}
			replicaReady <- struct{}{}
			store := map[string]string{}
			applied := uint64(0)
			for {
				tt.begin(spReceive)
				data, _, err := sock.Receive(main)
				tt.end()
				if err != nil {
					e.fail(fmt.Errorf("%s receive: %w", name, err))
					return
				}
				key, val := decodePut(data)
				if key == "" {
					break
				}
				sp := tt.hot(spMonitor)
				mon.Enter(main)
				store[key] = val
				mon.Exit(main)
				tt.hotEnd(sp)
				applied++
			}
			digests[0], digests[1] = digestMap(store), applied
			select {
			case <-primaryDone:
			case <-e.failed:
			}
			if err := sock.Close(main); err != nil {
				e.fail(fmt.Errorf("%s close: %w", name, err))
			}
		}))
	}
	for i := 0; i < kvReplicas; i++ {
		select {
		case <-replicaReady:
		case <-e.failed:
			return func() outcome { return out }
		}
	}

	// Primary: one djrpc worker per client thread over a shared store; every
	// put is multicast to the replicas.
	primary := e.vms["primary"]
	penv := djsock.NewEnv(primary, e.net, "primary")
	pgram := djgram.NewEnv(primary, e.net, "primary")
	pgram.ReplayCloseFlush = replayCloseFlush
	store := newKVStore()
	pd := make([]uint64, 2)
	out["primary"] = pd
	ready := make(chan uint16, 1)
	group := netsim.Addr{Host: updateGroup, Port: replicaPort}
	primary.Start(e.thread("primary", "main", func(main *core.Thread, tt *threadTrace) {
		defer close(primaryDone)
		tt.begin(spListen)
		ss, err := penv.Listen(main, 0)
		tt.end()
		if err != nil {
			e.fail(fmt.Errorf("primary listen: %w", err))
			return
		}
		tt.begin(spBind)
		updates, err := pgram.Bind(main, 0)
		tt.end()
		if err != nil {
			e.fail(fmt.Errorf("primary bind: %w", err))
			return
		}
		ready <- ss.Port()
		workers := make([]*core.Thread, kvClients)
		for w := range workers {
			workers[w] = main.Spawn(e.thread("primary", "worker", func(t *core.Thread, tt *threadTrace) {
				srv := store.server(penv, tt, func(t *core.Thread, body []byte) error {
					for b := 0; b < updateBursts; b++ {
						tt.begin(spSend)
						err := updates.SendTo(t, group, body)
						tt.end()
						if err != nil {
							return err
						}
					}
					return nil
				})
				tt.begin(spServe)
				err := srv.Serve(t, ss, total/kvClients)
				tt.end()
				if err != nil {
					e.fail(fmt.Errorf("primary worker: %w", err))
				}
			}))
		}
		for _, w := range workers {
			main.Join(w)
		}
		for b := 0; b < sentinels; b++ {
			tt.begin(spSend)
			err := updates.SendTo(main, group, []byte{0})
			tt.end()
			if err != nil {
				e.fail(fmt.Errorf("primary sentinel: %w", err))
				return
			}
		}
		pd[0], pd[1] = store.digest(), uint64(store.served.Get(main))
		if err := updates.Close(main); err != nil {
			e.fail(fmt.Errorf("primary close: %w", err))
		}
		tt.begin(spClose)
		err = ss.Close(main)
		tt.end()
		if err != nil {
			e.fail(fmt.Errorf("primary close listener: %w", err))
		}
	}))
	var port uint16
	select {
	case port = <-ready:
	case <-e.failed:
		return func() outcome { return out }
	}

	client := e.vms["client"]
	cenv := djsock.NewEnv(client, e.net, "client")
	cd := make([]uint64, kvClients)
	out["client"] = cd
	client.Start(e.thread("client", "main", func(main *core.Thread, tt *threadTrace) {
		threads := make([]*core.Thread, kvClients)
		for c := range threads {
			c := c
			threads[c] = main.Spawn(e.thread("client", "client", func(t *core.Thread, tt *threadTrace) {
				cl := djrpc.NewClient(cenv, netsim.Addr{Host: "primary", Port: port})
				cd[c] = runClient(e, t, tt, cl, p.ops[c], fold(0, uint64(c)))
			}))
		}
		for _, th := range threads {
			main.Join(th)
		}
	}))
	e.note("conns", float64(total))
	return func() outcome { return out }
}

// encodeState serializes a primary's resumable state for a checkpoint: the
// next round, the served counter, and the store in key order.
func (s *kvStore) encodeState(nextRound int) []byte {
	keys := sortedKeys(s.data)
	buf := binary.LittleEndian.AppendUint32(nil, uint32(nextRound))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.served.Load()))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(keys)))
	for _, k := range keys {
		buf = append(buf, encodePut(k, s.data[k])...)
	}
	return buf
}

// restoreState is encodeState's inverse. Keys are "kNNN" and every stored
// value is kvValBytes long, so entries have one size.
func (s *kvStore) restoreState(data []byte) (nextRound int, err error) {
	const entry = 1 + 4 + kvValBytes
	if len(data) < 16 {
		return 0, fmt.Errorf("checkpoint state: %d bytes", len(data))
	}
	nextRound = int(binary.LittleEndian.Uint32(data))
	s.served.Restore(int64(binary.LittleEndian.Uint64(data[4:])))
	n := int(binary.LittleEndian.Uint32(data[12:]))
	data = data[16:]
	if len(data) != n*entry {
		return 0, fmt.Errorf("checkpoint state: %d entries in %d bytes", n, len(data))
	}
	for i := 0; i < n; i++ {
		k, v := decodePut(data[i*entry : (i+1)*entry])
		s.data[k] = v
	}
	return nextRound, nil
}
