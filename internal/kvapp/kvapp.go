// Package kvapp is a realistic distributed application built on the full
// DJVM stack: a primary-replica key-value store. The paper closes its
// evaluation noting the tool "needs to be verified against real
// applications" (§6); kvapp is this repository's stand-in for one — it
// composes every replay mechanism at once:
//
//   - clients issue put/get operations over the RPC layer (stream sockets,
//     connection scrambling, partial reads);
//   - the primary serves them from a plain Go map guarded by a Monitor —
//     demonstrating that *properly synchronized* data needs only its
//     synchronization events replayed, not per-access instrumentation;
//   - the primary multicasts updates to replicas over lossy UDP, so each
//     replica applies a nondeterministic subset, in nondeterministic order;
//   - racy shared counters (applied/served statistics) add uninstrumented-
//     looking bookkeeping races on every node.
//
// A free run's outcome — primary contents, per-replica contents, client
// observations — varies wildly; under record/replay it reproduces exactly.
package kvapp

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/djgram"
	"repro/internal/djrpc"
	"repro/internal/djsock"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/tracelog"
)

// Config sizes one run.
type Config struct {
	Replicas     int
	Clients      int // client threads on the client node
	OpsPerClient int
	Mode         ids.Mode
	Jitter       int
	Seed         int64
	Chaos        netsim.Chaos
	// Logs supplies recorded logs for replay, ordered primary, replicas...,
	// client (length Replicas+2).
	Logs []*tracelog.Set
	// PrimaryWAL, when set in record mode, makes the primary's logging
	// durable: every log record is teed into a write-ahead log at this path,
	// so a primary killed mid-run can be recovered with tracelog.RecoverFile.
	PrimaryWAL string
	// PrimaryWALSync is the WAL fsync cadence (tracelog.WALOptions.SyncEvery):
	// 0 selects the default, negative syncs only on close.
	PrimaryWALSync int
	// CausalTrace, in record mode, turns on causal tracing on every VM
	// (core.VM.EnableCausalTrace): net-span annotations, from which the
	// causal analyzer reconstructs cross-VM message edges, and a wall-clock
	// anchor every 8 critical events.
	CausalTrace bool
	// OrderMode selects the event-ordering scheme on every VM (see
	// core.Config.OrderMode). Under OrderSharded the primary's store monitor
	// and served counter and each replica's store monitor are registered for
	// per-object ordering; everything else (RPC sockets, datagrams, thread
	// lifecycle) keeps the global mechanism. Sharded mode is incompatible
	// with CausalTrace and PrimaryWAL — the underlying VMs reject those
	// combinations.
	OrderMode ids.OrderMode
}

// DefaultChaos is a moderately hostile network for the store.
func DefaultChaos() netsim.Chaos {
	return netsim.Chaos{
		ConnectDelayMax: 300 * time.Microsecond,
		DeliverDelayMax: 100 * time.Microsecond,
		LossRate:        0.15,
		DupRate:         0.05,
		ReorderRate:     0.2,
		RandomEphemeral: true,
	}
}

// Result is the observable outcome of one run.
type Result struct {
	// PrimaryDigest folds the primary's final key-value contents.
	PrimaryDigest uint64
	// ReplicaDigests fold each replica's final contents (each applies only
	// the updates that survived the lossy network).
	ReplicaDigests []uint64
	// ClientDigest folds every client thread's observed responses.
	ClientDigest uint64
	// ServedOps is the primary's racy served-operations counter.
	ServedOps int64
}

// Logs returned by a record run, ordered primary, replicas..., client.
type RunLogs []*tracelog.Set

const (
	replicaPort  = 7100
	updateGroup  = "kv.updates"
	updateBursts = 2 // each update datagram is sent twice against loss
)

// Run executes the store per cfg. A record run whose PrimaryWAL failed along
// the way still returns its result and complete in-memory logs, next to the
// error saying the file is not the durable copy it was meant to be.
func Run(cfg Config) (Result, RunLogs, error) {
	if cfg.Replicas <= 0 || cfg.Clients <= 0 || cfg.OpsPerClient <= 0 {
		return Result{}, nil, fmt.Errorf("kvapp: sizes must be positive")
	}
	wantLogs := cfg.Replicas + 2
	if cfg.Mode == ids.Replay && len(cfg.Logs) != wantLogs {
		return Result{}, nil, fmt.Errorf("kvapp: replay needs %d log sets, got %d", wantLogs, len(cfg.Logs))
	}
	logAt := func(i int) *tracelog.Set {
		if cfg.Mode == ids.Replay {
			return cfg.Logs[i]
		}
		return nil
	}

	net := netsim.NewNetwork(netsim.Config{Chaos: cfg.Chaos, Seed: cfg.Seed})
	mkVM := func(id ids.DJVMID, logs *tracelog.Set) (*core.VM, error) {
		vm, err := core.NewVM(core.Config{
			ID: id, Mode: cfg.Mode, World: ids.ClosedWorld,
			ReplayLogs: logs, RecordJitter: cfg.Jitter,
			OrderMode: cfg.OrderMode,
		})
		if err != nil || cfg.Mode != ids.Record {
			return vm, err
		}
		if cfg.CausalTrace {
			if err := vm.EnableCausalTrace(); err != nil {
				return nil, err
			}
		}
		return vm, nil
	}

	primaryVM, err := mkVM(1, logAt(0))
	if err != nil {
		return Result{}, nil, err
	}
	if cfg.PrimaryWAL != "" && cfg.Mode == ids.Record {
		opts := tracelog.WALOptions{SyncEvery: cfg.PrimaryWALSync}
		if err := primaryVM.EnableWAL(cfg.PrimaryWAL, opts); err != nil {
			return Result{}, nil, err
		}
	}
	replicaVMs := make([]*core.VM, cfg.Replicas)
	for i := range replicaVMs {
		if replicaVMs[i], err = mkVM(ids.DJVMID(10+i), logAt(1+i)); err != nil {
			return Result{}, nil, err
		}
	}
	clientVM, err := mkVM(2, logAt(cfg.Replicas+1))
	if err != nil {
		return Result{}, nil, err
	}

	res := Result{ReplicaDigests: make([]uint64, cfg.Replicas)}

	// Replicas: join the update group, apply whatever arrives until the
	// primary announces how many updates it issued (sentinel), then report.
	// Each replica counts applied updates; the sentinel carries the total
	// update count so replicas know when the stream is over — they then
	// drain what remains and stop. To keep termination deterministic under
	// loss, replicas stop on the sentinel datagram itself (retransmitted
	// heavily), applying only updates that arrived before it.
	replicaReady := make(chan struct{}, cfg.Replicas)
	for i := range replicaVMs {
		i := i
		env := djgram.NewEnv(replicaVMs[i], net, fmt.Sprintf("replica%d", i))
		// Registered before the replica's thread starts (sharded-mode
		// registration contract); a no-op under OrderGlobal.
		mon := core.NewMonitor()
		mon.Register(replicaVMs[i])
		replicaVMs[i].Start(func(main *core.Thread) {
			sock, err := env.Bind(main, replicaPort)
			if err != nil {
				panic(fmt.Sprintf("kvapp replica: %v", err))
			}
			if err := sock.JoinGroup(main, updateGroup); err != nil {
				panic(fmt.Sprintf("kvapp replica: %v", err))
			}
			replicaReady <- struct{}{}
			store := map[string]string{}
			for {
				data, _, err := sock.Receive(main)
				if err != nil {
					panic(fmt.Sprintf("kvapp replica: %v", err))
				}
				k, v, sentinel := decodeUpdate(data)
				if sentinel {
					break
				}
				mon.Enter(main)
				store[k] = v
				mon.Exit(main)
			}
			res.ReplicaDigests[i] = digestStore(store)
			sock.Close(main)
		})
	}
	for i := 0; i < cfg.Replicas; i++ {
		<-replicaReady
	}

	// Primary: RPC workers share a monitor-guarded map; every put is
	// multicast to the replicas.
	penv := djsock.NewEnv(primaryVM, net, "primary")
	pgram := djgram.NewEnv(primaryVM, net, "primary")
	store := map[string]string{}
	storeMon := core.NewMonitor()
	var served core.SharedInt
	// Registered before the primary's workers start; no-ops under OrderGlobal.
	storeMon.Register(primaryVM)
	served.Register(primaryVM)

	totalOps := cfg.Clients * cfg.OpsPerClient
	workers := cfg.Clients // one RPC worker per client thread
	ready := make(chan uint16, 1)
	primaryVM.Start(func(main *core.Thread) {
		ss, err := penv.Listen(main, 0)
		if err != nil {
			panic(fmt.Sprintf("kvapp primary: %v", err))
		}
		updates, err := pgram.Bind(main, 0)
		if err != nil {
			panic(fmt.Sprintf("kvapp primary: %v", err))
		}
		srv := djrpc.NewServer(penv)
		srv.Handle("put", func(t *core.Thread, body []byte) ([]byte, error) {
			k, v, _ := decodeUpdate(body)
			storeMon.Enter(t)
			store[k] = v
			storeMon.Exit(t)
			// Racy bookkeeping, on purpose.
			served.Set(t, served.Get(t)+1)
			for b := 0; b < updateBursts; b++ {
				if err := updates.SendTo(t, netsim.Addr{Host: updateGroup, Port: replicaPort}, body); err != nil {
					return nil, err
				}
			}
			return []byte("ok"), nil
		})
		srv.Handle("get", func(t *core.Thread, body []byte) ([]byte, error) {
			storeMon.Enter(t)
			v := store[string(body)]
			storeMon.Exit(t)
			served.Set(t, served.Get(t)+1)
			return []byte(v), nil
		})
		ready <- ss.Port()

		children := make([]*core.Thread, workers)
		for w := 0; w < workers; w++ {
			children[w] = main.Spawn(func(t *core.Thread) {
				if err := srv.Serve(t, ss, totalOps/workers); err != nil {
					panic(fmt.Sprintf("kvapp primary worker: %v", err))
				}
			})
		}
		for _, c := range children {
			main.Join(c)
		}
		// End-of-stream sentinel to the replicas, blasted hard so every
		// replica terminates despite loss.
		sentinel := encodeUpdate("", "", true)
		for b := 0; b < 12; b++ {
			if err := updates.SendTo(main, netsim.Addr{Host: updateGroup, Port: replicaPort}, sentinel); err != nil {
				panic(fmt.Sprintf("kvapp primary: sentinel: %v", err))
			}
		}
		res.PrimaryDigest = digestStore(store)
		res.ServedOps = served.Get(main)
		updates.Close(main)
		ss.Close(main)
	})
	port := <-ready

	// Clients: mixed put/get workload with deterministic per-thread keys.
	cenv := djsock.NewEnv(clientVM, net, "clients")
	clientDigests := make([]uint64, cfg.Clients)
	clientVM.Start(func(main *core.Thread) {
		children := make([]*core.Thread, cfg.Clients)
		for c := 0; c < cfg.Clients; c++ {
			c := c
			children[c] = main.Spawn(func(t *core.Thread) {
				cl := djrpc.NewClient(cenv, netsim.Addr{Host: "primary", Port: port})
				h := fnv.New64a()
				for op := 0; op < cfg.OpsPerClient; op++ {
					key := fmt.Sprintf("k%d", (c*7+op*3)%11)
					if op%3 == 2 {
						out, err := cl.Call(t, "get", []byte(key))
						if err != nil {
							panic(fmt.Sprintf("kvapp client: %v", err))
						}
						h.Write(out)
					} else {
						val := fmt.Sprintf("c%d-op%d", c, op)
						out, err := cl.Call(t, "put", encodeUpdate(key, val, false))
						if err != nil {
							panic(fmt.Sprintf("kvapp client: %v", err))
						}
						h.Write(out)
					}
				}
				clientDigests[c] = h.Sum64()
			})
		}
		for _, ch := range children {
			main.Join(ch)
		}
	})

	done := make(chan struct{})
	go func() {
		primaryVM.Wait()
		clientVM.Wait()
		for _, r := range replicaVMs {
			r.Wait()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		return Result{}, nil, fmt.Errorf("kvapp: run deadlocked (%v mode)", cfg.Mode)
	}

	var cd uint64 = 1469598103934665603
	for _, d := range clientDigests {
		cd = cd*31 + d
	}
	res.ClientDigest = cd

	err = primaryVM.Close() // non-nil only when cfg.PrimaryWAL failed
	clientVM.Close()
	var logs RunLogs
	if cfg.Mode == ids.Record {
		logs = append(logs, primaryVM.Logs())
	}
	for _, r := range replicaVMs {
		r.Close()
		if cfg.Mode == ids.Record {
			logs = append(logs, r.Logs())
		}
	}
	if cfg.Mode == ids.Record {
		logs = append(logs, clientVM.Logs())
	}
	return res, logs, err
}

// encodeUpdate frames a key-value update (or the end-of-stream sentinel).
func encodeUpdate(k, v string, sentinel bool) []byte {
	out := make([]byte, 1+2+len(k)+2+len(v))
	if sentinel {
		out[0] = 1
	}
	binary.BigEndian.PutUint16(out[1:3], uint16(len(k)))
	copy(out[3:], k)
	binary.BigEndian.PutUint16(out[3+len(k):], uint16(len(v)))
	copy(out[5+len(k):], v)
	return out
}

func decodeUpdate(b []byte) (k, v string, sentinel bool) {
	if len(b) < 5 {
		return "", "", true
	}
	sentinel = b[0] == 1
	kl := int(binary.BigEndian.Uint16(b[1:3]))
	k = string(b[3 : 3+kl])
	vl := int(binary.BigEndian.Uint16(b[3+kl : 5+kl]))
	v = string(b[5+kl : 5+kl+vl])
	return k, v, sentinel
}

// digestStore folds a store's contents in key order.
func digestStore(m map[string]string) uint64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{0})
		h.Write([]byte(m[k]))
		h.Write([]byte{0xff})
	}
	return h.Sum64()
}
