package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/djrpc"
	"repro/internal/djsock"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/tracelog"
)

// kv-durable: an open-world primary DJVM with a WAL serves plain clients in
// rounds, because a checkpoint needs every other thread finished. A round is:
// listen, let the clients loose, make the previous checkpoint's WAL durable
// and truncate behind it, serve, close, checkpoint. The sync and the
// truncation run while the round's first calls already wait in the backlog,
// so durability work shows in the clients' latency tail, as it would in
// production. After the record phase the finished WAL is cut at seeded byte
// offsets past its last compaction and each cut is recovered and replayed.

const (
	durablePort     = 7300
	durableWorkers  = 4
	callsPerWorker  = 64
	durableKeep     = 2 // checkpoints a truncation retains
	crashPoints     = 12
	durableWALName  = "primary.wal"
	durableCrashWAL = "crash.wal"
)

type durableParams struct {
	rounds int
	ops    [][]kvOp // per client thread: rounds x callsPerWorker operations
	seed   int64
}

func buildKVDurable(scale float64, seed int64) *program {
	// 60 rounds x 4 workers x 64 calls = 15360 djrpc calls.
	p := durableParams{rounds: scaled(60, scale, 4), seed: seed}
	p.ops = genOps(seed, kvClients, p.rounds*callsPerWorker)
	return &program{
		specs: []vmSpec{
			{name: "primary", id: 1, djvm: true, world: ids.OpenWorld},
			{name: "client", id: 2, world: ids.OpenWorld},
		},
		chaos:   netsim.Chaos{RandomEphemeral: true},
		jitter:  2000,
		start:   func(e *phaseEnv) func() outcome { return p.start(e) },
		prepare: p.attachWAL,
		extra:   p.crashAndRecover,
	}
}

func (p durableParams) walPath(rc *repCtx) string { return filepath.Join(rc.r.dir, durableWALName) }

// attachWAL turns the recording primary's log durable before its first event.
func (p durableParams) attachWAL(e *phaseEnv) error {
	vm := e.vms["primary"]
	if vm.Mode() != ids.Record {
		return nil
	}
	return vm.EnableWAL(p.walPath(e.rc), tracelog.WALOptions{SyncEvery: walSyncEvery})
}

func (p durableParams) start(e *phaseEnv) func() outcome {
	out := outcome{}
	primary := e.vms["primary"]
	store := newKVStore()
	startRound := 0
	if e.resume != nil {
		var err error
		if startRound, err = store.restoreState(e.resume.Data); err != nil {
			e.fail(err)
			return func() outcome { return out }
		}
	}
	// round[r] is closed once round r's listener is up; only the plain
	// clients of the passthrough and record phases wait on it.
	round := make([]chan struct{}, p.rounds)
	for r := range round {
		round[r] = make(chan struct{})
	}
	pd := make([]uint64, 2)
	out["primary"] = pd
	env := djsock.NewEnv(primary, e.net, "primary")
	primary.Start(e.thread("primary", "main", func(main *core.Thread, tt *threadTrace) {
		for r := startRound; r < p.rounds; r++ {
			tt.begin(spListen)
			ss, err := env.Listen(main, durablePort)
			tt.end()
			if err != nil {
				e.stop(fmt.Errorf("primary listen: %w", err))
				return
			}
			close(round[r])
			if r > 0 && primary.Mode() == ids.Record {
				p.syncAndTruncate(e, primary, tt)
			}
			workers := make([]*core.Thread, durableWorkers)
			for w := range workers {
				workers[w] = main.Spawn(e.thread("primary", "worker", func(t *core.Thread, tt *threadTrace) {
					srv := store.server(env, tt, nil)
					tt.begin(spServe)
					err := srv.Serve(t, ss, callsPerWorker)
					tt.end()
					if err != nil {
						e.stop(fmt.Errorf("primary worker: %w", err))
					}
				}))
			}
			for _, w := range workers {
				main.Join(w)
			}
			tt.begin(spClose)
			err = ss.Close(main)
			tt.end()
			if err != nil {
				e.stop(fmt.Errorf("primary close listener: %w", err))
				return
			}
			next := r + 1
			tt.begin(spTake)
			checkpoint.Take(main, func() []byte {
				state := store.encodeState(next)
				e.note("checkpoint.bytes", float64(len(state)))
				return state
			})
			tt.end()
		}
	}))

	if client := e.vms["client"]; client != nil {
		cenv := djsock.NewEnv(client, e.net, "client")
		cd := make([]uint64, kvClients)
		out["client"] = cd
		addr := netsim.Addr{Host: "primary", Port: durablePort}
		client.Start(e.thread("client", "main", func(main *core.Thread, tt *threadTrace) {
			threads := make([]*core.Thread, kvClients)
			for c := range threads {
				c := c
				threads[c] = main.Spawn(e.thread("client", "client", func(t *core.Thread, tt *threadTrace) {
					cl := djrpc.NewClient(cenv, addr)
					h := fold(0, uint64(c))
					for r := 0; r < p.rounds; r++ {
						select {
						case <-round[r]:
						case <-e.failed:
							return
						}
						h = runClient(e, t, tt, cl, p.ops[c][r*callsPerWorker:(r+1)*callsPerWorker], h)
					}
					cd[c] = h
				}))
			}
			for _, th := range threads {
				main.Join(th)
			}
		}))
	}
	e.note("conns", float64(p.rounds*durableWorkers*callsPerWorker))
	// Read once every thread has finished: a replay resumed from a checkpoint
	// stops its threads one by one, wherever the salvaged log ends.
	return func() outcome {
		pd[0], pd[1] = store.digest(), uint64(store.served.Load())
		return out
	}
}

// syncAndTruncate makes the log durable up to the checkpoint the last round
// ended with and compacts the WAL behind the retained checkpoints.
func (p durableParams) syncAndTruncate(e *phaseEnv, vm *core.VM, tt *threadTrace) {
	tt.begin(spWALSync)
	err := vm.Logs().SyncWAL()
	tt.end()
	if err != nil {
		e.fail(fmt.Errorf("wal sync: %w", err))
		return
	}
	tt.begin(spTruncate)
	st, err := vm.TruncateWAL(durableKeep)
	tt.end()
	if errors.Is(err, tracelog.ErrNoAnchor) {
		return // fewer than durableKeep checkpoints so far
	}
	if err != nil {
		e.fail(fmt.Errorf("wal truncate: %w", err))
		return
	}
	e.note("tracelog.wal.steady_bytes", float64(st.Bytes))
}

// crashAndRecover cuts the finished WAL at seeded offsets, which tears the
// last frame, and for each cut salvages the file, resumes a replay from the
// latest salvaged checkpoint to the crash point, and checks its store against
// a replay of the same salvaged set from the oldest anchor it retains. Cuts
// fall in the part appended since the last truncation: the compacted part
// before it was renamed into place whole, so a crash cannot tear it.
func (p durableParams) crashAndRecover(rc *repCtx, rec *phaseResult) {
	out := rc.out
	wal, err := os.ReadFile(p.walPath(rc))
	if err != nil {
		out.recoveries, out.recFails = 1, 1
		out.failure = "recover: " + err.Error()
		return
	}
	records, _ := rec.logs["primary"].WAL().Stats()
	out.values["tracelog.wal.records"] = float64(records)
	// Every truncation rewrites the whole compacted file.
	compacted := len(wal) / 2
	for _, b := range rec.notes["tracelog.wal.steady_bytes"] {
		out.values["tracelog.truncate.rewritten_bytes"] += b
		compacted = int(b)
	}
	// Bytes framed into the WAL by appends (9-byte frame header per record),
	// not counting what truncations rewrite.
	appended := float64(rec.logs["primary"].TotalSize()) + 9*float64(records)
	out.values["tracelog.wal.bytes_per_kevent"] = appended / (float64(rec.events) / 1000)

	rng := rand.New(rand.NewSource(p.seed + int64(rc.idx)))
	crash := filepath.Join(rc.r.dir, durableCrashWAL)
	tt := rc.driverThread(phaseRecover)
	defer tt.finish()
	var salvageMs, latestUs, resumeMs, discarded []float64
	for i := 0; i < crashPoints; i++ {
		cut := compacted + rng.Intn(len(wal)-compacted)
		out.recoveries++
		if err := os.WriteFile(crash, wal[:cut], 0o644); err != nil {
			out.recFails++
			continue
		}
		var (
			set  *tracelog.Set
			rep  *tracelog.RecoveryReport
			snap *checkpoint.Snapshot
			got  *phaseResult
		)
		start := time.Now()
		tt.begin(spRecover)
		set, rep, err = tracelog.RecoverFile(crash)
		tt.end()
		t1 := time.Now()
		if err == nil {
			tt.begin(spLatest)
			snap, err = checkpoint.Latest(set)
			tt.end()
		}
		t2 := time.Now()
		if err == nil {
			tt.begin(spResume)
			got, err = rc.replaySalvaged(set, snap)
			tt.end()
		}
		end := time.Now()
		if err == nil {
			err = p.checkAgainstOldestAnchor(rc, set, rep, got)
		}
		if err != nil {
			out.recFails++
			rc.r.failures = append(rc.r.failures, fmt.Sprintf("recover (cut %d of %d): %v", cut, len(wal), err))
			continue
		}
		out.recoverMs = append(out.recoverMs, ms(end.Sub(start)))
		salvageMs = append(salvageMs, ms(t1.Sub(start)))
		latestUs = append(latestUs, us(t2.Sub(t1)))
		resumeMs = append(resumeMs, ms(end.Sub(t2)))
		discarded = append(discarded, float64(rep.DiscardedBytes))
	}
	os.Remove(crash)
	if len(salvageMs) > 0 {
		out.values["tracelog.recover_ms"] = median(salvageMs)
		out.values["checkpoint.latest_us"] = median(latestUs)
		out.values["checkpoint.resume_replay_ms"] = median(resumeMs)
		out.values["tracelog.recover.discarded_bytes"] = median(discarded)
	}
}

// replaySalvaged replays a salvaged set to the end of its log, resumed from
// snap (nil = from the beginning).
func (rc *repCtx) replaySalvaged(set *tracelog.Set, snap *checkpoint.Snapshot) (*phaseResult, error) {
	vms, err := rc.buildVMs(phaseRecover, map[string]*tracelog.Set{"primary": set}, snap, true)
	if err != nil {
		return nil, err
	}
	return rc.exec(phaseRecover, vms, snap)
}

func (p durableParams) checkAgainstOldestAnchor(rc *repCtx, set *tracelog.Set, rep *tracelog.RecoveryReport, got *phaseResult) error {
	var oldest *checkpoint.Snapshot
	if rep.BaseGC > 0 {
		cps, err := checkpoint.List(set)
		if err != nil {
			return err
		}
		if len(cps) == 0 {
			return fmt.Errorf("log truncated at counter %d retains no checkpoint", rep.BaseGC)
		}
		oldest = cps[0]
	}
	want, err := rc.replaySalvaged(set, oldest)
	if err != nil {
		return fmt.Errorf("replay from the oldest anchor: %w", err)
	}
	if diff := sameOutcome(want.outcome, got.outcome); diff != "" {
		return fmt.Errorf("resumed replay differs from the oldest-anchor replay: %s", diff)
	}
	return nil
}
