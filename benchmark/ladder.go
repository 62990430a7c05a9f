package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/rudp"
	"repro/internal/tracelog"
)

// The ladder: short probes that call one layer directly, with nothing of the
// workload's program around it. They run at the end of a traced run, each
// under the same watchdog as a phase, and a probe that fails or hangs is one
// failed operation.

type probe struct {
	name string
	run  func(r *runner) (float64, error)
}

func (r *runner) ladder() {
	for _, p := range ladderProbes() {
		r.attempted++
		type res struct {
			v   float64
			err error
		}
		done := make(chan res, 1)
		go func() {
			v, err := p.run(r)
			done <- res{v, err}
		}()
		timer := time.NewTimer(r.opt.watchdog)
		select {
		case got := <-done:
			timer.Stop()
			if got.err != nil {
				r.failed++
				r.failures = append(r.failures, fmt.Sprintf("ladder %s: %v", p.name, got.err))
				continue
			}
			r.extra[p.name] = got.v
		case <-timer.C:
			r.failed++
			r.failures = append(r.failures, fmt.Sprintf("ladder %s: exceeded the %v watchdog", p.name, r.opt.watchdog))
		}
	}
}

func ladderProbes() []probe {
	var single, singleSharded, spawned *tracelog.Set
	return []probe{
		{"core.single.rec_ns", func(r *runner) (float64, error) {
			ns, logs, err := r.sharedLoop(core.Config{Mode: ids.Record}, r.probeIters(400000))
			single = logs
			return ns, err
		}},
		{"core.single.rep_ns", func(r *runner) (float64, error) {
			ns, _, err := r.sharedLoop(core.Config{Mode: ids.Replay, ReplayLogs: single}, r.probeIters(400000))
			return ns, err
		}},
		{"core.single.sharded_rec_ns", func(r *runner) (float64, error) {
			ns, logs, err := r.sharedLoop(core.Config{Mode: ids.Record, OrderMode: ids.OrderSharded}, r.probeIters(400000))
			singleSharded = logs
			return ns, err
		}},
		{"core.single.sharded_rep_ns", func(r *runner) (float64, error) {
			ns, _, err := r.sharedLoop(core.Config{Mode: ids.Replay, OrderMode: ids.OrderSharded, ReplayLogs: singleSharded}, r.probeIters(400000))
			return ns, err
		}},
		{"core.contended.rec_ns", func(r *runner) (float64, error) {
			return r.contended(core.Config{Mode: ids.Record}, r.probeIters(200000))
		}},
		{"core.contended.sharded_rec_ns", func(r *runner) (float64, error) {
			return r.contended(core.Config{Mode: ids.Record, OrderMode: ids.OrderSharded}, r.probeIters(200000))
		}},
		{"core.observer.rec_ns", func(r *runner) (float64, error) {
			// An EventObserver attached, as chaos and supervision attach one.
			cfg := core.Config{Mode: ids.Record, EventObserver: func(ids.ThreadNum, ids.GCount) {}}
			ns, _, err := r.sharedLoop(cfg, r.probeIters(400000))
			return ns, err
		}},
		{"obs.sample1.rec_ns", func(r *runner) (float64, error) {
			ns, _, err := r.sharedLoop(core.Config{Mode: ids.Record, ObsSampleRate: 1}, r.probeIters(400000))
			return ns, err
		}},
		{"obs.snapshot_us", probeSnapshot},
		{"core.spawn_join.rec_us", func(r *runner) (float64, error) {
			us, logs, err := r.spawnJoin(core.Config{Mode: ids.Record}, r.probeIters(2000))
			spawned = logs
			return us, err
		}},
		{"core.spawn_join.rep_us", func(r *runner) (float64, error) {
			us, _, err := r.spawnJoin(core.Config{Mode: ids.Replay, ReplayLogs: spawned}, r.probeIters(2000))
			return us, err
		}},
		{"tracelog.append.interval_ns", probeAppendInterval},
		{"tracelog.append.content_ns_per_kb", probeAppendContent},
		{"tracelog.wal.append_sync1_us", func(r *runner) (float64, error) {
			ns, err := r.walAppend(1, r.probeIters(200))
			return ns / 1000, err
		}},
		{"tracelog.wal.append_sync64_us", func(r *runner) (float64, error) {
			ns, err := r.walAppend(walSyncEvery, r.probeIters(64*60))
			return ns / 1000, err
		}},
		{"tracelog.wal.append_nosync_ns", func(r *runner) (float64, error) {
			return r.walAppend(-1, r.probeIters(300000))
		}},
		{"rudp.delivery_us", func(r *runner) (float64, error) {
			return rudpDelivery(netsim.Chaos{}, r.probeIters(3000))
		}},
		{"rudp.delivery_lossy_us", func(r *runner) (float64, error) {
			return rudpDelivery(netsim.Chaos{LossRate: 0.15}, r.probeIters(400))
		}},
		{"netsim.connect_us", probeNetsimConnect},
		{"netsim.stream.rtt_us", probeNetsimRTT},
		{"netsim.stream.mb_per_s", probeNetsimThroughput},
		{"netsim.dgram.send_us", probeNetsimDatagram},
	}
}

// probeIters sizes a probe by -scale, so the tests' tiny runs stay tiny.
func (r *runner) probeIters(n int) int { return scaled(n, r.opt.scale, 50) }

// probeVM runs main as the first thread of a fresh VM and returns the wall
// time until every thread has finished. Threads go through phaseEnv.thread, so
// a replay divergence fails the probe instead of killing the process.
func (r *runner) probeVM(cfg core.Config, main func(e *phaseEnv, vm *core.VM) func(*core.Thread)) (time.Duration, *core.VM, error) {
	vm, err := core.NewVM(cfg)
	if err != nil {
		return 0, nil, err
	}
	e := &phaseEnv{rc: &repCtx{}, phase: vmMode(vm), vms: map[string]*core.VM{"vm": vm}, failed: make(chan struct{})}
	fn := main(e, vm)
	start := time.Now()
	vm.Start(e.probeThread(fn))
	done := make(chan struct{})
	go e.waitVMs(done)
	if err := e.wait(done, r.opt.watchdog); err != nil {
		return 0, nil, err
	}
	d := time.Since(start)
	vm.Close()
	return d, vm, nil
}

func (e *phaseEnv) probeThread(fn func(*core.Thread)) func(*core.Thread) {
	return e.thread("vm", "probe", func(t *core.Thread, _ *threadTrace) { fn(t) })
}

// spawnAndJoin runs fn on `threads` child threads of main and joins them.
func (e *phaseEnv) spawnAndJoin(main *core.Thread, threads int, fn func(i int, t *core.Thread)) {
	workers := make([]*core.Thread, threads)
	for i := range workers {
		workers[i] = main.Spawn(e.probeThread(func(t *core.Thread) { fn(i, t) }))
	}
	for _, w := range workers {
		main.Join(w)
	}
}

// sharedLoop runs one thread of get+set increments on a registered SharedInt
// and returns ns per critical event.
func (r *runner) sharedLoop(cfg core.Config, incs int) (float64, *tracelog.Set, error) {
	cfg.ID = 77
	d, vm, err := r.probeVM(cfg, func(e *phaseEnv, vm *core.VM) func(*core.Thread) {
		var v paddedInt
		v.v.Register(vm)
		return func(main *core.Thread) {
			e.spawnAndJoin(main, 1, func(_ int, t *core.Thread) {
				for n := 0; n < incs; n++ {
					v.v.Set(t, v.v.Get(t)+1)
				}
			})
		}
	})
	if err != nil {
		return 0, nil, err
	}
	return float64(d) / float64(vm.Stats().CriticalEvents), vm.Logs(), nil
}

// contended has NumCPU threads increment one object, at GOMAXPROCS = NumCPU.
func (r *runner) contended(cfg core.Config, incs int) (float64, error) {
	threads := runtime.NumCPU()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(threads))
	cfg.ID = 78
	d, vm, err := r.probeVM(cfg, func(e *phaseEnv, vm *core.VM) func(*core.Thread) {
		var v paddedInt
		v.v.Register(vm)
		return func(main *core.Thread) {
			e.spawnAndJoin(main, threads, func(_ int, t *core.Thread) {
				for n := 0; n < incs; n++ {
					v.v.Set(t, v.v.Get(t)+1)
				}
			})
		}
	})
	if err != nil {
		return 0, err
	}
	return float64(d) / float64(vm.Stats().CriticalEvents), nil
}

// spawnJoin has the main thread spawn and join an empty child n times and
// returns us per pair.
func (r *runner) spawnJoin(cfg core.Config, n int) (float64, *tracelog.Set, error) {
	cfg.ID = 79
	d, vm, err := r.probeVM(cfg, func(e *phaseEnv, vm *core.VM) func(*core.Thread) {
		return func(main *core.Thread) {
			for i := 0; i < n; i++ {
				e.spawnAndJoin(main, 1, func(int, *core.Thread) {})
			}
		}
	})
	if err != nil {
		return 0, nil, err
	}
	return us(d) / float64(n), vm.Logs(), nil
}

func probeSnapshot(r *runner) (float64, error) {
	vm, err := core.NewVM(core.Config{ID: 80, Mode: ids.Record})
	if err != nil {
		return 0, err
	}
	n := r.probeIters(20000)
	start := time.Now()
	for i := 0; i < n; i++ {
		snapshotSink = vm.Metrics().Snapshot()
	}
	d := time.Since(start)
	vm.Close()
	return us(d) / float64(n), nil
}

// snapshotSink keeps the compiler from discarding probeSnapshot's calls.
var snapshotSink obs.Snapshot

func probeAppendInterval(r *runner) (float64, error) {
	n := r.probeIters(1000000)
	log := tracelog.NewLog()
	start := time.Now()
	for i := 0; i < n; i++ {
		log.Append(&tracelog.Interval{Thread: ids.ThreadNum(i & 7), First: ids.GCount(i), Last: ids.GCount(i)})
	}
	return float64(time.Since(start)) / float64(n), nil
}

func probeAppendContent(r *runner) (float64, error) {
	n := r.probeIters(20000)
	data := make([]byte, 1024)
	log := tracelog.NewLog()
	start := time.Now()
	for i := 0; i < n; i++ {
		log.Append(&tracelog.OpenReadEntry{EventID: ids.NetworkEventID{Thread: 1, Event: ids.EventNum(i)}, Data: data})
	}
	return float64(time.Since(start)) / float64(n), nil
}

// walAppend appends n interval records to a log with a WAL attached at the
// given SyncEvery and returns ns per append.
func (r *runner) walAppend(syncEvery, n int) (float64, error) {
	path := filepath.Join(r.dir, "probe.wal")
	defer os.Remove(path)
	w, err := tracelog.CreateWAL(path, tracelog.WALOptions{SyncEvery: syncEvery})
	if err != nil {
		return 0, err
	}
	set := tracelog.NewSet()
	if err := set.AttachWAL(w); err != nil {
		w.Close()
		return 0, err
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		set.Schedule.Append(&tracelog.Interval{Thread: 1, First: ids.GCount(i), Last: ids.GCount(i)})
	}
	d := time.Since(start)
	if err := set.CloseWAL(); err != nil {
		return 0, err
	}
	return float64(d) / float64(n), nil
}

// rudpDelivery sends n datagrams one at a time over a reliable connection,
// each after the previous one arrived, and returns us per delivery.
func rudpDelivery(chaos netsim.Chaos, n int) (float64, error) {
	net := netsim.NewNetwork(netsim.Config{Chaos: chaos, Seed: 1})
	sa, err := net.DatagramBind("a", 9001)
	if err != nil {
		return 0, err
	}
	sb, err := net.DatagramBind("b", 9002)
	if err != nil {
		return 0, err
	}
	a, b := rudp.New(sa, rudp.Config{JitterSeed: 1}), rudp.New(sb, rudp.Config{JitterSeed: 2})
	defer a.Close()
	defer b.Close()
	payload := make([]byte, 64)
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := a.SendTo(net, b.Addr(), payload); err != nil {
			return 0, err
		}
		if _, err := b.Receive(); err != nil {
			return 0, err
		}
	}
	return us(time.Since(start)) / float64(n), nil
}

func probeNetsimConnect(r *runner) (float64, error) {
	n := r.probeIters(5000)
	net := netsim.NewNetwork(netsim.Config{Seed: 1})
	l, err := net.Listen("srv", 9000)
	if err != nil {
		return 0, err
	}
	defer l.Close()
	start := time.Now()
	for i := 0; i < n; i++ {
		c, err := net.Connect("cli", l.Addr())
		if err != nil {
			return 0, err
		}
		s, err := l.Accept()
		if err != nil {
			return 0, err
		}
		c.Close()
		s.Close()
	}
	return us(time.Since(start)) / float64(n), nil
}

// streamPair connects one stream over a calm network.
func streamPair() (client, server *netsim.Stream, err error) {
	net := netsim.NewNetwork(netsim.Config{Seed: 1})
	l, err := net.Listen("srv", 9000)
	if err != nil {
		return nil, nil, err
	}
	defer l.Close()
	if client, err = net.Connect("cli", l.Addr()); err != nil {
		return nil, nil, err
	}
	server, err = l.Accept()
	return client, server, err
}

func probeNetsimRTT(r *runner) (float64, error) {
	n := r.probeIters(5000)
	c, s, err := streamPair()
	if err != nil {
		return 0, err
	}
	defer c.Close()
	defer s.Close()
	go func() { // echo until the client closes
		buf := make([]byte, 64)
		for {
			if _, err := io.ReadFull(s, buf); err != nil {
				return
			}
			if _, err := s.Write(buf); err != nil {
				return
			}
		}
	}()
	buf := make([]byte, 64)
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := c.Write(buf); err != nil {
			return 0, err
		}
		if _, err := io.ReadFull(c, buf); err != nil {
			return 0, err
		}
	}
	return us(time.Since(start)) / float64(n), nil
}

func probeNetsimThroughput(r *runner) (float64, error) {
	const chunk = 64 << 10
	n := r.probeIters(500)
	c, s, err := streamPair()
	if err != nil {
		return 0, err
	}
	defer c.Close()
	defer s.Close()
	done := make(chan error, 1)
	go func() {
		_, err := io.CopyN(io.Discard, s, int64(n)*chunk)
		done <- err
	}()
	buf := make([]byte, chunk)
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := c.Write(buf); err != nil {
			return 0, err
		}
	}
	if err := <-done; err != nil {
		return 0, err
	}
	return float64(n) * chunk / 1e6 / time.Since(start).Seconds(), nil
}

func probeNetsimDatagram(r *runner) (float64, error) {
	n := r.probeIters(5000)
	net := netsim.NewNetwork(netsim.Config{Seed: 1})
	a, err := net.DatagramBind("a", 9001)
	if err != nil {
		return 0, err
	}
	defer a.Close()
	b, err := net.DatagramBind("b", 9002)
	if err != nil {
		return 0, err
	}
	defer b.Close()
	payload := make([]byte, 64)
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := a.SendTo(b.Addr(), payload); err != nil {
			return 0, err
		}
		if _, err := b.Receive(); err != nil {
			return 0, err
		}
	}
	return us(time.Since(start)) / float64(n), nil
}
