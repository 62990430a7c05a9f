package core_test

import (
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/recline"
	"repro/internal/tracelog"
)

// holderWorkload runs four threads that add to two shared integers, each
// registered with vm (its own order stream under OrderSharded); once they are
// joined, main takes a coordinated checkpoint and a local one when coord is
// not nil, and adds on alone.
func holderWorkload(vm *core.VM, coord *recline.Coordinator) {
	var a, b core.SharedInt
	a.Register(vm)
	b.Register(vm)
	vm.Start(func(main *core.Thread) {
		var workers []*core.Thread
		for i := range 4 {
			x := &a
			if i%2 == 1 {
				x = &b
			}
			workers = append(workers, main.Spawn(func(th *core.Thread) {
				for range 200 {
					x.Add(th, 1)
				}
			}))
		}
		for _, w := range workers {
			main.Join(w)
		}
		if coord != nil {
			coord.Checkpoint(main, func() []byte { return []byte("state") })
			checkpoint.Take(main, func() []byte { return []byte("local") })
		}
		for range 50 {
			a.Add(main, 1)
		}
	})
	vm.Wait()
}

// holders is what a snapshot reads from the VM and its logs.
type holders struct {
	Logs                                                    obs.LogStats
	Intervals, ObjRuns, Timestamps, NetSpans, GroupEpochs   uint64
	WALSyncs, LogEndStops, FinalGC, HistSampleRate, Stalled uint64
	Parked                                                  int64
}

// checkHolders asserts that every field a snapshot of vm takes from the VM
// equals its holder, counted here by walking the logs, and returns what the
// holders hold. walSyncs is the fsyncs the caller's OnSync hook counted.
func checkHolders(t *testing.T, name string, vm *core.VM, walSyncs uint64, sampleRate uint64) holders {
	t.Helper()
	s := vm.Metrics().Snapshot()
	got := holders{
		Logs: s.Logs, Intervals: s.Intervals, ObjRuns: s.Shard.ObjRuns,
		Timestamps: s.Causal.Timestamps, NetSpans: s.Causal.NetSpans, GroupEpochs: s.Recovery.GroupEpochs,
		WALSyncs: s.Faults.WALSyncs, LogEndStops: s.Faults.LogEndStops, FinalGC: s.Replay.FinalGC,
		HistSampleRate: s.HistSampleRate, Parked: s.Replay.ParkedThreads,
	}
	if s.Replay.Stalled {
		got.Stalled = 1
	}
	want := holders{WALSyncs: walSyncs, LogEndStops: vm.LogEndStops(), HistSampleRate: sampleRate}
	if logs := vm.Logs(); logs != nil {
		stats := func(l *tracelog.Log) obs.LogFileStats {
			var st obs.LogFileStats
			if err := l.Each(func(e tracelog.Entry) error {
				st.Appends++
				switch e.Kind() {
				case tracelog.KindInterval:
					want.Intervals++
				case tracelog.KindObjRun:
					want.ObjRuns++
				case tracelog.KindTimestamp:
					want.Timestamps++
				case tracelog.KindNetSpan:
					want.NetSpans++
				case tracelog.KindGroupEpoch:
					want.GroupEpochs++
				}
				return nil
			}); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			st.Bytes = uint64(len(l.Bytes()))
			return st
		}
		want.Logs = obs.LogStats{Schedule: stats(logs.Schedule), Network: stats(logs.Network), Datagram: stats(logs.Datagram)}
		if w := logs.WAL(); w != nil {
			if _, syncs := w.Stats(); syncs != walSyncs {
				t.Errorf("%s: the WAL writer counts %d fsyncs, its OnSync hook %d", name, syncs, walSyncs)
			}
		}
	}
	if idx := vm.ScheduleIndex(); idx != nil {
		want.FinalGC = uint64(idx.Meta.FinalGC)
	}
	if got != want {
		t.Errorf("%s: the snapshot reads\n%+v\nits holders hold\n%+v", name, got, want)
	}
	return want
}

// TestSnapshotFieldsEqualTheirHolders: every field the VM's owner hook fills
// equals the number its holder keeps — the logs' lengths, sizes and record
// kinds, the WAL writer's fsyncs, the VM's log-end stops, the replayed
// schedule's length and a parked count of 0 at rest — in a global run with a
// WAL, causal tracing and a coordinated checkpoint, in a sharded run, and in
// their replays, one of them a crash-recovered set under StopAtLogEnd.
func TestSnapshotFieldsEqualTheirHolders(t *testing.T) {
	dir := t.TempDir()
	wal := filepath.Join(dir, "node.wal")
	var syncs atomic.Uint64
	rec, err := core.NewVM(core.Config{ID: 5, Mode: ids.Record, RecordJitter: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.EnableWAL(wal, tracelog.WALOptions{SyncEvery: 8, OnSync: func() { syncs.Add(1) }}); err != nil {
		t.Fatal(err)
	}
	if err := rec.EnableCausalTrace(); err != nil {
		t.Fatal(err)
	}
	holderWorkload(rec, recline.NewCoordinator(rec.ID()))
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	h := checkHolders(t, "global record", rec, syncs.Load(), core.ObsSampleDefault)
	if h.Intervals == 0 || h.Timestamps == 0 || h.GroupEpochs != 1 || h.WALSyncs == 0 {
		t.Errorf("global record: %+v: want intervals, timestamps, one group epoch and fsyncs", h)
	}

	sharded, err := core.NewVM(core.Config{ID: 6, Mode: ids.Record, OrderMode: ids.OrderSharded, RecordJitter: 2, ObsSampleRate: 3})
	if err != nil {
		t.Fatal(err)
	}
	holderWorkload(sharded, nil)
	sharded.Close()
	if h := checkHolders(t, "sharded record", sharded, 0, 4); h.ObjRuns == 0 {
		t.Errorf("sharded record: %+v: want access runs", h)
	}

	replay := func(name string, cfg core.Config, coord *recline.Coordinator) holders {
		t.Helper()
		cfg.Mode, cfg.StallTimeout = ids.Replay, 10*time.Second
		vm, err := core.NewVM(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer vm.Close()
		holderWorkload(vm, coord)
		return checkHolders(t, name, vm, 0, core.ObsSampleDefault)
	}
	if h := replay("global replay", core.Config{ID: 5, ReplayLogs: rec.Logs()}, recline.NewCoordinator()); h.FinalGC == 0 {
		t.Errorf("global replay: %+v: want the recorded schedule's length", h)
	}
	replay("sharded replay", core.Config{ID: 6, OrderMode: ids.OrderSharded, ReplayLogs: sharded.Logs()}, nil)

	// A crash cut the WAL two thirds of the way through: the recovered
	// prefix replays until its threads run out of schedule.
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(dir, "cut.wal")
	if err := os.WriteFile(cut, data[:2*len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	salvaged, _, err := tracelog.RecoverFile(cut)
	if err != nil {
		t.Fatal(err)
	}
	if h := replay("recovered replay", core.Config{ID: 5, ReplayLogs: salvaged, StopAtLogEnd: true}, recline.NewCoordinator()); h.LogEndStops == 0 {
		t.Errorf("recovered replay: %+v: want threads stopped at the end of the log", h)
	}
}

// frozenRecorder starts a recording VM with a WAL and causal tracing and
// returns once one of its threads has stopped, until release is closed:
// inside the critical event at counter at, in its EventObserver, or with
// inFsync inside its WAL's first fsync, in the OnSync hook.
func frozenRecorder(t *testing.T, at ids.GCount, inFsync bool) (vm *core.VM, release chan struct{}) {
	t.Helper()
	frozen, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	freeze := func() { once.Do(func() { close(frozen); <-release }) }
	cfg := core.Config{ID: 7, Mode: ids.Record}
	opts := tracelog.WALOptions{SyncEvery: 8}
	if inFsync {
		opts.OnSync = freeze
	} else {
		cfg.EventObserver = func(_ ids.ThreadNum, gc ids.GCount) {
			if gc == at {
				freeze()
			}
		}
	}
	vm, err := core.NewVM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.EnableWAL(filepath.Join(t.TempDir(), "node.wal"), opts); err != nil {
		t.Fatal(err)
	}
	if err := vm.EnableCausalTrace(); err != nil {
		t.Fatal(err)
	}
	go holderWorkload(vm, nil)
	<-frozen
	return vm, release
}

// TestSnapshotNeverWaitsOnItsVM: a recorder stopped for good inside a critical
// event holds its stream lock, and one stopped inside an fsync its WAL
// writer's; a snapshot and the event total, which a supervisor polls to notice
// exactly that, still return at once.
func TestSnapshotNeverWaitsOnItsVM(t *testing.T) {
	const at = 40
	for _, inFsync := range []bool{false, true} {
		vm, release := frozenRecorder(t, at, inFsync)
		for name, read := range map[string]func() uint64{
			"Snapshot":    func() uint64 { return vm.Metrics().Snapshot().TotalEvents },
			"TotalEvents": vm.Metrics().TotalEvents,
		} {
			got := make(chan uint64, 1)
			go func() { got <- read() }()
			select {
			case n := <-got:
				if !inFsync && n != at {
					t.Errorf("%s read %d events while event %d is in flight", name, n, at)
				}
			case <-time.After(time.Second):
				t.Fatalf("%s waits on a VM stopped inside its critical section (in an fsync: %v)", name, inFsync)
			}
		}
		close(release)
		vm.Wait()
		vm.Close()
	}
}

// TestSnapshotRacesRecording takes snapshots in a loop while a recorder with
// a WAL and causal tracing runs: under -race it shows the owner hook reads
// only what it may without the stream locks. What the snapshots report never
// decreases.
func TestSnapshotRacesRecording(t *testing.T) {
	vm, err := core.NewVM(core.Config{ID: 8, Mode: ids.Record, RecordJitter: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.EnableWAL(filepath.Join(t.TempDir(), "node.wal"), tracelog.WALOptions{SyncEvery: 4}); err != nil {
		t.Fatal(err)
	}
	if err := vm.EnableCausalTrace(); err != nil {
		t.Fatal(err)
	}
	done, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		var prev obs.Snapshot
		for n := 0; ; n++ {
			s := vm.Metrics().Snapshot()
			if s.TotalEvents < prev.TotalEvents || s.Logs.TotalBytes() < prev.Logs.TotalBytes() ||
				s.Intervals < prev.Intervals || s.Causal.Timestamps < prev.Causal.Timestamps || s.Faults.WALSyncs < prev.Faults.WALSyncs {
				t.Errorf("snapshot %d went back:\nfrom %+v\nto   %+v", n, prev, s)
			}
			prev = s
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	holderWorkload(vm, nil)
	if err := vm.Close(); err != nil {
		t.Fatal(err)
	}
	close(done)
	<-stopped
	_, syncs := vm.Logs().WAL().Stats()
	checkHolders(t, "after the race", vm, syncs, core.ObsSampleDefault)
}
