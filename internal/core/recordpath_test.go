package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/tracelog"
)

// TestRecordPathsWriteTheSameLog: a recorded event is the same event whichever
// way it is recorded. A SharedInt.Get or Set runs in place inside record's
// section, with no closure and no exec, unless the stream is observed; a
// closure event (Add, SharedVar.Update, a monitor, spawn and join) always
// goes through exec; all of them end in the one run tail. A seeded program
// whose threads run one at a time is recorded three ways, and every way must
// write the same schedule log, the same WAL and the same per-kind counts:
//   - default: bare accesses in place, 1 closure event in 64 of the global
//     stream timed into the GC-hold histogram;
//   - sample1 (ObsSampleRate 1): the same paths with every closure event of
//     the global stream timed, so it must time more holds than default —
//     the clock reads move no byte;
//   - observer (an EventObserver): every event, bare accesses included,
//     through exec, the word published per event.
//
// The program's spawn and join hand the streams over between threads, so new
// runs open and finished ones are flushed on the closure-free path too.
// EnableWAL and EventObserver are rejected under OrderSharded, so that order
// mode has no WAL and no observer arm.
func TestRecordPathsWriteTheSameLog(t *testing.T) {
	for _, tc := range []struct {
		order ids.OrderMode
		wal   bool
	}{
		{ids.OrderGlobal, false},
		{ids.OrderGlobal, true},
		{ids.OrderSharded, false},
	} {
		t.Run(fmt.Sprintf("%v/wal=%v", tc.order, tc.wal), func(t *testing.T) {
			ways := []struct {
				name string
				cfg  Config
			}{
				{"default", Config{}},
				{"sample1", Config{ObsSampleRate: 1}},
			}
			if tc.order == ids.OrderGlobal {
				ways = append(ways, struct {
					name string
					cfg  Config
				}{"observer", Config{EventObserver: func(ids.ThreadNum, ids.GCount) {}}})
			}
			var (
				wantSched, wantWAL []byte
				wantFinal          int64
				wantEvents         obs.EventCounts
				wantTotal          uint64
				defaultHolds       uint64
			)
			for i, way := range ways {
				cfg := way.cfg
				cfg.ID, cfg.Mode, cfg.OrderMode = 97, ids.Record, tc.order
				vm := startVM(t, cfg)
				walPath := ""
				if tc.wal {
					walPath = filepath.Join(t.TempDir(), "node.wal")
					if err := vm.EnableWAL(walPath, tracelog.WALOptions{SyncEvery: 64}); err != nil {
						t.Fatal(err)
					}
				}
				final := recordPathsProgram(vm, 1)
				vm.Wait()
				if err := vm.Close(); err != nil {
					t.Fatal(err)
				}
				sched := vm.Logs().Schedule.Bytes()
				var wal []byte
				if tc.wal {
					var err error
					if wal, err = os.ReadFile(walPath); err != nil {
						t.Fatal(err)
					}
				}
				snap := vm.Metrics().Snapshot()
				if i == 0 {
					wantSched, wantWAL, wantFinal = sched, wal, *final
					wantEvents, wantTotal, defaultHolds = snap.Events, snap.TotalEvents, snap.GCHold.Count
					if snap.Events.Shared == 0 || snap.Events.MonitorEnter == 0 || snap.Events.Total() != snap.TotalEvents {
						t.Fatalf("%s: events %+v, total %d", way.name, snap.Events, snap.TotalEvents)
					}
					continue
				}
				if !bytes.Equal(sched, wantSched) {
					t.Errorf("%s: schedule log differs from %s's (%d bytes against %d)", way.name, ways[0].name, len(sched), len(wantSched))
				}
				if !bytes.Equal(wal, wantWAL) {
					t.Errorf("%s: WAL differs from %s's (%d bytes against %d)", way.name, ways[0].name, len(wal), len(wantWAL))
				}
				if *final != wantFinal {
					t.Errorf("%s: program ended at %d, %s's at %d", way.name, *final, ways[0].name, wantFinal)
				}
				if snap.Events != wantEvents || snap.TotalEvents != wantTotal {
					t.Errorf("%s: counts %+v (total %d), %s's %+v (total %d)",
						way.name, snap.Events, snap.TotalEvents, ways[0].name, wantEvents, wantTotal)
				}
				if way.name == "sample1" && snap.GCHold.Count <= defaultHolds {
					t.Errorf("sample1 timed %d holds, default %d: rate 1 must time every closure event", snap.GCHold.Count, defaultHolds)
				}
			}
		})
	}
}

// recordPathsProgram starts a seeded program on vm whose threads run one at a
// time: main runs a seeded mix of racy Get+Set on a registered and an
// unregistered SharedInt, Add, SharedVar.Update and a monitor enter/exit, and
// every few steps spawns a child that runs a stretch of the same mix and joins
// it. The returned value holds the sum of the variables once vm has finished.
func recordPathsProgram(vm *VM, seed int64) *int64 {
	var reg, unreg SharedInt
	reg.Register(vm)
	var sv SharedVar[int64]
	sv.Register(vm)
	mon := NewMonitor()
	mon.Register(vm)
	rng := rand.New(rand.NewSource(seed))
	steps := make([]int, 1500)
	for i := range steps {
		steps[i] = rng.Intn(6)
	}
	run := func(th *Thread, steps []int) {
		for _, op := range steps {
			switch op {
			case 0, 1:
				reg.Set(th, reg.Get(th)+1)
			case 2:
				unreg.Set(th, unreg.Get(th)+2)
			case 3:
				unreg.Add(th, 3)
			case 4:
				sv.Update(th, func(v int64) int64 { return v + 4 })
			case 5:
				mon.Enter(th)
				mon.Exit(th)
			}
		}
	}
	final := new(int64)
	vm.Start(func(main *Thread) {
		for i := 0; i < len(steps); i += 100 {
			run(main, steps[i:i+50])
			child := main.Spawn(func(th *Thread) { run(th, steps[i+50:i+100]) })
			main.Join(child)
		}
		*final = reg.Get(main) + unreg.Get(main) + sv.Get(main)
	})
	return final
}
