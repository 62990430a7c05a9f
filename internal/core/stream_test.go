package core

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/ids"
	"repro/internal/tracelog"
)

// TestThreadFillsWholeCacheLines: threads running in parallel each write
// their own Thread on every event, and a stream's holder writes its own
// third of the stream; a size that is a multiple of the 64-byte line puts
// every object on a line boundary, so none of those writes lands on a line
// another thread reads per event. A Thread one field larger than two lines
// made par-sharded bimodal: a quarter of its repetitions recorded and
// replayed at half speed.
func TestThreadFillsWholeCacheLines(t *testing.T) {
	for name, size := range map[string]uintptr{"Thread": unsafe.Sizeof(Thread{}), "stream": unsafe.Sizeof(stream{})} {
		if size%64 != 0 {
			t.Errorf("%s is %d bytes, not a whole number of cache lines: resize its padding", name, size)
		}
	}
}

// scheduleRecords returns the schedule log's records in append order.
func scheduleRecords(t *testing.T, vm *VM) []tracelog.Entry {
	t.Helper()
	entries, err := vm.Logs().Schedule.Entries()
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

// TestScheduleLogIntervalsInCounterOrder: a stream has one open run and whoever
// takes the counter over flushes it, so the recorder writes the global
// schedule's intervals in counter order — record for record what
// tracelog.CompressOrder (and so ComposeSchedule) produces from the same
// total order. 32 threads at RecordJitter 1 (an interval per event or so) and
// 0 (long bursts).
func TestScheduleLogIntervalsInCounterOrder(t *testing.T) {
	for _, jitter := range []int{1, 0} {
		t.Run(fmt.Sprintf("jitter%d", jitter), func(t *testing.T) {
			_, _, vm := runRacyCounter(t, Config{ID: 66, Mode: ids.Record, RecordJitter: jitter}, 32, 40)
			var logged []tracelog.Interval
			for _, e := range scheduleRecords(t, vm) {
				if iv, ok := e.(*tracelog.Interval); ok {
					if n := len(logged); n > 0 && iv.First <= logged[n-1].First {
						t.Fatalf("interval %d [%d,%d] follows [%d,%d]: not in increasing First order",
							n, iv.First, iv.Last, logged[n-1].First, logged[n-1].Last)
					}
					logged = append(logged, *iv)
				}
			}
			idx, err := tracelog.BuildScheduleIndex(vm.Logs().Schedule)
			if err != nil {
				t.Fatal(err)
			}
			// FlattenIntervals fails unless the intervals partition [0, FinalGC).
			order, err := tracelog.FlattenIntervals(idx)
			if err != nil {
				t.Fatal(err)
			}
			want := tracelog.CompressOrder(0, order)
			if len(logged) != len(want) {
				t.Fatalf("recorder logged %d intervals, CompressOrder yields %d", len(logged), len(want))
			}
			for i := range want {
				if logged[i] != want[i] {
					t.Fatalf("interval %d: recorder logged %+v, CompressOrder yields %+v", i, logged[i], want[i])
				}
			}
		})
	}
}

// TestWALNoteRoundWritesOneNote: with a WAL attached and main parked in Join,
// a note round has exactly one open run to snapshot — the one the round's own
// event extended. Every note therefore ends on the event that triggered its
// round, and no two notes share a round.
func TestWALNoteRoundWritesOneNote(t *testing.T) {
	const every = 8
	vm, err := NewVM(Config{ID: 67, Mode: ids.Record, RecordJitter: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.EnableWAL(t.TempDir()+"/node.wal", tracelog.WALOptions{SyncEvery: every}); err != nil {
		t.Fatal(err)
	}
	var counter SharedInt
	mon := NewMonitor()
	vm.Start(func(main *Thread) {
		children := make([]*Thread, 3)
		for w := range children {
			children[w] = main.Spawn(func(th *Thread) {
				for i := 0; i < 30; i++ {
					mon.Enter(th)
					counter.Set(th, counter.Get(th)+1)
					mon.Exit(th)
				}
			})
		}
		for _, c := range children {
			main.Join(c)
		}
	})
	vm.Wait()
	vm.Close()

	rounds := map[ids.GCount]bool{}
	for _, e := range scheduleRecords(t, vm) {
		note, ok := e.(*tracelog.OpenInterval)
		if !ok {
			continue
		}
		if (uint64(note.Last)+1)%every != 0 {
			t.Errorf("note %+v does not end on a round's event: it snapshots a run the round did not extend", *note)
		}
		if rounds[note.Last] {
			t.Errorf("two notes in the round after counter %d", note.Last)
		}
		rounds[note.Last] = true
	}
	if want := int(vm.Clock()) / every; len(rounds) != want {
		t.Errorf("%d note rounds wrote a note, want all %d", len(rounds), want)
	}
}
