package tracelog

import (
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/ids"
)

// The read side of the package, each over at least 100 000 records: what
// replay start-up (LoadSet, the three indexes) and crash recovery
// (RecoverFile) cost per record, in time and in allocations. Run with
//
//	go test -run '^$' -bench . -benchmem ./internal/tracelog/

const benchRecords = 120_000

// benchSet appends benchRecords records to each log of s: schedule intervals
// of eight rotating threads, open-world reads and writes of 64 bytes, and
// datagram deliveries.
func benchSet(s *Set) {
	data := make([]byte, 64)
	for i := 0; i < benchRecords; i++ {
		ev := ids.NetworkEventID{Thread: ids.ThreadNum(i % 8), Event: ids.EventNum(i / 8)}
		s.Schedule.Append(&Interval{Thread: ev.Thread, First: ids.GCount(2 * i), Last: ids.GCount(2*i + 1)})
		if i%2 == 0 {
			s.Network.Append(&OpenReadEntry{EventID: ev, Data: data})
		} else {
			s.Network.Append(&OpenWriteEntry{EventID: ev, Len: 64, Sum: uint64(i)})
		}
		s.Datagram.Append(&DatagramRecvEntry{EventID: ev, ReceiverGC: ids.GCount(2 * i), Datagram: ids.DGNetworkEventID{VM: 2, GC: ids.GCount(i)}})
	}
	s.Schedule.Append(&VMMeta{VM: 1, World: ids.OpenWorld, Threads: 8, FinalGC: 2 * benchRecords})
}

func BenchmarkBuildIndex(b *testing.B) {
	s := NewSet()
	benchSet(s)
	for _, bc := range []struct {
		name  string
		build func() error
	}{
		{"schedule", func() error { _, err := BuildScheduleIndex(s.Schedule); return err }},
		{"network", func() error { _, err := BuildNetworkIndex(s.Network); return err }},
		{"datagram", func() error { _, err := BuildDatagramIndex(s.Datagram); return err }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.build(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkLoadSet(b *testing.B) {
	s := NewSet()
	benchSet(s)
	dir := b.TempDir()
	if err := s.Save(dir); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadSet(dir); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecoverFile(b *testing.B) {
	path := filepath.Join(b.TempDir(), "node.wal")
	w, err := CreateWAL(path, WALOptions{SyncEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	s := NewSet()
	if err := s.AttachWAL(w); err != nil {
		b.Fatal(err)
	}
	s.Schedule.Append(&VMMeta{VM: 1, World: ids.OpenWorld})
	benchSet(s)
	if err := s.CloseWAL(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, rep, err := RecoverFile(path); err != nil || !rep.Clean {
			b.Fatalf("RecoverFile: %v, %+v", err, rep)
		}
	}
}

// TestScheduleIndexAllocatesWhatItKeeps: at real parallelism a schedule log is
// one interval (or obj-run) per lock hand-off, tens of thousands of them, and
// the process's high-water mark follows what building the index allocates. An
// index that grows its slices by append allocates about five times what it
// keeps; sized from a counting walk it allocates little more than it keeps.
func TestScheduleIndexAllocatesWhatItKeeps(t *testing.T) {
	const records = 40_000
	for _, tc := range []struct {
		name   string
		record func(i int) Entry
	}{
		{"intervals", func(i int) Entry {
			return &Interval{Thread: ids.ThreadNum(i % 2), First: ids.GCount(3 * i), Last: ids.GCount(3*i + 2)}
		}},
		{"obj-runs", func(i int) Entry {
			return &ObjRun{Obj: ids.ObjectID(i % 2), Thread: ids.ThreadNum(i % 3), First: ids.AccessSeq(3 * i), Last: ids.AccessSeq(3*i + 2)}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := NewLog()
			for i := 0; i < records; i++ {
				l.Append(tc.record(i))
			}
			l.Append(&VMMeta{VM: 1, Threads: 3, FinalGC: 3 * records})
			var before, built, kept runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			idx, err := BuildScheduleIndex(l)
			runtime.ReadMemStats(&built)
			runtime.GC()
			runtime.ReadMemStats(&kept)
			if err != nil {
				t.Fatal(err)
			}
			if n := len(idx.Intervals[0]) + len(idx.Intervals[1]) + len(idx.ObjRuns[0]) + len(idx.ObjRuns[1]); n != records {
				t.Fatalf("index holds %d records, want %d", n, records)
			}
			allocated, retained := built.TotalAlloc-before.TotalAlloc, kept.HeapAlloc-before.HeapAlloc
			t.Logf("%d KB log: allocated %d KB, retained %d KB", l.Size()>>10, allocated>>10, retained>>10)
			if retained < records*16 || allocated > retained*3/2 {
				t.Errorf("allocated %d bytes to retain %d: want at most 1.5 times as much", allocated, retained)
			}
			runtime.KeepAlive(idx)
		})
	}
}
