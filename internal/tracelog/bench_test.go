package tracelog

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
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

// The content log of an open-world server, the shape net-open records: one
// open-read record of contentPayload bytes per connection.
const (
	contentRecords = 32_000
	contentPayload = 1 << 10
)

// appendContent appends the content log's records to l, all from one buffer
// of seeded bytes, so the only memory a caller's measurement sees is the
// log's own.
func appendContent(l *Log) { appendContentThen(l, func() {}) }

// appendContentThen is appendContent, calling after once each record is in.
func appendContentThen(l *Log, after func()) {
	data := make([]byte, contentPayload)
	rand.New(rand.NewSource(1)).Read(data)
	e := &OpenReadEntry{Data: data}
	for i := 0; i < contentRecords; i++ {
		e.EventID = ids.NetworkEventID{Thread: ids.ThreadNum(i % 8), Event: ids.EventNum(i / 8)}
		l.Append(e)
		after()
	}
}

// appendOpenServer appends an open-world server's log of conns connections
// to l: per connection an accept from host "client", a read of
// contentPayload bytes and a write, logged by openWorkers threads in turn,
// as net-open's server logs them.
func appendOpenServer(l *Log, conns int) {
	data := make([]byte, contentPayload)
	for c := range conns {
		w, e := ids.ThreadNum(c%openWorkers), ids.EventNum(3*(c/openWorkers))
		l.Append(&OpenAcceptEntry{EventID: ids.NetworkEventID{Thread: w, Event: e}, RemoteHost: "client", RemotePort: uint16(c)})
		l.Append(&OpenReadEntry{EventID: ids.NetworkEventID{Thread: w, Event: e + 1}, Data: data})
		l.Append(&OpenWriteEntry{EventID: ids.NetworkEventID{Thread: w, Event: e + 2}, Len: contentPayload, Sum: uint64(c)})
	}
}

const openWorkers = 4

func BenchmarkAppendContent(b *testing.B) {
	b.ReportAllocs()
	b.SetBytes(contentRecords * contentPayload)
	for i := 0; i < b.N; i++ {
		appendContent(NewLog())
	}
}

func BenchmarkBuildIndex(b *testing.B) {
	s := NewSet()
	benchSet(s)
	content, server := NewLog(), NewLog()
	appendContent(content)
	appendOpenServer(server, contentRecords)
	for _, bc := range []struct {
		name  string
		build func() error
	}{
		{"schedule", func() error { _, err := BuildScheduleIndex(s.Schedule); return err }},
		{"network", func() error { _, err := BuildNetworkIndex(s.Network); return err }},
		{"network-content", func() error { _, err := BuildNetworkIndex(content); return err }},
		{"open-server", func() error { _, err := BuildNetworkIndex(server); return err }},
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

// TestOpenServerIndexAllocatesPerIndexNotPerRecord: BuildNetworkIndex walks
// net-open's shape with scratch records, and a host name decoded into one
// that already holds it is kept, not copied — so what the build allocates
// does not grow with its 32 000 accepts.
func TestOpenServerIndexAllocatesPerIndexNotPerRecord(t *testing.T) {
	server := NewLog()
	appendOpenServer(server, contentRecords)
	if n := testing.AllocsPerRun(2, func() {
		if _, err := BuildNetworkIndex(server); err != nil {
			t.Fatal(err)
		}
	}); n >= 100 {
		t.Fatalf("BuildNetworkIndex of %d open accepts, reads and writes allocates %.0f times, want under 100", contentRecords, n)
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

func BenchmarkLoadSetContent(b *testing.B) {
	s := NewSet()
	appendContent(s.Network)
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

// BenchmarkReadContent copies every payload of the content log out through
// its index, in log order as replay asks for them: from the recorded log's
// chunks, and from a loaded log's file through its window.
func BenchmarkReadContent(b *testing.B) {
	s := NewSet()
	appendContent(s.Network)
	dir := b.TempDir()
	if err := s.Save(dir); err != nil {
		b.Fatal(err)
	}
	loaded, err := LoadSet(dir)
	if err != nil {
		b.Fatal(err)
	}
	for name, l := range map[string]*Log{"recorded": s.Network, "loaded": loaded.Network} {
		idx, err := BuildNetworkIndex(l)
		if err != nil {
			b.Fatal(err)
		}
		var evs []ids.NetworkEventID
		for ev := range idx.OpenReads.All() {
			evs = append(evs, ev)
		}
		sort.Slice(evs, func(i, j int) bool { // log order
			ri, _ := idx.OpenReads.Get(evs[i])
			rj, _ := idx.OpenReads.Get(evs[j])
			return ri.Off < rj.Off
		})
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(contentRecords * contentPayload)
			p := make([]byte, contentPayload)
			for b.Loop() {
				for _, ev := range evs {
					row, _ := idx.OpenReads.Get(ev)
					if _, _, _, err := idx.Content(ev, row, p[:0]); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

var sumSink uint64

// BenchmarkOpenWriteSum: the checksum of an open-world write, as records made
// before PR 19 hold it (byte-at-a-time FNV-1a) and as records hold it since.
func BenchmarkOpenWriteSum(b *testing.B) {
	for _, size := range []int{64, 1 << 10, 64 << 10} {
		p := make([]byte, size)
		rand.New(rand.NewSource(1)).Read(p)
		b.Run(fmt.Sprintf("fnv1a/%d", size), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				h := fnv.New64a()
				h.Write(p)
				sumSink = h.Sum64()
			}
		})
		b.Run(fmt.Sprintf("wide/%d", size), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				sumSink = WideSum(p)
			}
		})
	}
}

// BenchmarkRecoverFile salvages a WAL of two shapes: clean, a closed
// recording's full set, which needs no repair; and crashed, crashedIntervals
// intervals over four threads with no final meta, whose coverage recovery
// must sort and sweep.
func BenchmarkRecoverFile(b *testing.B) {
	b.Run("clean", func(b *testing.B) {
		benchRecover(b, true, 2*benchRecords, benchSet)
	})
	b.Run("crashed", func(b *testing.B) {
		benchRecover(b, false, 2*crashedIntervals, func(s *Set) {
			for i := 0; i < crashedIntervals; i++ {
				s.Schedule.Append(&Interval{Thread: ids.ThreadNum(i % 4), First: ids.GCount(2 * i), Last: ids.GCount(2*i + 1)})
			}
		})
	})
}

const crashedIntervals = 40_000

// benchRecover writes a header meta and the records fill appends to a WAL,
// then times its recovery, which must reach finalGC, and be clean or not.
func benchRecover(b *testing.B, clean bool, finalGC ids.GCount, fill func(*Set)) {
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
	fill(s)
	if err := s.CloseWAL(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, rep, err := RecoverFile(path); err != nil || rep.Clean != clean || rep.FinalGC != finalGC {
			b.Fatalf("RecoverFile: %v, %+v", err, rep)
		}
	}
}

// BenchmarkTruncateWAL compacts the WAL of a live recording: truncIntervals
// intervals over four threads, a closed-world read for each, and
// truncCheckpoints checkpoints of main, thread 0, spread evenly; it keeps two
// of them, so the anchor's base is where the last 1/truncCheckpoints of the
// run begins. Each compaction rewrites the WAL from the whole in-memory set.
func BenchmarkTruncateWAL(b *testing.B) {
	s := truncateSet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		truncate(b, s)
	}
}

// TestTruncateWALAllocatesPerRunNotPerRecord: a compaction walks the set
// with scratch records, so what it allocates grows with the runs it keeps
// and the log chunks it walks, not with the records it reads — decoding the
// logs whole allocated about two objects a record.
func TestTruncateWALAllocatesPerRunNotPerRecord(t *testing.T) {
	s := truncateSet(t)
	if n := testing.AllocsPerRun(2, func() { truncate(t, s) }); n >= 5000 {
		t.Fatalf("TruncateWAL of %d intervals, %d reads and %d checkpoints allocates %.0f times, want under 5000",
			truncIntervals, truncIntervals, truncCheckpoints, n)
	}
}

const truncIntervals, truncCheckpoints = 40_000, 40

// truncateSet records BenchmarkTruncateWAL's run through a WAL that syncs
// only when it closes.
func truncateSet(tb testing.TB) *Set {
	w, err := CreateWAL(filepath.Join(tb.TempDir(), "node.wal"), WALOptions{SyncEvery: -1})
	if err != nil {
		tb.Fatal(err)
	}
	s := NewSet()
	if err := s.AttachWAL(w); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.CloseWAL() })
	s.Schedule.Append(&VMMeta{VM: 1, World: ids.ClosedWorld})
	for i := 0; i < truncIntervals; i++ {
		ev := ids.NetworkEventID{Thread: ids.ThreadNum(i % 4), Event: ids.EventNum(i / 4)}
		s.Network.Append(&ReadEntry{EventID: ev, N: 64})
		s.Schedule.Append(&Interval{Thread: ev.Thread, First: ids.GCount(2 * i), Last: ids.GCount(2*i + 1)})
		if (i+1)%(truncIntervals/truncCheckpoints) == 0 {
			s.Schedule.Append(&CheckpointEntry{GC: ids.GCount(2*i + 2), NextThread: 4, MainEventNum: ids.EventNum(i/4 + 1), State: []byte("state")})
		}
	}
	return s
}

// truncate compacts s keeping two checkpoints and checks what it kept: the
// header and base, the last 1/truncCheckpoints of the intervals, both
// checkpoints, and thread 0's reads from the anchor on.
func truncate(tb testing.TB, s *Set) {
	const runs = truncIntervals / truncCheckpoints
	st, err := s.TruncateWAL(2)
	if err != nil || st.BaseGC != 2*(truncIntervals-runs) || st.KeptRecords != 2+runs+2+runs/4 {
		tb.Fatalf("TruncateWAL: %v, %+v", err, st)
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
			n := 0
			for _, s := range idx.Streams {
				for _, runs := range s.Runs {
					n += len(runs)
				}
			}
			if n != records {
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

// TestAppendNeverMovesALoggedByte: a log that holds its stream in one slice
// grown by append reallocates and copies everything it has logged so far about
// 45 times on the way to 34 MB — five times the log allocated, four times it
// copied. Held as chunks the log allocates what it holds, and the first byte
// it logged is where it was put until its chunk spills, and then the first
// byte of the log's file.
func TestAppendNeverMovesALoggedByte(t *testing.T) {
	l := NewLog()
	l.Append(&OpenReadEntry{})
	first, moved := l.chunks[0], false
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	appendContentThen(l, func() {
		if l.fileLen == 0 && &l.chunks[0][0] != &first[0] {
			moved = true
		}
	})
	runtime.ReadMemStats(&after)
	allocated, size := after.TotalAlloc-before.TotalAlloc, uint64(l.Size())
	t.Logf("%d KB log in %d chunks and a %d KB file: allocated %d KB", size>>10, len(l.chunks), l.fileLen>>10, allocated>>10)
	if size < contentRecords*contentPayload || allocated > size*115/100 {
		t.Errorf("allocated %d bytes to log %d: want at most 1.15 times as much", allocated, size)
	}
	head := make([]byte, len(first))
	if moved {
		t.Error("the first record's first byte moved before its chunk spilled")
	} else if l.fileLen == 0 {
		t.Errorf("a %d-byte log never spilled", size)
	} else if _, err := readAt(l.file, head, 0); err != nil || !bytes.Equal(head, first) {
		t.Errorf("the log's file begins %x (%v), want the first record %x", head, err, first)
	}
	for i, c := range l.chunks {
		if cap(c) > maxChunk {
			t.Errorf("chunk %d holds %d bytes, more than the maximum %d", i, cap(c), maxChunk)
		}
	}
}

// TestLoadedLogHoldsAWindow: a loaded content log is its file, not a copy of
// it. Loading it and indexing it allocate one window each, beyond the
// index's rows; the rows hold no pointer, only where each record is; and
// what Content copies out of the file is what was recorded, in a slice of
// the caller's.
func TestLoadedLogHoldsAWindow(t *testing.T) {
	s := NewSet()
	appendContent(s.Network)
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	var before, loadedAt, indexed runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	loaded, err := LoadSet(dir)
	runtime.ReadMemStats(&loadedAt)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := BuildNetworkIndex(loaded.Network)
	runtime.ReadMemStats(&indexed)
	if err != nil {
		t.Fatal(err)
	}
	if l := loaded.Network; l.file == nil || len(l.chunks) != 0 || l.Size() != s.Network.Size() {
		t.Fatalf("the loaded log holds %d chunks and a file extent of %d bytes; want the %d-byte file as its extent",
			len(l.chunks), l.fileLen, s.Network.Size())
	}
	// Keys, rows, and the sort's eight bytes a row of scratch.
	const perRow = 8 + 24 + 8
	load, build := loadedAt.TotalAlloc-before.TotalAlloc, indexed.TotalAlloc-loadedAt.TotalAlloc
	t.Logf("%d KB log: load allocated %d KB, index %d KB (%d B a row beyond the window)",
		loaded.Network.Size()>>10, load>>10, build>>10, (int(build)-window)/contentRecords)
	if load > window+32<<10 {
		t.Errorf("LoadSet allocated %d bytes, want at most one window (%d) and 32 KiB", load, window)
	}
	if idx.OpenReads.Len() != contentRecords || build > window+perRow*contentRecords+32<<10 {
		t.Errorf("indexing %d records allocated %d bytes, want at most one window (%d), 32 KiB and %d bytes a row",
			idx.OpenReads.Len(), build, window, perRow)
	}
	if hasPointers(reflect.TypeFor[ContentRow]()) {
		t.Error("a content row holds a pointer")
	}

	data := make([]byte, contentPayload)
	rand.New(rand.NewSource(1)).Read(data)
	buf := make([]byte, 0, contentPayload)
	for ev, row := range idx.OpenReads.All() {
		got, _, _, err := idx.Content(ev, row, buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) || &got[0] != &buf[:1][0] {
			t.Fatalf("open-read %v: copied out %d bytes, into the caller's slice: %v; want the recorded %d",
				ev, len(got), &got[0] == &buf[:1][0], len(data))
		}
		clear(got) // the copy is the caller's: the log must not see this
	}
	// Entries decoded from either source alias it with their capacity cut to
	// their length: an append to one reallocates instead of running into the
	// next record.
	for _, l := range []*Log{s.Network, loaded.Network} {
		image := l.Bytes()
		err := l.Each(func(e Entry) error {
			d := e.(*OpenReadEntry).Data
			if cap(d) != len(d) {
				return fmt.Errorf("%v: Data has len %d cap %d", e.(*OpenReadEntry).EventID, len(d), cap(d))
			}
			_ = append(d, 0xAA, 0xBB)
			return nil
		})
		if err != nil || !bytes.Equal(l.Bytes(), image) {
			t.Fatalf("appending to decoded entries' Data: %v; the log changed: %v", err, !bytes.Equal(l.Bytes(), image))
		}
	}
	// Replay's threads read content at once, through the one window.
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ev, row := range idx.OpenReads.All() {
				if int(ev.Thread)%4 != g {
					continue
				}
				if got, _, _, err := idx.Content(ev, row, nil); err != nil || !bytes.Equal(got, data) {
					t.Errorf("open-read %v read back again: %v", ev, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// hasPointers reports whether a value of type t holds a pointer the collector
// must scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Struct:
		for i := range t.NumField() {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	}
	return true
}

// TestEachHoldsAWindow: Each over a loaded log holds the window it decodes
// from, never the file — the walk djtrace streams a log through. A callback
// that keeps nothing sees the heap grow by about two windows at most.
func TestEachHoldsAWindow(t *testing.T) {
	s := NewSet()
	appendContent(s.Network)
	if s.Network.Size() < 16<<20 {
		t.Fatalf("the log is %d bytes, want at least 16 MB", s.Network.Size())
	}
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	base, peak := ms.HeapInuse, ms.HeapInuse
	loaded, err := LoadSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	err = loaded.Network.Each(func(e Entry) error {
		if n++; n%(contentRecords/8) == 0 {
			runtime.GC()
			runtime.ReadMemStats(&ms)
			peak = max(peak, ms.HeapInuse)
		}
		return nil
	})
	if err != nil || n != contentRecords {
		t.Fatalf("Each visited %d records: %v", n, err)
	}
	t.Logf("%d KB log: Each grew the heap in use by at most %d KB", loaded.Network.Size()>>10, (peak-base)>>10)
	if peak-base > 2*window+256<<10 {
		t.Errorf("Each over a %d-byte loaded log grew the heap in use by %d bytes, want about two windows (%d) at most",
			loaded.Network.Size(), peak-base, 2*window)
	}
}

// TestRecordingLogHoldsAWindow: a recording log holds at most a window of
// sealed chunks and the open one up to its first spill, and from then on only
// the open 1 MiB chunk, the array it spills and opens again; the rest is in
// its file. Its chunks never hold more than that at any append, and the heap
// in use grows by about one chunk over the 32 MB the log records.
func TestRecordingLogHoldsAWindow(t *testing.T) {
	l := NewLog()
	resident, spilledResident := 0, 0
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	base := ms.HeapInuse
	appendContentThen(l, func() {
		n := 0
		for _, c := range l.chunks {
			n += cap(c)
		}
		if l.fileLen == 0 {
			resident = max(resident, n)
		} else {
			spilledResident = max(spilledResident, n)
		}
	})
	runtime.GC()
	runtime.ReadMemStats(&ms)
	t.Logf("%d KB log: at most %d KB of chunks held before the first spill and %d KB after, %d KB in the file; the heap in use grew by %d KB",
		l.Size()>>10, resident>>10, spilledResident>>10, l.fileLen>>10, (int(ms.HeapInuse)-int(base))>>10)
	if resident > window+maxChunk || spilledResident > maxChunk || l.fileLen == 0 {
		t.Errorf("the log held %d bytes of chunks, then %d once it spilled; want at most a window and the largest chunk (%d), then the largest chunk (%d)",
			resident, spilledResident, window+maxChunk, maxChunk)
	}
	if ms.HeapInuse > base+maxChunk+256<<10 {
		t.Errorf("recording a %d-byte log grew the heap in use by %d bytes, want at most %d",
			l.Size(), ms.HeapInuse-base, maxChunk+256<<10)
	}
	runtime.KeepAlive(l)
}

// TestRecordingLogAllocatesOneChunk: after its first spill a recording log
// writes through one chunk, reusing the array it has just spilled, so logging
// 32 MB more allocates less than one more chunk — each chunk its own
// allocation would be 32 of them.
func TestRecordingLogAllocatesOneChunk(t *testing.T) {
	l := NewLog()
	for e := chunkProbe(1, 0, 1000); l.fileLen == 0; e.EventID.Event++ {
		l.Append(e)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	spilled := l.fileLen
	appendContent(l)
	runtime.ReadMemStats(&after)
	grew := after.TotalAlloc - before.TotalAlloc
	t.Logf("spilling %d KB more allocated %d KB", (l.fileLen-spilled)>>10, grew>>10)
	if l.fileLen-spilled < contentRecords*contentPayload*9/10 || grew > maxChunk+256<<10 {
		t.Errorf("logging %d bytes past the first spill allocated %d bytes, want at most one chunk (%d) and 256 KiB",
			l.Size()-spilled, grew, maxChunk)
	}
}

// chunkProbe is one record of the chunk-boundary tests: an open-read whose
// payload is n copies of a byte derived from its event id, so a reader can
// tell a whole record from a torn or misplaced one.
func chunkProbe(thread, event, n int) *OpenReadEntry {
	return &OpenReadEntry{
		EventID: ids.NetworkEventID{Thread: ids.ThreadNum(thread), Event: ids.EventNum(event)},
		Data:    bytes.Repeat([]byte{byte(thread*31 + event)}, n),
	}
}

func checkProbe(e Entry) error {
	r, ok := e.(*OpenReadEntry)
	if !ok {
		return fmt.Errorf("decoded a %v record", e.Kind())
	}
	want := byte(int(r.EventID.Thread)*31 + int(r.EventID.Event))
	for _, b := range r.Data {
		if b != want {
			return fmt.Errorf("record %v holds byte %#x, want %#x", r.EventID, b, want)
		}
	}
	return nil
}

// encoded returns e's record as Append encodes it.
func encoded(e Entry) []byte {
	l := NewLog()
	l.Append(e)
	return l.Bytes()
}

// TestChunkBoundaries: whatever sizes the records have — empty, a few bytes
// either side of what the open chunk can still take at every chunk capacity,
// several times the largest chunk — the log is the concatenation of its
// records, each whole inside one chunk, and Save, LoadSet, the WAL, Len and
// Size cannot tell it from a log held in one piece.
func TestChunkBoundaries(t *testing.T) {
	for delta := -2; delta <= 2; delta++ {
		delta := delta
		t.Run(fmt.Sprintf("end%+d", delta), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(19 + delta)))
			dir := t.TempDir()
			w, err := CreateWAL(filepath.Join(dir, "node.wal"), WALOptions{SyncEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			s := NewSet()
			if err := s.AttachWAL(w); err != nil {
				t.Fatal(err)
			}
			s.Schedule.Append(&VMMeta{VM: 1, World: ids.OpenWorld})
			l := s.Network
			var want []Entry
			var records [][]byte
			opened := 0
			add := func(n int) {
				e := chunkProbe(len(want)%5, len(want)/5, n)
				rec := encoded(e)
				nChunks, spilled := len(l.chunks), l.fileLen
				var head *byte
				seals := nChunks == 0 // or the record opens the log's first chunk
				if nChunks > 0 {
					open := l.chunks[nChunks-1]
					head, seals = &l.chunks[0][0], len(rec) > cap(open)-len(open)
				}
				l.Append(e)
				want, records = append(want, e), append(records, rec)
				// Up to the first spill the log's first byte stays put; a spill
				// moves whole chunks, in order, to the file.
				if l.fileLen == 0 && head != nil && &l.chunks[0][0] != head {
					t.Fatalf("record %d moved the log's first byte", len(want)-1)
				}
				if l.fileLen != spilled && !bytes.Equal(l.Bytes(), bytes.Join(records, nil)) {
					t.Fatalf("record %d spilled the log to %d bytes of file: extent and chunks are not the records", len(want)-1, l.fileLen)
				}
				last := l.chunks[len(l.chunks)-1]
				if !bytes.HasSuffix(last, rec) {
					t.Fatalf("record %d (%d bytes) is not whole at the end of the open chunk", len(want)-1, len(rec))
				}
				if len(l.chunks) > nChunks+1 {
					t.Fatalf("record %d opened %d chunks", len(want)-1, len(l.chunks)-nChunks)
				}
				// A record that does not fit the open chunk seals it and
				// begins the next, which may be the array it was in.
				if seals != (len(last) == len(rec)) {
					t.Fatalf("record %d (%d bytes): sealed the open chunk %v, begins a chunk %v", len(want)-1, len(rec), seals, len(last) == len(rec))
				} else if seals {
					opened++
				}
			}
			// Walk the capacities: fill each open chunk to within delta bytes of
			// its capacity (over it, the record must open the next chunk), with
			// random records in between.
			add(0)
			for capNow := minChunk; ; {
				open := l.chunks[len(l.chunks)-1]
				spare := cap(open) - len(open)
				overhead := len(encoded(chunkProbe(len(want)%5, len(want)/5, spare))) - spare
				if n := spare + delta - overhead; n >= 0 {
					add(n)
				}
				add(rng.Intn(64))
				add(rng.Intn(3 * minChunk))
				if capNow == maxChunk {
					break
				}
				capNow *= 2
				// Fill on until the log has opened a chunk of the next capacity.
				for cap(l.chunks[len(l.chunks)-1]) < capNow {
					add(rng.Intn(capNow / 2))
				}
			}
			add(3 * maxChunk)
			add(maxChunk + delta)
			add(rng.Intn(100))
			add(0)
			s.Schedule.Append(&VMMeta{VM: 1, World: ids.OpenWorld, Threads: 5})
			if err := s.CloseWAL(); err != nil {
				t.Fatal(err)
			}

			stream := bytes.Join(records, nil)
			if !bytes.Equal(l.Bytes(), stream) {
				t.Fatal("Bytes() is not the concatenation of the records")
			}
			whole := &Log{chunks: [][]byte{stream}}
			if err := whole.countRecords(); err != nil || whole.Len() != l.Len() || whole.Size() != l.Size() || whole.Len() != len(want) || whole.kinds != l.kinds {
				t.Fatalf("Len %d Size %d; the same records in one chunk: %d (%v) and %d", l.Len(), l.Size(), whole.Len(), err, whole.Size())
			}
			if opened < 12 || l.fileLen == 0 {
				t.Fatalf("the log opened %d chunks and spilled %d bytes: the test did not walk the capacities", opened, l.fileLen)
			}

			if err := s.Save(dir); err != nil {
				t.Fatal(err)
			}
			if file, err := os.ReadFile(filepath.Join(dir, "network.log")); err != nil || !bytes.Equal(file, stream) {
				t.Fatalf("saved file differs from the stream (%v)", err)
			}
			loaded, err := LoadSet(dir)
			if err != nil {
				t.Fatal(err)
			}
			for name, lg := range map[string]*Log{"recorded": l, "loaded": loaded.Network} {
				got, err := lg.Entries()
				if err != nil {
					t.Fatalf("%s log: %v", name, err)
				}
				if len(got) != len(want) || lg.Len() != len(want) {
					t.Fatalf("%s log: %d entries, Len %d, want %d", name, len(got), lg.Len(), len(want))
				}
				for i := range want {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Fatalf("%s log: entry %d does not round-trip", name, i)
					}
				}
			}

			wal, err := os.ReadFile(w.path)
			if err != nil {
				t.Fatal(err)
			}
			var sc scratch
			frames := 0
			for _, off := range frameOffsets(t, wal) {
				logID, payload, _ := readFrame(wal[off:], &sc)
				if logID != logNetwork {
					continue
				}
				if frames >= len(records) || !bytes.Equal(payload, records[frames]) {
					t.Fatalf("network frame %d of the WAL is not record %d", frames, frames)
				}
				frames++
			}
			if frames != len(records) {
				t.Fatalf("WAL holds %d network frames, want %d", frames, len(records))
			}
			// A recovered log is filled through the same chunk append.
			recovered, rep, err := RecoverFile(w.path)
			if err != nil || !rep.Clean {
				t.Fatalf("RecoverFile: %v, %+v", err, rep)
			}
			rl := recovered.Network
			if !bytes.Equal(rl.Bytes(), stream) || rl.Len() != len(want) || len(rl.chunks) != len(l.chunks) {
				t.Fatalf("recovered log: %d bytes, %d records, %d chunks; recorded %d, %d, %d",
					rl.Size(), rl.Len(), len(rl.chunks), len(stream), len(want), len(l.chunks))
			}
		})
	}
}

// TestEachSeesARecordAlignedPrefix: a reader racing appenders (run under
// -race) walks whole records only, never fewer than the walk before, and each
// appender's records in the order it appended them — also when the chunks it
// walks are spilled to the log's file and dropped from the log under it.
func TestEachSeesARecordAlignedPrefix(t *testing.T) {
	const appenders, perAppender = 8, 400
	l := NewLog()
	var wg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		a := a
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(a)))
			for i := 0; i < perAppender; i++ {
				l.Append(chunkProbe(a, i, rng.Intn(3000)))
				if i < 16 {
					runtime.Gosched() // on one P too, a walk begins before the first spill
				}
			}
		}()
	}
	done := make(chan struct{})
	finished := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	go func() {
		wg.Wait()
		close(done)
	}()
	raced := 0 // walks a spill ran inside
	spilled := func() int {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.fileLen
	}
	walk := func(prev int) int {
		var next [appenders]ids.EventNum
		n, began := 0, spilled()
		defer func() {
			if spilled() != began {
				raced++
			}
		}()
		if err := l.Each(func(e Entry) error {
			// Until one has, a walk waits inside for the next spill.
			for n == 0 && raced == 0 && spilled() == began && !finished() {
				runtime.Gosched()
			}
			if err := checkProbe(e); err != nil {
				return err
			}
			r := e.(*OpenReadEntry)
			if r.EventID.Event != next[r.EventID.Thread] {
				return fmt.Errorf("appender %d: record %d follows record %d", r.EventID.Thread, r.EventID.Event, next[r.EventID.Thread])
			}
			next[r.EventID.Thread]++
			n++
			return nil
		}); err != nil {
			t.Fatalf("walk racing the appenders: %v", err)
		}
		if n < prev {
			t.Fatalf("a walk saw %d records after an earlier one saw %d", n, prev)
		}
		return n
	}
	seen := 0
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		seen = walk(seen)
	}
	if seen != appenders*perAppender || l.Len() != seen {
		t.Errorf("the last walk saw %d records, Len %d, want %d", seen, l.Len(), appenders*perAppender)
	}
	// The spilled chunks, at least: the capacities, in the order the log
	// opens them, that it takes to cover the file. A record here is smaller
	// than the smallest chunk, so no chunk is larger than its capacity.
	crossed := len(l.chunks) - 1
	for c, n := minChunk, 0; n < l.fileLen; c = min(2*c, maxChunk) {
		n += c
		crossed++
	}
	if crossed < 8 || raced == 0 {
		t.Errorf("the appenders crossed %d chunk boundaries and spilled inside %d walks: too few", crossed, raced)
	}
}

// TestDecodeErrorOffsetIsAStreamOffset: damage in the third chunk is reported
// at its offset in the whole stream, the offset Parse gives for the same bytes
// in one piece.
func TestDecodeErrorOffsetIsAStreamOffset(t *testing.T) {
	l := NewLog()
	for i := 0; len(l.chunks) < 4; i++ {
		l.Append(&OpenReadEntry{EventID: ids.NetworkEventID{Thread: 1, Event: 1}, Data: bytes.Repeat([]byte{0xFF}, 1000)})
	}
	// Kind, thread and event take a byte each; then comes the payload length.
	// Run it into the 0xFF payload and it is no varint at all.
	const lenAt = 3
	l.chunks[2][lenAt], l.chunks[2][lenAt+1] = 0xFF, 0xFF
	want := fmt.Sprintf("tracelog: corrupt log: decoding open-read record at offset %d", len(l.chunks[0])+len(l.chunks[1])+lenAt)
	_, flatErr := Parse(l.Bytes())
	_, err := l.Entries()
	if err == nil || flatErr == nil || err.Error() != want || flatErr.Error() != want {
		t.Errorf("chunked log: %v\none piece:   %v\nwant:        %s", err, flatErr, want)
	}
	if _, err := BuildNetworkIndex(l); err == nil || err.Error() != want {
		t.Errorf("BuildNetworkIndex: %v, want %s", err, want)
	}
}
