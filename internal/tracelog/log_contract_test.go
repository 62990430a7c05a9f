package tracelog

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ids"
)

// TestLoadSetRecoversLen is the regression test for loaded logs lying about
// their entry counts: LoadSet must validate each stream and restore Len() to
// what the recording Log reported.
func TestLoadSetRecoversLen(t *testing.T) {
	s := NewSet()
	for i := 0; i < 5; i++ {
		s.Schedule.Append(&Interval{Thread: ids.ThreadNum(i), First: ids.GCount(2 * i), Last: ids.GCount(2*i + 1)})
	}
	s.Schedule.Append(&VMMeta{VM: 7, Threads: 5, FinalGC: 10})
	s.Network.Append(&ReadEntry{EventID: ids.NetworkEventID{Thread: 1, Event: 2}, N: 64})
	s.Datagram.Append(&DatagramRecvEntry{
		EventID:    ids.NetworkEventID{Thread: 3, Event: 4},
		ReceiverGC: 9,
		Datagram:   ids.DGNetworkEventID{VM: 7, GC: 5},
	})

	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range []struct {
		name       string
		orig, load *Log
	}{
		{"schedule", s.Schedule, loaded.Schedule},
		{"network", s.Network, loaded.Network},
		{"datagram", s.Datagram, loaded.Datagram},
	} {
		if pair.load.Len() != pair.orig.Len() {
			t.Errorf("%s: loaded Len() = %d, recorded %d", pair.name, pair.load.Len(), pair.orig.Len())
		}
		if pair.load.Size() != pair.orig.Size() {
			t.Errorf("%s: loaded Size() = %d, recorded %d", pair.name, pair.load.Size(), pair.orig.Size())
		}
	}
}

// TestLoadSetRejectsCorruptStream: a truncated log must fail at load time with
// ErrCorrupt, not surface later as a bad index.
func TestLoadSetRejectsCorruptStream(t *testing.T) {
	s := NewSet()
	s.Schedule.Append(&Interval{Thread: 1, First: 0, Last: 3})
	s.Schedule.Append(&VMMeta{VM: 1, Threads: 1, FinalGC: 4})
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	// Truncate the schedule log mid-record.
	data := s.Schedule.Bytes()
	if err := (&Log{chunks: [][]byte{data[:len(data)-1]}}).SaveFile(dir + "/schedule.log"); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSet(dir); err == nil {
		t.Fatal("LoadSet accepted a truncated schedule log")
	}
}

// contentSet is a set whose network log holds records open-reads of
// payloadLen bytes, event i's payload filled with byte i+fill.
func contentSet(records, payloadLen int, fill byte) *Set {
	s := NewSet()
	for i := range records {
		s.Network.Append(&OpenReadEntry{
			EventID: ids.NetworkEventID{Thread: 1, Event: ids.EventNum(i)},
			Data:    bytes.Repeat([]byte{byte(i) + fill}, payloadLen),
		})
	}
	return s
}

// readBack copies every payload of l out through its index.
func readBack(t *testing.T, l *Log) map[ids.NetworkEventID][]byte {
	t.Helper()
	idx, err := BuildNetworkIndex(l)
	if err != nil {
		t.Fatal(err)
	}
	out := map[ids.NetworkEventID][]byte{}
	for ev, row := range idx.OpenReads.All() {
		data, _, _, err := idx.Content(ev, row, nil)
		if err != nil {
			t.Fatal(err)
		}
		out[ev] = data
	}
	return out
}

// TestSaveReplacesTheFile: Save writes a new file and renames it over the
// old one, so a set loaded from a directory keeps reading what it was loaded
// from when another set is saved there — and a save that fails leaves the
// file that was there.
func TestSaveReplacesTheFile(t *testing.T) {
	first := contentSet(100, 40, 0)
	dir := t.TempDir()
	if err := first.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := loadSet(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Network.file == nil {
		t.Fatal("the network log was loaded whole: the test needs a file extent")
	}
	if err := contentSet(150, 30, 7).Save(dir); err != nil {
		t.Fatal(err)
	}
	if got, want := readBack(t, loaded.Network), readBack(t, first.Network); !reflect.DeepEqual(got, want) {
		t.Error("saving another set into the directory changed what the loaded set reads")
	}
	if !bytes.Equal(loaded.Network.Bytes(), first.Network.Bytes()) {
		t.Error("the loaded log's bytes changed")
	}
	if leftovers, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(leftovers) != 0 {
		t.Errorf("Save left %v behind", leftovers)
	}

	path := filepath.Join(dir, "network.log")
	before, _ := os.ReadFile(path)
	if err := os.Mkdir(path+".tmp", 0o755); err != nil { // the next save cannot create its file
		t.Fatal(err)
	}
	if err := first.Network.SaveFile(path); err == nil {
		t.Fatal("SaveFile succeeded without its temporary file")
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, before) {
		t.Error("a failed save changed the file")
	}
}

// TestContentChecksWhatItReads: a file cut short or rewritten under a loaded
// log makes Content fail with ErrCorrupt naming the event — never a panic,
// never another event's bytes.
func TestContentChecksWhatItReads(t *testing.T) {
	const records, payloadLen = 100, 40
	dir := t.TempDir()
	if err := contentSet(records, payloadLen, 0).Save(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "network.log")
	for _, tc := range []struct {
		name   string
		damage func(size int) int // returns how many bytes are left as they were
	}{
		{"cut short", func(size int) int {
			if err := os.Truncate(path, int64(size/2)); err != nil {
				t.Fatal(err)
			}
			return size / 2
		}},
		{"rewritten", func(int) int {
			// The same records one place later: every offset now holds the
			// record of the event before, or of another thread's event.
			l := NewLog()
			l.Append(&OpenReadEntry{EventID: ids.NetworkEventID{Thread: 2}, Data: make([]byte, payloadLen)})
			data := append(l.Bytes(), contentSet(records, payloadLen, 0).Network.Bytes()...)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			return 0
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := contentSet(records, payloadLen, 0).Network.SaveFile(path); err != nil {
				t.Fatal(err)
			}
			loaded, err := loadSet(dir, 64)
			if err != nil {
				t.Fatal(err)
			}
			idx, err := BuildNetworkIndex(loaded.Network)
			if err != nil {
				t.Fatal(err)
			}
			intact := tc.damage(loaded.Network.Size())
			failed := 0
			for ev, row := range idx.OpenReads.All() {
				data, _, _, err := idx.Content(ev, row, nil)
				if int(row.Off)+int(row.Len) <= intact {
					if err != nil || !bytes.Equal(data, bytes.Repeat([]byte{byte(ev.Event)}, payloadLen)) {
						t.Fatalf("%v, intact in the file, read back as %v, %v", ev, data, err)
					}
					continue
				}
				failed++
				if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), fmt.Sprint(ev)) {
					t.Fatalf("%v read back from the damaged file: %v, %v; want ErrCorrupt naming the event", ev, data, err)
				}
			}
			t.Logf("%d of %d records failed to read back", failed, records)
			if failed == 0 {
				t.Fatal("no record was damaged")
			}
		})
	}
}

// TestSpilledLogIsTheLogThatNeverSpilled: records of random sizes, some
// larger than the largest chunk, through several spills read back as the same
// records held in one piece: Bytes, Entries, the network index and what it
// copies out, and the set saved and loaded again.
func TestSpilledLogIsTheLogThatNeverSpilled(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := NewLog()
		var stream []byte
		spills := 0
		for i := 0; l.Size() < 6*maxChunk; i++ {
			n := rng.Intn(4 << 10)
			if rng.Intn(40) == 0 {
				n = maxChunk + rng.Intn(maxChunk)
			}
			ev := ids.NetworkEventID{Thread: ids.ThreadNum(i % 5), Event: ids.EventNum(i / 5)}
			data := bytes.Repeat([]byte{byte(i)}, n)
			var e Entry = &OpenReadEntry{EventID: ev, Data: data, EOF: i%7 == 0}
			switch rng.Intn(4) {
			case 0:
				e = &OpenDatagramEntry{EventID: ev, SourceHost: fmt.Sprint("h", i), SourcePort: uint16(i), Data: data}
			case 1:
				e = &ReadEntry{EventID: ev, N: uint32(n)}
			}
			was := l.fileLen
			l.Append(e)
			stream = append(stream, encoded(e)...)
			if l.fileLen != was {
				spills++
			}
		}
		whole := &Log{chunks: [][]byte{stream}}
		if err := whole.countRecords(); err != nil {
			t.Fatal(err)
		}
		sealed := 0
		for _, c := range l.chunks[:len(l.chunks)-1] {
			sealed += len(c)
		}
		if spills < 3 || sealed > window {
			t.Fatalf("seed %d: %d spills leave %d sealed bytes in memory; the test wants several spills and at most a window held", seed, spills, sealed)
		}

		dir := t.TempDir()
		if err := (&Set{Schedule: NewLog(), Network: l, Datagram: NewLog()}).Save(dir); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadSet(dir)
		if err != nil {
			t.Fatal(err)
		}
		want, err := whole.Entries()
		if err != nil {
			t.Fatal(err)
		}
		wantIdx, err := BuildNetworkIndex(whole)
		if err != nil {
			t.Fatal(err)
		}
		for name, lg := range map[string]*Log{"spilled": l, "loaded": loaded.Network} {
			if !bytes.Equal(lg.Bytes(), stream) || lg.Len() != whole.Len() || lg.kinds != whole.kinds {
				t.Fatalf("seed %d, %s log: %d bytes, %d records; in one piece %d, %d", seed, name, lg.Size(), lg.Len(), len(stream), whole.Len())
			}
			if got, err := lg.Entries(); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, %s log: Entries differ from the log in one piece (%v)", seed, name, err)
			}
			idx, err := BuildNetworkIndex(lg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(idx.Reads, wantIdx.Reads) || !reflect.DeepEqual(idx.OpenReads, wantIdx.OpenReads) || !reflect.DeepEqual(idx.OpenDatagrams, wantIdx.OpenDatagrams) {
				t.Fatalf("seed %d, %s log: its index differs from the log in one piece's", seed, name)
			}
			for _, tab := range []Table[ContentRow, ContentRow]{idx.OpenReads, idx.OpenDatagrams} {
				for ev, row := range tab.All() {
					data, host, port, err := idx.Content(ev, row, nil)
					wdata, whost, wport, werr := wantIdx.Content(ev, row, nil)
					if err != nil || werr != nil || !bytes.Equal(data, wdata) || host != whost || port != wport {
						t.Fatalf("seed %d, %s log: content of %v: %d bytes from %s:%d (%v), want %d from %s:%d (%v)",
							seed, name, ev, len(data), host, port, err, len(wdata), whost, wport, werr)
					}
				}
			}
		}
	}
}

// TestFinishedRecordingHoldsNoChunk: once its recording is over, a log that
// has spilled — the 32 MB content log — writes its open chunk to its file as
// well and holds no chunk byte, while one that never spilled keeps its
// chunks as they were; both read, save and walk as the same bytes as before,
// a walk racing Finish included, and a record appended afterwards opens a
// chunk of its own.
func TestFinishedRecordingHoldsNoChunk(t *testing.T) {
	s := NewSet()
	s.Schedule.Append(&VMMeta{VM: 1, Threads: 8, FinalGC: 9})
	appendContent(s.Network)
	network, schedule := s.Network.Bytes(), s.Schedule.Bytes()
	if s.Network.file == nil || len(s.Network.chunks) == 0 || s.Schedule.file != nil {
		t.Fatalf("the test needs a spilled content log with an open chunk and a schedule log that never spilled")
	}
	before := readBack(t, s.Network)
	schedChunks := slices.Clone(s.Schedule.chunks)

	walked := make(chan int)
	go func() {
		n := 0
		s.Network.Each(func(Entry) error { n++; return nil })
		walked <- n
	}()
	s.Finish()
	if n := <-walked; n != contentRecords {
		t.Errorf("a walk racing Finish saw %d records, want %d", n, contentRecords)
	}

	held := 0
	for _, c := range s.Network.chunks {
		held += len(c)
	}
	if held != 0 || len(s.Network.chunks) != 0 || s.Network.fileLen != len(network) {
		t.Errorf("the finished content log holds %d chunk bytes in %d chunks and %d of %d bytes in its file", held, len(s.Network.chunks), s.Network.fileLen, len(network))
	}
	if len(s.Schedule.chunks) != len(schedChunks) || &s.Schedule.chunks[0][0] != &schedChunks[0][0] || s.Schedule.file != nil {
		t.Error("Finish moved the chunks of a log that never spilled")
	}
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string][]byte{"network": network, "schedule": schedule} {
		if saved, err := os.ReadFile(filepath.Join(dir, name+".log")); err != nil || !bytes.Equal(saved, want) {
			t.Errorf("the finished %s log saved %d bytes (%v) that differ from the %d it held before", name, len(saved), err, len(want))
		}
	}
	if !bytes.Equal(s.Network.Bytes(), network) || !reflect.DeepEqual(readBack(t, s.Network), before) {
		t.Error("the finished content log reads other bytes than before")
	}

	late := &ReadEntry{EventID: ids.NetworkEventID{Thread: 9}, N: 1}
	s.Network.Append(late)
	if len(s.Network.chunks) != 1 || !bytes.Equal(s.Network.Bytes(), append(network, encoded(late)...)) {
		t.Errorf("a record appended after Finish: %d chunks, %d bytes", len(s.Network.chunks), s.Network.Size())
	}
}

// TestSpillWithoutATempDirKeepsChunks: a log that cannot make its file keeps
// its chunks in memory, each in an array of its own — it never reuses one, as
// a log that spilled it may — and reads the same as one that never had to
// spill.
func TestSpillWithoutATempDirKeepsChunks(t *testing.T) {
	t.Setenv("TMPDIR", filepath.Join(t.TempDir(), "missing"))
	s := contentSet(4000, 1000, 0)
	l := s.Network
	if l.file != nil || l.fileLen != 0 || l.Size() < 3<<20 {
		t.Fatalf("a %d-byte log made a file with no temporary directory: %d bytes of it", l.Size(), l.fileLen)
	}
	arrays := map[*byte]bool{}
	for _, c := range l.chunks {
		arrays[&c[:1][0]] = true
	}
	if len(arrays) != len(l.chunks) {
		t.Fatalf("the log's %d chunks share %d arrays", len(l.chunks), len(arrays))
	}
	var stream []byte
	for i := range 4000 {
		stream = append(stream, encoded(&OpenReadEntry{
			EventID: ids.NetworkEventID{Thread: 1, Event: ids.EventNum(i)},
			Data:    bytes.Repeat([]byte{byte(i)}, 1000),
		})...)
	}
	if !bytes.Equal(l.Bytes(), stream) || l.Len() != 4000 {
		t.Fatalf("the log holds %d bytes in %d records; want the %d bytes of 4000", l.Size(), l.Len(), len(stream))
	}
	got := readBack(t, l)
	for ev, data := range got {
		if !bytes.Equal(data, bytes.Repeat([]byte{byte(ev.Event)}, 1000)) {
			t.Fatalf("%v read back wrong", ev)
		}
	}
	if len(got) != 4000 {
		t.Fatalf("read back %d records, want 4000", len(got))
	}
}

// TestWalkedChunksAreNeverReused: once a recording log spills, it takes the
// array of the chunk it has just written out for its next chunk — unless a
// walk copied the chunk list while that chunk was open, since the entries a
// walk decodes alias the chunks it copied (see walk). Entries retained from
// a live log and a walk paused inside its open chunk keep their bytes over
// 4 MiB of appends and spills, and chunks opened after the walks are reused
// again: appending 4 MiB more allocates no chunk.
func TestWalkedChunksAreNeverReused(t *testing.T) {
	type kept struct {
		e    *OpenReadEntry
		data []byte
	}
	// keep checks a decoded probe and notes it with a copy of its payload.
	keep := func(out *[]kept, e Entry) error {
		if err := checkProbe(e); err != nil {
			return err
		}
		r := e.(*OpenReadEntry)
		*out = append(*out, kept{r, bytes.Clone(r.Data)})
		return nil
	}
	intact := func(t *testing.T, what string, retained []kept) {
		t.Helper()
		for _, k := range retained {
			if err := checkProbe(k.e); err != nil || !bytes.Equal(k.e.Data, k.data) {
				t.Fatalf("%s: record %v changed under its entry (%v)", what, k.e.EventID, err)
			}
		}
	}
	openArray := func(l *Log) *byte {
		l.mu.Lock()
		defer l.mu.Unlock()
		return &l.chunks[len(l.chunks)-1][:1][0]
	}

	t.Run("paused", func(t *testing.T) {
		l := NewLog()
		probes := make([]*OpenReadEntry, 4500)
		for i := range probes {
			probes[i] = chunkProbe(i%5, i/5, 1000)
		}
		appended := 0
		// add appends n bytes of probes, calling each after every append.
		add := func(n int, each func()) {
			for end := l.Size() + n; l.Size() < end; appended++ {
				l.Append(probes[appended%len(probes)])
				each()
			}
		}
		add(3<<20, func() {})
		for len(l.chunks[0]) < 8<<10 {
			add(1, func() {})
		}
		if l.fileLen == 0 || len(l.chunks) != 1 {
			t.Fatalf("%d bytes spilled, %d chunks: the log did not spill", l.fileLen, len(l.chunks))
		}
		var retained []kept
		entries, err := l.Entries()
		for _, e := range entries {
			if err == nil {
				err = keep(&retained, e)
			}
		}
		if err != nil || len(retained) != l.Len() {
			t.Fatalf("Entries: %d records (%v), want %d", len(retained), err, l.Len())
		}
		// An Each paused a few records before the end of the open chunk.
		var walked []kept
		total, paused, resume, done := l.Len(), make(chan struct{}), make(chan struct{}), make(chan error, 1)
		go func() {
			done <- l.Each(func(e Entry) error {
				if len(walked) == total-4 {
					close(paused)
					<-resume
				}
				return keep(&walked, e)
			})
		}()
		<-paused
		walkedOpen, spilled := openArray(l), l.fileLen
		last, fresh, reopened := walkedOpen, 0, false
		add(4<<20, func() {
			a := openArray(l)
			reopened = reopened || a == walkedOpen && l.fileLen != spilled
			if a != last {
				last, fresh = a, fresh+1
			}
		})
		close(resume)
		if err := <-done; err != nil || len(walked) != total {
			t.Fatalf("the paused walk: %d records (%v), want %d", len(walked), err, total)
		}
		intact(t, "Entries", retained)
		intact(t, "the paused walk", walked)
		if reopened {
			t.Error("the chunk the walks saw was reopened once it spilled")
		}
		if fresh != 1 {
			t.Errorf("4 MiB of appends opened %d arrays after the walks, want 1", fresh)
		}

		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		spilled = l.fileLen
		add(4<<20, func() {})
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; l.fileLen-spilled < 3<<20 || grew > 256<<10 {
			t.Errorf("after the walks, spilling %d bytes allocated %d: want no chunk", l.fileLen-spilled, grew)
		}
		runtime.KeepAlive(retained)
	})

	t.Run("racing", func(t *testing.T) {
		const appenders, walkers, size = 4, 2, 10 << 20
		l := NewLog()
		reused, spilled, last := 0, 0, (*byte)(nil)
		// probe runs after each append, under the log's lock, as nothing
		// else guards its counts.
		probe := func() {
			l.mu.Lock()
			defer l.mu.Unlock()
			// By address: a fresh array at a recycled address counts too, so
			// this only shows that the walks raced reuses.
			if a := &l.chunks[len(l.chunks)-1][:1][0]; l.fileLen != spilled && a == last {
				reused++
			} else {
				last = a
			}
			spilled = l.fileLen
		}
		var wg, walking sync.WaitGroup
		done := make(chan struct{})
		for a := range appenders {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; l.Size() < size; i++ {
					l.Append(chunkProbe(a, i, 1+i%2000))
					probe()
				}
			}()
		}
		go func() {
			wg.Wait()
			close(done)
		}()
		retained := make([][]kept, walkers)
		for w := range walkers {
			walking.Add(1)
			go func() {
				defer walking.Done()
				for pass := 0; ; pass++ {
					at, ended := l.Size(), false
					select {
					case <-done:
						ended = true
					default:
					}
					var seen []kept
					var err error
					if pass%2 == 0 {
						var entries []Entry
						entries, err = l.Entries()
						for _, e := range entries {
							if err == nil {
								err = keep(&seen, e)
							}
						}
					} else {
						err = l.Each(func(e Entry) error {
							runtime.Gosched()
							return keep(&seen, e)
						})
					}
					if err != nil {
						t.Errorf("walker %d, pass %d: %v", w, pass, err)
						return
					}
					// Of each walk, the last records: the ones in chunks.
					retained[w] = append(retained[w], seen[max(0, len(seen)-64):]...)
					if ended {
						return
					}
					// Let chunks open and seal with no walk between.
					for l.Size() < min(at+5<<19, size) && !ended {
						select {
						case <-done:
							ended = true
						case <-time.After(time.Millisecond):
						}
					}
				}
			}()
		}
		walking.Wait()
		for w := range retained {
			intact(t, fmt.Sprintf("walker %d", w), retained[w])
		}
		if reused == 0 {
			t.Errorf("%d bytes appended, %d spilled: no chunk's array was reused", l.Size(), spilled)
		}
	})
}

// TestLoadSetClosesWhatItOpened: a set that fails to load at its last log
// closes the files it had kept open for the logs before it.
func TestLoadSetClosesWhatItOpened(t *testing.T) {
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip("no /proc/self/fd to count open files in")
		}
		return len(ents)
	}
	dir := t.TempDir()
	s := contentSet(100, 40, 0)
	s.Schedule.Append(&VMMeta{VM: 1, Threads: 1})
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	datagram := filepath.Join(dir, "datagram.log")
	for _, damage := range []func() error{
		func() error { return os.WriteFile(datagram, bytes.Repeat([]byte{0xFF}, 64), 0o644) },
		func() error { return os.Remove(datagram) },
	} {
		if err := damage(); err != nil {
			t.Fatal(err)
		}
		before := fds()
		for range 10 {
			if _, err := loadSet(dir, 4); err == nil {
				t.Fatal("a set with a damaged datagram log loaded")
			}
		}
		if after := fds(); after > before {
			t.Errorf("ten failed loads left %d more files open", after-before)
		}
	}
}
