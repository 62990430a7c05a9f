package tracelog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/ids"
)

// fuzzSeeds is the decoder fuzzers' shared seed corpus: a healthy
// multi-record log, the schedule layouts of sharded, truncated and group
// recording, and characteristic corruptions of them.
func fuzzSeeds() [][]byte {
	var seeds [][]byte
	add := func(b []byte) { seeds = append(seeds, b) }
	l := NewLog()
	l.Append(&VMMeta{VM: 3, World: ids.ClosedWorld, Threads: 4, FinalGC: 100})
	l.Append(&Interval{Thread: 1, First: 10, Last: 90})
	l.Append(&Notify{GC: 50, Woken: []ids.ThreadNum{2, 3}})
	l.Append(&ReadEntry{EventID: ids.NetworkEventID{Thread: 1, Event: 2}, N: 64})
	l.Append(&OpenReadEntry{EventID: ids.NetworkEventID{Thread: 2, Event: 0}, Data: []byte("payload")})
	l.Append(&OpenWriteEntry{EventID: ids.NetworkEventID{Thread: 2, Event: 1}, Len: 7, Sum: WideSum([]byte("payload"))})
	l.Append(&OpenWriteEntry{EventID: ids.NetworkEventID{Thread: 2, Event: 2}, Len: 7, Sum: 0xa3bdd3a0b1a3b0c1, FNV: true})
	l.Append(&DatagramRecvEntry{
		EventID:  ids.NetworkEventID{Thread: 3, Event: 1},
		Datagram: ids.DGNetworkEventID{VM: 9, GC: 77},
	})
	healthy := l.Bytes()
	add(healthy)

	// A sharded-order schedule exercising the per-object record kinds.
	sl := NewLog()
	sl.Append(&OrderModeEntry{Mode: ids.OrderSharded})
	sl.Append(&VMMeta{VM: 3, World: ids.ClosedWorld, Threads: 4, FinalGC: 0})
	sl.Append(&ObjRun{Obj: 0, Thread: 0, First: 0, Last: 12})
	sl.Append(&ObjRun{Obj: 1, Thread: 2, First: 0, Last: 3})
	sl.Append(&ObjNotify{Obj: 1, Seq: 2, Woken: []ids.ThreadNum{1, 3}})
	sl.Append(&ObjTimedWait{Obj: 1, Seq: 3, Check: true, TimedOut: false})
	sharded := sl.Bytes()
	add(sharded)
	add(sharded[:len(sharded)/2])

	// A checkpoint-truncated schedule: base marker, embedded chaos plan,
	// anchor checkpoint, intervals starting at the base. The compacted WAL
	// layout reaches the decoder through crash recovery, so it must survive
	// arbitrary mangling like any other input.
	trl := NewLog()
	trl.Append(&VMMeta{VM: 5, World: ids.OpenWorld, Threads: 3, FinalGC: 200})
	trl.Append(&TruncationEntry{BaseGC: 120})
	trl.Append(&ChaosPlanEntry{Seed: 7, Spec: []byte{1, 2, 3, 4}})
	trl.Append(&CheckpointEntry{GC: 120, NextThread: 3, TakerThread: 0, MainEventNum: 40, State: []byte("state")})
	trl.Append(&Interval{Thread: 0, First: 121, Last: 199})
	truncated := trl.Bytes()
	add(truncated)

	// A group-recovery schedule: coordinated checkpoint anchors with their
	// epoch stamps, the layout internal/recline's line solver consumes.
	gl := NewLog()
	gl.Append(&VMMeta{VM: 1, World: ids.OpenWorld, Threads: 2, FinalGC: 300})
	gl.Append(&CheckpointEntry{GC: 90, NextThread: 2, TakerThread: 0, MainEventNum: 30, State: []byte("s1")})
	gl.Append(&GroupEpochEntry{Epoch: 1, GC: 90, Members: []GroupMember{
		{VM: 1, AnchorGC: 90}, {VM: 2, AnchorGC: 84}, {VM: 3, AnchorGC: 101},
	}})
	gl.Append(&CheckpointEntry{GC: 180, NextThread: 2, TakerThread: 0, MainEventNum: 60, State: []byte("s2")})
	gl.Append(&GroupEpochEntry{Epoch: 2, GC: 180, Members: []GroupMember{
		{VM: 1, AnchorGC: 180}, {VM: 2, AnchorGC: 175}, {VM: 3, AnchorGC: 190},
	}})
	group := gl.Bytes()
	add(group)

	// A network log holding a record of every network kind, out of key
	// order, with an accept's server-socket entry repeated (the first one
	// wins), and the same log with one event logged twice.
	nl := NewLog()
	for i := range netRecords(ids.NetworkEventID{}) {
		rec := netRecords(ids.NetworkEventID{Thread: ids.ThreadNum(i % 3), Event: ids.EventNum(20 - i)})[i]
		if kindTable[rec.first.Kind()].log == logNetwork {
			nl.Append(rec.first)
		}
	}
	for conn := range ids.EventNum(2) {
		nl.Append(&ServerSocketEntry{ServerID: ids.NetworkEventID{Thread: 2, Event: 30}, ClientID: ids.ConnectionID{VM: 4, Thread: 1, Event: conn}})
	}
	// Names shared across tables and repeated in one: the index keeps each once.
	nl.Append(&OpenAcceptEntry{EventID: ids.NetworkEventID{Thread: 1, Event: 40}, RemoteHost: "alpha", RemotePort: 2})
	nl.Append(&EnvEntry{EventID: ids.NetworkEventID{Thread: 1, Event: 41}, Op: "peer", Value: 3})
	network := nl.Bytes()
	add(network)
	nl.Append(&ReadEntry{EventID: ids.NetworkEventID{Thread: 1, Event: 19}})
	add(nl.Bytes())
	add(group[:len(group)-5])
	add(truncated[:len(truncated)-3])
	add(healthy[:len(healthy)/2])
	add([]byte{})
	add([]byte{0xff, 0xff, 0xff})
	mutated := append([]byte(nil), healthy...)
	mutated[0] ^= 0x55
	add(mutated)

	return seeds
}

// FuzzParse hardens the log decoder against arbitrary bytes: whatever the
// input, Parse must return cleanly (entries or an error), never panic, and
// parsing must be deterministic. Replay consumes logs that may have crossed
// machines and filesystems; the decoder is a trust boundary. And what Parse
// accepts, the encoder writes back: the entries, appended one by one to a new
// log, parse to entries deep-equal to them. That is the property WAL
// compaction and crash recovery rest on, which re-encode decoded records.
func FuzzParse(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := Parse(data)
		if err != nil && entries != nil {
			t.Fatal("Parse returned entries alongside an error")
		}
		// Determinism: a second parse agrees.
		entries2, err2 := Parse(data)
		if (err == nil) != (err2 == nil) || len(entries) != len(entries2) {
			t.Fatal("Parse is not deterministic")
		}
		// A successful parse must survive the replay indexers without
		// panicking (they may reject the content with errors).
		if err == nil {
			lg := &Log{chunks: [][]byte{data}}
			BuildScheduleIndex(lg)
			BuildNetworkIndex(lg)
			BuildDatagramIndex(lg)
		}
		again := NewLog()
		for _, e := range entries {
			again.Append(e)
		}
		if got, err := again.Entries(); err != nil || !reflect.DeepEqual(got, entries) {
			t.Fatalf("%d entries, re-encoded, parse to %d entries (%v) that differ", len(entries), len(got), err)
		}
	})
}

// FuzzNetworkIndex holds BuildNetworkIndex to a map per table built from
// Parse: whatever the bytes, it never panics; it rejects them only as corrupt
// or for a duplicate; and of what it accepts, every table finds exactly the
// records Parse decoded (the first-logged one for a server-socket entry; for
// a content table, the record Content copies out) and
// yields them in strictly increasing key order. A log cannot make it allocate
// more than a small multiple of its own size.
func FuzzNetworkIndex(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		lg := &Log{chunks: [][]byte{data}}
		_ = lg.countRecords() // sizes the tables, as LoadSet does
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		idx, err := BuildNetworkIndex(lg)
		runtime.ReadMemStats(&after)
		if allocated := after.TotalAlloc - before.TotalAlloc; allocated > 32*uint64(len(data))+16<<10 {
			t.Fatalf("indexing %d bytes allocated %d", len(data), allocated)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.As(err, new(dupError)) {
				t.Fatalf("rejected with %v: neither corrupt nor a duplicate", err)
			}
			return
		}
		entries, err := Parse(data)
		if err != nil {
			t.Fatalf("the index accepted a log Parse rejects: %v", err)
		}
		want := map[string]map[ids.NetworkEventID]any{}
		for _, e := range entries {
			table, ev, v := tableRow(e)
			if want[table] == nil {
				want[table] = map[ids.NetworkEventID]any{}
			}
			if _, dup := want[table][ev]; !dup {
				want[table][ev] = v
			}
		}
		for table, view := range tableViews(idx) {
			if view.len != len(want[table]) || len(view.keys) != view.len {
				t.Fatalf("%s: Len %d, All yields %d keys, the log has %d", table, view.len, len(view.keys), len(want[table]))
			}
			for i, ev := range view.keys {
				if i > 0 && packEvent(view.keys[i-1]) >= packEvent(ev) {
					t.Fatalf("%s: All yields %v after %v", table, ev, view.keys[i-1])
				}
			}
			for ev, v := range want[table] {
				if got, ok := view.get(ev); !ok || !reflect.DeepEqual(got, v) {
					t.Fatalf("%s: Get(%v) = %v, %v; the log has %v", table, ev, got, ok, v)
				}
			}
		}
	})
}

// FuzzLoadSet holds the windowed loader to the in-memory walk over the same
// bytes. Written as a set's network.log and loaded through a window of 1 to
// 16 bytes, a stream loads, decodes, indexes and reads back its content just
// as the one-chunk log of those bytes does — the same records, the same
// rows, the same payloads — or fails with the same error.
func FuzzLoadSet(f *testing.F) {
	for i, seed := range fuzzSeeds() {
		f.Add(seed, uint8(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, w uint8) {
		win := 1 + int(w%16)
		dir := t.TempDir()
		for id, name := range logNames {
			var b []byte
			if id == logNetwork {
				b = data
			}
			if err := os.WriteFile(filepath.Join(dir, name+".log"), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		mem := &Log{chunks: [][]byte{data}}
		want := mem.countRecords()
		s, err := loadSet(dir, win)
		if want != nil {
			want = fmt.Errorf("tracelog: load set: network.log: %w", want)
		}
		if fmt.Sprint(err) != fmt.Sprint(want) {
			t.Fatalf("window %d: LoadSet said %v, the in-memory walk %v", win, err, want)
		}
		if err != nil {
			return
		}
		l := s.Network
		if l.Len() != mem.Len() || l.kinds != mem.kinds || l.Size() != len(data) {
			t.Fatalf("window %d: loaded %d records of %d bytes, the in-memory walk %d of %d", win, l.Len(), l.Size(), mem.Len(), len(data))
		}
		got, err := l.Entries()
		if wantEntries, _ := Parse(data); err != nil || !reflect.DeepEqual(got, wantEntries) {
			t.Fatalf("window %d: Entries differ from Parse's (%v)", win, err)
		}
		idx, err := BuildNetworkIndex(l)
		memIdx, memErr := BuildNetworkIndex(mem)
		if fmt.Sprint(err) != fmt.Sprint(memErr) {
			t.Fatalf("window %d: index build said %v, the in-memory one %v", win, err, memErr)
		}
		if err != nil {
			return
		}
		tables, memTables := *idx, *memIdx
		tables.log, memTables.log = nil, nil
		if !reflect.DeepEqual(tables, memTables) {
			t.Fatalf("window %d: the index differs from the in-memory one", win)
		}
		for _, table := range []*Table[ContentRow, ContentRow]{&idx.OpenReads, &idx.OpenDatagrams} {
			for ev, row := range table.All() {
				e, err := entryOf(idx, ev, row)
				memE, memErr := entryOf(memIdx, ev, row)
				if err != nil || memErr != nil || !reflect.DeepEqual(e, memE) {
					t.Fatalf("window %d: content of %v read back as %v (%v), in memory %v (%v)", win, ev, e, err, memE, memErr)
				}
			}
		}
	})
}

// tableRow names the NetworkIndex table a network record goes to and gives
// its key and the value the table holds for it.
func tableRow(e Entry) (table string, ev ids.NetworkEventID, v any) {
	if ss, ok := e.(*ServerSocketEntry); ok {
		return "ServerSockets", ss.ServerID, ss.ClientID
	}
	k := e.Kind()
	if k == KindOpenWriteWide {
		k = KindOpenWrite
	}
	row := reflect.ValueOf(e).Elem()
	return k.String(), row.FieldByName("EventID").Interface().(ids.NetworkEventID), row.Interface()
}

// tableView is one table seen through its methods alone.
type tableView struct {
	len  int
	keys []ids.NetworkEventID // in the order All yields them
	get  func(ids.NetworkEventID) (any, bool)
}

// viewOf sees a table as the entries it hands out, a row's host or op name
// resolved from the index's names.
func viewOf[V any, R row[V]](t *Table[V, R]) tableView {
	v := tableView{len: t.Len(), get: func(ev ids.NetworkEventID) (any, bool) { return t.Get(ev) }}
	for ev := range t.All() {
		v.keys = append(v.keys, ev)
	}
	return v
}

// contentViewOf is viewOf for a content table of idx: a row is seen as the
// record Content copies out.
func contentViewOf(t *Table[ContentRow, ContentRow], idx *NetworkIndex) tableView {
	v := viewOf(t)
	v.get = func(ev ids.NetworkEventID) (any, bool) {
		row, ok := t.Get(ev)
		if !ok {
			return nil, false
		}
		e, err := entryOf(idx, ev, row)
		if err != nil {
			return err, true
		}
		return e, true
	}
	return v
}

// entryOf is the record Content copies out of idx's log for ev at row, as
// the entry Parse decodes.
func entryOf(idx *NetworkIndex, ev ids.NetworkEventID, row ContentRow) (any, error) {
	data, host, port, err := idx.Content(ev, row, []byte{})
	if row.Kind() == KindOpenRead {
		return OpenReadEntry{EventID: ev, Data: data, EOF: row.EOF}, err
	}
	return OpenDatagramEntry{EventID: ev, SourceHost: host, SourcePort: port, Data: data}, err
}

// tableViews names idx's tables as tableRow does.
func tableViews(idx *NetworkIndex) map[string]tableView {
	return map[string]tableView{
		"ServerSockets":           viewOf(&idx.ServerSockets),
		KindRead.String():         viewOf(&idx.Reads),
		KindAvailable.String():    viewOf(&idx.Availables),
		KindBind.String():         viewOf(&idx.Binds),
		KindNetErr.String():       viewOf(&idx.Errs),
		KindOpenConnect.String():  viewOf(&idx.OpenConnects),
		KindOpenAccept.String():   viewOf(&idx.OpenAccepts),
		KindOpenRead.String():     contentViewOf(&idx.OpenReads, idx),
		KindOpenWrite.String():    viewOf(&idx.OpenWrites),
		KindOpenDatagram.String(): contentViewOf(&idx.OpenDatagrams, idx),
		KindEnv.String():          viewOf(&idx.Envs),
		KindNetSpan.String():      viewOf(&idx.NetSpans),
	}
}
