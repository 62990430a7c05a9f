package tracelog

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/ids"
)

// netRecords returns, for every record kind keyed by a network event, two
// records of that kind for ev that differ in payload.
func netRecords(ev ids.NetworkEventID) []struct{ first, second Entry } {
	return []struct{ first, second Entry }{
		{&ReadEntry{EventID: ev, N: 5}, &ReadEntry{EventID: ev, N: 6}},
		{&AvailableEntry{EventID: ev, N: 5}, &AvailableEntry{EventID: ev, N: 6}},
		{&BindEntry{EventID: ev, Port: 80}, &BindEntry{EventID: ev, Port: 81}},
		{&NetErrEntry{EventID: ev, Op: "read", Msg: "reset"}, &NetErrEntry{EventID: ev, Op: "read", Msg: "refused"}},
		{&OpenConnectEntry{EventID: ev, LocalPort: 5, RemoteHost: "alpha", RemotePort: 80}, &OpenConnectEntry{EventID: ev, LocalPort: 5, RemoteHost: "beta", RemotePort: 80}},
		{&OpenAcceptEntry{EventID: ev, RemoteHost: "peer", RemotePort: 1000}, &OpenAcceptEntry{EventID: ev, RemoteHost: "peer", RemotePort: 1001}},
		{&OpenReadEntry{EventID: ev, Data: []byte("GET /a")}, &OpenReadEntry{EventID: ev, Data: []byte("GET /b")}},
		{&OpenWriteEntry{EventID: ev, Len: 6, Sum: 1}, &OpenWriteEntry{EventID: ev, Len: 6, Sum: 1, FNV: true}},
		{&OpenDatagramEntry{EventID: ev, SourceHost: "src", SourcePort: 53, Data: []byte("x")}, &OpenDatagramEntry{EventID: ev, SourceHost: "src", SourcePort: 53, Data: []byte("y")}},
		{&EnvEntry{EventID: ev, Op: "clock", Value: 1}, &EnvEntry{EventID: ev, Op: "clock", Value: 2}},
		{&NetSpanEntry{EventID: ev, GC: 3, Op: NetOpRead}, &NetSpanEntry{EventID: ev, GC: 4, Op: NetOpRead}},
		{&DatagramRecvEntry{EventID: ev, ReceiverGC: 3}, &DatagramRecvEntry{EventID: ev, ReceiverGC: 4}},
	}
}

// TestDuplicateScheduleRecordRejected: a notify or timed-wait record resolves
// one critical event of one stream, so a second record for that event is
// corruption, whichever record kind carries it — replay must never wake or
// time out by whichever record happened to be logged last.
func TestDuplicateScheduleRecordRejected(t *testing.T) {
	for _, tc := range []struct {
		first, second, other Entry
	}{
		{&Notify{GC: 1, Woken: []ids.ThreadNum{0}}, &Notify{GC: 1, Woken: []ids.ThreadNum{1}}, &Notify{GC: 0, Woken: []ids.ThreadNum{1}}},
		{&TimedWaitEntry{GC: 1, Check: true}, &TimedWaitEntry{GC: 1, TimedOut: true}, &TimedWaitEntry{GC: 0}},
		{&ObjNotify{Obj: 0, Seq: 1, Woken: []ids.ThreadNum{0}}, &ObjNotify{Obj: 0, Seq: 1}, &ObjNotify{Obj: 1, Seq: 1}},
		{&ObjTimedWait{Obj: 0, Seq: 1}, &ObjTimedWait{Obj: 0, Seq: 1, TimedOut: true}, &ObjTimedWait{Obj: 0, Seq: 0}},
	} {
		k := tc.first.Kind()
		t.Run(k.String(), func(t *testing.T) {
			build := func(records ...Entry) error {
				l := NewLog()
				l.Append(&VMMeta{VM: 1, Threads: 2, FinalGC: 2})
				for _, e := range records {
					l.Append(e)
				}
				_, err := BuildScheduleIndex(l)
				return err
			}
			want := dupError{k}
			if err := build(tc.first, tc.other, tc.second); !errors.Is(err, want) || err.Error() != want.Error() {
				t.Errorf("two %v records for one event: %v, want %v", k, err, want)
			}
			if err := build(tc.first, tc.other); err != nil {
				t.Errorf("one %v record per event: %v", k, err)
			}
		})
	}
}

// TestDuplicateNetworkRecordRejected: every kind but the server-socket entry
// holds one record per network event. A second one, wherever it is logged,
// fails the index naming the later record's kind — replay must never go on
// with whichever payload happened to be logged last.
func TestDuplicateNetworkRecordRejected(t *testing.T) {
	ev := ids.NetworkEventID{Thread: 1, Event: 7}
	other := ids.NetworkEventID{Thread: 0, Event: 9}
	for i, rec := range netRecords(ev) {
		k := rec.first.Kind()
		t.Run(k.String(), func(t *testing.T) {
			l := NewLog()
			l.Append(rec.first)
			l.Append(netRecords(other)[i].first)
			l.Append(rec.second)
			err := buildIndex[kindTable[k].log](l)
			want := dupError{rec.second.Kind()}
			if !errors.Is(err, want) || err.Error() != want.Error() {
				t.Errorf("two %v records for %v: %v, want %v", k, ev, err, want)
			}
			single := NewLog()
			single.Append(rec.first)
			single.Append(netRecords(other)[i].second)
			if err := buildIndex[kindTable[k].log](single); err != nil {
				t.Errorf("one %v record per event: %v", k, err)
			}
		})
	}
}

// TestServerSocketFirstWins: the paper tolerates server-socket entries that
// repeat an accept's id (§4.1.3); the first one logged is the one replay
// waits for.
func TestServerSocketFirstWins(t *testing.T) {
	ev := ids.NetworkEventID{Thread: 2, Event: 1}
	l := NewLog()
	for i := range 3 {
		l.Append(&ServerSocketEntry{ServerID: ev, ClientID: ids.ConnectionID{VM: 9, Thread: 1, Event: ids.EventNum(i)}})
		l.Append(&ServerSocketEntry{ServerID: ids.NetworkEventID{Thread: 1, Event: ids.EventNum(i)}})
	}
	idx, err := BuildNetworkIndex(l)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := idx.ServerSockets.Get(ev); !ok || got.Event != 0 || idx.ServerSockets.Len() != 4 {
		t.Errorf("Get(%v) = %v, %v with %d rows; want the first-logged connection of 4 rows", ev, got, ok, idx.ServerSockets.Len())
	}
}

// TestTableOrdersAnyLog: records logged in any order — threads interleaved,
// a thread's own events shuffled — are found by key and yielded in key order,
// each with its own payload.
func TestTableOrdersAnyLog(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var evs []ids.NetworkEventID
	for th := range 40 {
		for e := range 30 {
			// Thread and event numbers that need every byte of the key.
			evs = append(evs, ids.NetworkEventID{Thread: ids.ThreadNum(th * 0x01010101), Event: ids.EventNum(e * 0x00810301)})
		}
	}
	rng.Shuffle(len(evs), func(i, j int) { evs[i], evs[j] = evs[j], evs[i] })
	l := NewLog()
	for _, ev := range evs {
		l.Append(&AvailableEntry{EventID: ev, N: uint32(ev.Thread) ^ uint32(ev.Event)})
	}
	idx, err := BuildNetworkIndex(l)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		if got, ok := idx.Availables.Get(ev); !ok || got.EventID != ev || got.N != uint32(ev.Thread)^uint32(ev.Event) {
			t.Fatalf("Get(%v) = %+v, %v", ev, got, ok)
		}
	}
	if _, ok := idx.Availables.Get(ids.NetworkEventID{Thread: 1, Event: 1}); ok {
		t.Error("Get found an event never logged")
	}
	n, last := 0, uint64(0)
	for ev := range idx.Availables.All() {
		if n > 0 && packEvent(ev) <= last {
			t.Fatalf("All yields %v after %v", ev, unpackEvent(last))
		}
		n, last = n+1, packEvent(ev)
	}
	if n != len(evs) || idx.Availables.Len() != len(evs) {
		t.Errorf("All yields %d rows, Len %d, want %d", n, idx.Availables.Len(), len(evs))
	}
}

// TestNetworkIndexAllocatesItsRows: indexing the content log of an open-world
// server allocates the rows it holds and the scratch that sorts them, about
// 40 bytes a record (56 with the window a loaded log is read through), and
// nothing for growth: the log's per-kind counts size the tables, both when it
// was recorded and when it was loaded.
func TestNetworkIndexAllocatesItsRows(t *testing.T) {
	s := NewSet()
	appendContent(s.Network)
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	for name, l := range map[string]*Log{"recorded": s.Network, "loaded": loaded.Network} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		idx, err := BuildNetworkIndex(l)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		perRecord := (after.TotalAlloc - before.TotalAlloc) / contentRecords
		t.Logf("%s log: %d bytes a record", name, perRecord)
		if idx.OpenReads.Len() != contentRecords || perRecord > 64 {
			t.Errorf("%s log: indexed %d records allocating %d bytes each, want at most 64", name, idx.OpenReads.Len(), perRecord)
		}
	}
}

// TestNetworkIndexRowsHoldNoPointer pins the row shape of every table replay
// reads per event: no pointer, so the collector never scans the index, and
// at most 16 bytes (a content row 24) besides the 8-byte key.
func TestNetworkIndexRowsHoldNoPointer(t *testing.T) {
	var pointers func(reflect.Type) bool
	pointers = func(rt reflect.Type) bool {
		switch rt.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice, reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
			return true
		case reflect.Array:
			return rt.Len() > 0 && pointers(rt.Elem())
		case reflect.Struct:
			for i := range rt.NumField() {
				if pointers(rt.Field(i).Type) {
					return true
				}
			}
		}
		return false
	}
	it := reflect.TypeOf(NetworkIndex{})
	tables := 0
	for i := range it.NumField() {
		f := it.Field(i)
		if !f.IsExported() || f.Name == "Errs" || f.Name == "NetSpans" {
			continue // the failures and the analysis annotations keep their strings
		}
		vals, ok := f.Type.FieldByName("vals")
		if !ok {
			t.Fatalf("%s is not a table", f.Name)
		}
		tables++
		rt, limit := vals.Type.Elem(), uintptr(16)
		if rt == reflect.TypeOf(ContentRow{}) {
			limit = 24
		}
		if pointers(rt) || rt.Size() > limit {
			t.Errorf("%s keeps %v rows of %d bytes, pointer: %v; want no pointer and at most %d bytes", f.Name, rt, rt.Size(), pointers(rt), limit)
		}
	}
	if tables != 10 {
		t.Errorf("checked %d tables, want 10", tables)
	}
}

// TestNetworkIndexKeepsAConnectionInRows: the index of an open-world server's
// log (appendOpenServer) keeps at most 80 bytes a connection — a 16-byte
// accept row, a 32-byte content row and a 24-byte write row with their keys,
// and the peer's host once for the whole log — recorded or loaded. What it
// keeps is the live heap it adds; the sort scratch, the decoded host strings
// and a loaded log's window are garbage once the build returns.
func TestNetworkIndexKeepsAConnectionInRows(t *testing.T) {
	const conns = 8000
	s := NewSet()
	appendOpenServer(s.Network, conns)
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	for name, l := range map[string]*Log{"recorded": s.Network, "loaded": loaded.Network} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		idx, err := BuildNetworkIndex(l)
		runtime.GC()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		kept := int64(after.HeapAlloc-before.HeapAlloc) / conns
		allocated := (after.TotalAlloc - before.TotalAlloc) / conns
		t.Logf("%s log: %d bytes kept and %d allocated a connection", name, kept, allocated)
		if peer, ok := idx.OpenAccepts.Get(ids.NetworkEventID{Thread: 1, Event: 3}); !ok || peer.RemoteHost != "client" || peer.RemotePort != openWorkers+1 {
			t.Errorf("%s log: accept of connection %d reads %+v, %v", name, openWorkers+1, peer, ok)
		}
		if idx.OpenAccepts.Len()+idx.OpenReads.Len()+idx.OpenWrites.Len() != 3*conns || kept > 80 {
			t.Errorf("%s log: %d rows kept in %d bytes a connection, want %d rows in at most 80", name,
				idx.OpenAccepts.Len()+idx.OpenReads.Len()+idx.OpenWrites.Len(), kept, 3*conns)
		}
		runtime.KeepAlive(idx)
	}
}

// IndexSet's error names the log that failed, and still wraps ErrCorrupt.
func TestIndexSetNamesTheFailingLog(t *testing.T) {
	for _, tc := range []struct {
		log   string
		spoil func(s *Set)
	}{
		{"schedule log", func(s *Set) { s.Schedule = NewLog() }},
		{"network log", func(s *Set) { s.Network.Append(&Interval{}) }},
		{"datagram log", func(s *Set) { s.Datagram.Append(&Interval{}) }},
	} {
		s := NewSet()
		s.Schedule.Append(&VMMeta{VM: 1})
		tc.spoil(s)
		if _, err := IndexSet(s); err == nil || !strings.HasPrefix(err.Error(), tc.log+": ") || !errors.Is(err, ErrCorrupt) {
			t.Errorf("IndexSet with a corrupt %s: %v", tc.log, err)
		}
	}
}

// Messages matches every kind of message in one world and lists them in its
// documented order, whatever the order of the indexes; what it cannot match
// it counts.
func TestMessagesOrderAndUnmatched(t *testing.T) {
	ev := func(th ids.ThreadNum, e ids.EventNum) ids.NetworkEventID {
		return ids.NetworkEventID{Thread: th, Event: e}
	}
	span := func(id ids.NetworkEventID, gc ids.GCount, op uint8, conn ids.ConnectionID, off uint64, n uint32) Entry {
		return &NetSpanEntry{EventID: id, GC: gc, Op: op, Conn: conn, Offset: off, Len: n}
	}
	set := func(vm ids.DJVMID, network, datagram []Entry) *Set {
		s := NewSet()
		s.Schedule.Append(&VMMeta{VM: vm, Threads: 2, FinalGC: 100})
		for _, e := range network {
			s.Network.Append(e)
		}
		for _, e := range datagram {
			s.Datagram.Append(e)
		}
		return s
	}
	// vm 1 connects twice to vm 2 and writes on both connections; vm 2
	// accepts both (and a third, untraced, connection) and reads.
	c1 := ids.ConnectionID{VM: 1, Thread: 0, Event: 1}
	c2 := ids.ConnectionID{VM: 1, Thread: 1, Event: 0}
	sets := []*Set{
		set(1, []Entry{
			span(ev(0, 1), 10, NetOpConnect, c1, 0, 0),
			span(ev(1, 0), 11, NetOpConnect, c2, 0, 0),
			span(ev(0, 2), 20, NetOpWrite, c2, 0, 4),
			span(ev(0, 3), 21, NetOpWrite, c1, 4, 4),
			span(ev(0, 4), 22, NetOpWrite, c1, 0, 4),
			span(ev(0, 5), 23, NetOpWrite, c1, 8, 4), // never read
		}, nil),
		set(2, []Entry{
			&ServerSocketEntry{ServerID: ev(1, 0), ClientID: c2},
			&ServerSocketEntry{ServerID: ev(0, 0), ClientID: c1},
			&ServerSocketEntry{ServerID: ev(0, 9), ClientID: ids.ConnectionID{VM: 1, Thread: 0, Event: 7}},
			span(ev(0, 0), 12, NetOpAccept, c1, 0, 0),
			span(ev(1, 0), 13, NetOpAccept, c2, 0, 0),
			span(ev(0, 1), 30, NetOpRead, c1, 0, 8),
			span(ev(1, 1), 31, NetOpRead, c2, 0, 4),
		}, []Entry{
			&DatagramRecvEntry{EventID: ev(1, 2), ReceiverGC: 41, Datagram: ids.DGNetworkEventID{VM: 3, GC: 5}},
			&DatagramRecvEntry{EventID: ev(0, 2), ReceiverGC: 40, Datagram: ids.DGNetworkEventID{VM: 3, GC: 6}},
			&DatagramRecvEntry{EventID: ev(0, 3), ReceiverGC: 42, Datagram: ids.DGNetworkEventID{VM: 2, GC: 7}}, // from itself
			&DatagramRecvEntry{EventID: ev(0, 4), ReceiverGC: 43, Datagram: ids.DGNetworkEventID{VM: 9, GC: 8}}, // from outside
		}),
		set(3, nil, nil),
	}
	msg := func(kind MessageKind, from ids.DJVMID, fromGC ids.GCount, to ids.DJVMID, toGC ids.GCount) Message {
		return Message{kind, End{from, fromGC}, End{to, toGC}}
	}
	want := []Message{
		msg(MsgHandshake, 1, 10, 2, 12),
		msg(MsgHandshake, 1, 11, 2, 13),
		msg(MsgStream, 1, 22, 2, 30),
		msg(MsgStream, 1, 21, 2, 30),
		msg(MsgStream, 1, 20, 2, 31),
		msg(MsgDatagram, 3, 6, 2, 40),
		msg(MsgDatagram, 3, 5, 2, 41),
	}
	wantUn := Unmatched{Handshakes: 1, Writes: 1, Datagrams: 2}
	var xs []*SetIndex
	for _, s := range sets {
		x, err := IndexSet(s)
		if err != nil {
			t.Fatal(err)
		}
		xs = append(xs, x)
	}
	for _, order := range [][]int{{0, 1, 2}, {2, 1, 0}, {1, 2, 0}} {
		in := []*SetIndex{xs[order[0]], xs[order[1]], xs[order[2]]}
		got, un := Messages(in)
		if !slices.Equal(got, want) || un != wantUn {
			t.Errorf("sets in order %v: messages %v, unmatched %+v; want %v, %+v", order, got, un, want, wantUn)
		}
	}
}
