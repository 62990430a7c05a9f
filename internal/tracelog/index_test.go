package tracelog

import (
	"errors"
	"math/rand"
	"runtime"
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
			err := buildIndex[logOf(k)](l)
			want := dupError{rec.second.Kind()}
			if !errors.Is(err, want) || err.Error() != want.Error() {
				t.Errorf("two %v records for %v: %v, want %v", k, ev, err, want)
			}
			single := NewLog()
			single.Append(rec.first)
			single.Append(netRecords(other)[i].second)
			if err := buildIndex[logOf(k)](single); err != nil {
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
