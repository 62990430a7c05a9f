package tracelog

import (
	"encoding/hex"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/ids"
)

// TestRecordEncodingVectors pins the bytes of one record of every kind, plus
// the edge cases of its fields: the largest values a u16 and a u32 field hold,
// a negative wall clock, empty payloads and lists. Saved logs, WAL frames and
// the golden fixtures are made of these bytes, so a change to any of them is a
// change to the log format, not a refactor. Each pinned record also decodes
// back to the record it was encoded from.
func TestRecordEncodingVectors(t *testing.T) {
	ev := ids.NetworkEventID{Thread: 3, Event: 300}
	covered := map[Kind]bool{}
	for _, v := range []struct {
		e   Entry
		hex string
	}{
		{&Interval{Thread: 3, First: 100, Last: 4242}, "010364ae20"},
		{&Interval{Thread: 0xffffffff, First: 1 << 40, Last: 1 << 40}, "01ffffffff0f80808080802000"},
		{&Notify{GC: 77, Woken: []ids.ThreadNum{1, 9, 200}}, "024d030109c801"},
		{&Notify{GC: 0, Woken: []ids.ThreadNum{}}, "020000"},
		{&ServerSocketEntry{ServerID: ev, ClientID: ids.ConnectionID{VM: 9, Thread: 4, Event: 6}}, "0303ac02090406"},
		{&ReadEntry{EventID: ev, N: 512, EOF: true}, "0403ac02800401"},
		{&AvailableEntry{EventID: ev, N: 9000}, "0503ac02a846"},
		{&BindEntry{EventID: ev, Port: 65535}, "0603ac02ffff03"},
		{&NetErrEntry{EventID: ev, Op: "connect", Msg: "refused"}, "0703ac0207636f6e6e6563740772656675736564"},
		{&DatagramRecvEntry{EventID: ev, ReceiverGC: 1 << 40, Datagram: ids.DGNetworkEventID{VM: 2, GC: 1 << 33}}, "0803ac02808080808020028080808020"},
		{&OpenConnectEntry{EventID: ev, LocalPort: 5, RemoteHost: "h", RemotePort: 80}, "0903ac0205016850"},
		{&OpenAcceptEntry{EventID: ev, RemoteHost: "peer", RemotePort: 1234}, "0a03ac020470656572d209"},
		{&OpenReadEntry{EventID: ev, Data: []byte{1, 2, 3, 0, 255}}, "0b03ac020501020300ff00"},
		{&OpenReadEntry{EventID: ev, Data: []byte{}, EOF: true}, "0b03ac020001"},
		{&OpenWriteEntry{EventID: ev, Len: 99, Sum: 0xdeadbeefcafe, FNV: true}, "0c03ac0263fe95bff7dbd537"},
		{&OpenDatagramEntry{EventID: ev, SourceHost: "src", SourcePort: 53, Data: []byte("dns")}, "0d03ac02037372633503646e73"},
		{&VMMeta{VM: 12, World: ids.MixedWorld, Threads: 33, FinalGC: 1 << 50}, "0e0c02218080808080808002"},
		{&CheckpointEntry{GC: 500, NextThread: 9, TakerThread: 1, MainEventNum: 17, State: []byte("snapshot")}, "0ff40309011108736e617073686f74"},
		{&EnvEntry{EventID: ev, Op: "now", Value: 1 << 62}, "1003ac02036e6f77808080808080808040"},
		{&TimedWaitEntry{GC: 300, Check: true}, "11ac020100"},
		{&OpenInterval{Thread: 2, First: 50, Last: 60}, "1202320a"},
		{&TimestampEntry{GC: 1000, Wall: 1_700_000_000_123_456_789}, "13e807959a97ece39fe7cb17"},
		{&TimestampEntry{GC: 1, Wall: -1}, "1301ffffffffffffffffff01"},
		{&NetSpanEntry{EventID: ev, GC: 44, Op: NetOpWrite, Conn: ids.ConnectionID{VM: 3, Thread: 1, Event: 2}, Offset: 1 << 35, Len: 1024}, "1403ac022c040301028080808080018008"},
		{&OrderModeEntry{Mode: ids.OrderSharded}, "1501"},
		{&ObjRun{Obj: 7, Thread: 2, First: 10, Last: 300}, "1607020aa202"},
		{&ObjNotify{Obj: 7, Seq: 12, Woken: []ids.ThreadNum{4, 5}}, "17070c020405"},
		{&ObjTimedWait{Obj: 1<<63 - 1, Seq: 3, TimedOut: true}, "18ffffffffffffffff7f030001"},
		{&TruncationEntry{BaseGC: 120}, "1978"},
		{&ChaosPlanEntry{Seed: 42, Spec: []byte{9, 8, 7}}, "1a2a03090807"},
		{&GroupEpochEntry{Epoch: 3, GC: 90, Members: []GroupMember{{VM: 1, AnchorGC: 90}, {VM: 2, AnchorGC: 84}}}, "1b035a02015a0254"},
		{&OpenWriteEntry{EventID: ev, Len: 0xffffffff, Sum: 1<<64 - 1}, "1c03ac02ffffffff0fffffffffffffffffff01"},
	} {
		covered[v.e.Kind()] = true
		if got := hex.EncodeToString(encoded(v.e)); got != v.hex {
			t.Errorf("%v record %+v encodes to %s, pinned %s", v.e.Kind(), v.e, got, v.hex)
		}
		b, _ := hex.DecodeString(v.hex)
		if got, err := Parse(b); err != nil || len(got) != 1 || !reflect.DeepEqual(got[0], v.e) {
			t.Errorf("pinned %v record %s decodes to %v (%v), want %+v", v.e.Kind(), v.hex, got, err, v.e)
		}
	}
	for k := kindInvalid + 1; k < kindMax; k++ {
		if !covered[k] {
			t.Errorf("no %v record (kind %d) is pinned", k, k)
		}
	}
}

// TestCodecAllocatesNothingPerField: coding a record allocates nothing per
// field. Appending a reused record of any kind allocates only for the log's
// chunks: the chunk, the list of chunks, and the few arrays a record that did
// not fit the last chunk grew through (a handful per chunk). A scratch walk
// over Notify records allocates each record's fresh woken list and nothing per
// woken thread: a list element decoded into a local that the element func is
// handed escapes, one allocation per element.
func TestCodecAllocatesNothingPerField(t *testing.T) {
	const n = 1000
	var before, after runtime.MemStats
	for _, e := range allEntryKinds() {
		l := NewLog()
		runtime.ReadMemStats(&before)
		for range n {
			l.Append(e)
		}
		runtime.ReadMemStats(&after)
		if allocs := after.Mallocs - before.Mallocs; allocs > uint64(6*len(l.chunks)) {
			t.Errorf("%d appends of one %v record into %d chunks: %d allocations", n, e.Kind(), len(l.chunks), allocs)
		}
	}

	l := NewLog()
	for i := range n {
		l.Append(&Notify{GC: ids.GCount(i), Woken: []ids.ThreadNum{1, 2, ids.ThreadNum(i)}})
	}
	var sc scratch
	walk := func() error { return l.walk(&sc, func(Entry, int, int) error { return nil }) }
	if err := walk(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&before)
	err := walk()
	runtime.ReadMemStats(&after)
	if allocs := after.Mallocs - before.Mallocs; err != nil || allocs > n+8 {
		t.Errorf("a scratch walk over %d three-thread notifies: %d allocations (%v), want one per record", n, allocs, err)
	}
}
