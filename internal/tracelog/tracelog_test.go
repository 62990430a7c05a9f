package tracelog

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ids"
)

// allEntryKinds returns one representative value per entry kind, for
// exhaustive round-trip coverage.
func allEntryKinds() []Entry {
	return []Entry{
		&Interval{Thread: 3, First: 100, Last: 4242},
		&Notify{GC: 77, Woken: []ids.ThreadNum{1, 9, 200}},
		&ServerSocketEntry{
			ServerID: ids.NetworkEventID{Thread: 2, Event: 5},
			ClientID: ids.ConnectionID{VM: 9, Thread: 4, Event: 6},
		},
		&ReadEntry{EventID: ids.NetworkEventID{Thread: 1, Event: 2}, N: 512, EOF: true},
		&AvailableEntry{EventID: ids.NetworkEventID{Thread: 7, Event: 0}, N: 9000},
		&BindEntry{EventID: ids.NetworkEventID{Thread: 0, Event: 1}, Port: 65535},
		&NetErrEntry{EventID: ids.NetworkEventID{Thread: 5, Event: 5}, Op: "connect", Msg: "refused"},
		&DatagramRecvEntry{
			EventID:    ids.NetworkEventID{Thread: 3, Event: 9},
			ReceiverGC: 1 << 40,
			Datagram:   ids.DGNetworkEventID{VM: 2, GC: 1 << 33},
		},
		&OpenConnectEntry{EventID: ids.NetworkEventID{Thread: 1, Event: 1}, LocalPort: 5, RemoteHost: "h", RemotePort: 80},
		&OpenAcceptEntry{EventID: ids.NetworkEventID{Thread: 2, Event: 2}, RemoteHost: "peer", RemotePort: 1234},
		&OpenReadEntry{EventID: ids.NetworkEventID{Thread: 3, Event: 3}, Data: []byte{1, 2, 3, 0, 255}, EOF: false},
		&OpenWriteEntry{EventID: ids.NetworkEventID{Thread: 4, Event: 4}, Len: 99, Sum: 0xdeadbeefcafe},
		&OpenWriteEntry{EventID: ids.NetworkEventID{Thread: 4, Event: 5}, Len: 98, Sum: 0xfeedface, FNV: true},
		&OpenDatagramEntry{EventID: ids.NetworkEventID{Thread: 5, Event: 5}, SourceHost: "src", SourcePort: 53, Data: []byte("dns")},
		&VMMeta{VM: 12, World: ids.MixedWorld, Threads: 33, FinalGC: 1 << 50},
		&CheckpointEntry{GC: 500, NextThread: 9, TakerThread: 0, MainEventNum: 17, State: []byte("snapshot")},
		&EnvEntry{EventID: ids.NetworkEventID{Thread: 6, Event: 7}, Op: "now", Value: 1 << 62},
		&TimedWaitEntry{GC: 300, Check: true, TimedOut: true},
		&OpenInterval{Thread: 2, First: 50, Last: 60},
		&TimestampEntry{GC: 1000, Wall: 1_700_000_000_123_456_789},
		&NetSpanEntry{
			EventID: ids.NetworkEventID{Thread: 1, Event: 8},
			GC:      44,
			Op:      NetOpWrite,
			Conn:    ids.ConnectionID{VM: 3, Thread: 1, Event: 2},
			Offset:  1 << 35,
			Len:     1024,
		},
		&OrderModeEntry{Mode: ids.OrderSharded},
		&ObjRun{Obj: 7, Thread: 2, First: 10, Last: 300},
		&ObjNotify{Obj: 7, Seq: 12, Woken: []ids.ThreadNum{4, 5}},
		&ObjTimedWait{Obj: 8, Seq: 3, Check: true},
		&TruncationEntry{BaseGC: 120},
		&ChaosPlanEntry{Seed: 42, Spec: []byte{9, 8, 7}},
		&GroupEpochEntry{Epoch: 3, GC: 90, Members: []GroupMember{{VM: 1, AnchorGC: 90}, {VM: 2, AnchorGC: 84}}},
	}
}

func TestEveryEntryKindRoundTrips(t *testing.T) {
	l := NewLog()
	want := allEntryKinds()
	covered := map[Kind]bool{}
	for _, e := range want {
		covered[e.Kind()] = true
	}
	for k := kindInvalid + 1; k < kindMax; k++ {
		if !covered[k] {
			t.Errorf("allEntryKinds has no %v record (kind %d): add one", k, k)
		}
	}
	for _, e := range want {
		l.Append(e)
	}
	got, err := l.Entries()
	if err != nil {
		t.Fatalf("Entries: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("entry %d: decoded %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestIntervalRoundTripProperty(t *testing.T) {
	f := func(thread uint32, first uint64, span uint16) bool {
		iv := &Interval{
			Thread: ids.ThreadNum(thread),
			First:  ids.GCount(first),
			Last:   ids.GCount(first) + ids.GCount(span),
		}
		l := NewLog()
		l.Append(iv)
		got, err := l.Entries()
		if err != nil || len(got) != 1 {
			return false
		}
		return reflect.DeepEqual(got[0], iv)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestOpenReadRoundTripProperty(t *testing.T) {
	f := func(thread uint16, event uint16, data []byte, eof bool) bool {
		e := &OpenReadEntry{
			EventID: ids.NetworkEventID{Thread: ids.ThreadNum(thread), Event: ids.EventNum(event)},
			Data:    data,
			EOF:     eof,
		}
		l := NewLog()
		l.Append(e)
		got, err := l.Entries()
		if err != nil || len(got) != 1 {
			return false
		}
		d := got[0].(*OpenReadEntry)
		return d.EventID == e.EventID && d.EOF == eof && bytes.Equal(d.Data, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestParseRejectsCorruptStreams(t *testing.T) {
	l := NewLog()
	for _, e := range allEntryKinds() {
		l.Append(e)
	}
	data := l.Bytes()

	// Truncations at every prefix must either parse fewer entries or fail —
	// never panic or invent entries.
	whole, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut++ {
		entries, err := Parse(data[:cut])
		if err == nil && len(entries) >= len(whole) && cut < len(data) {
			t.Fatalf("truncation at %d parsed %d entries", cut, len(entries))
		}
	}

	// Unknown kind byte.
	if _, err := Parse([]byte{0xEE, 1, 2, 3}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("unknown kind parsed: %v", err)
	}

	// Error text is API (logcheck findings and djrecover -json quote it):
	// every reader of a stream must describe the same damage in the same
	// words, whichever log the stream belongs to.
	record := func(e Entry) []byte {
		l := NewLog()
		l.Append(e)
		return l.Bytes()
	}
	cutRecord := func(e Entry) []byte {
		b := record(e)
		return b[:len(b)-1]
	}
	for _, tc := range []struct {
		logID uint8
		data  []byte
		want  string
	}{
		{logSchedule, cutRecord(&Notify{GC: 5, Woken: []ids.ThreadNum{1, 2}}), "tracelog: corrupt log: decoding notify record at offset 4"},
		{logNetwork, cutRecord(&NetErrEntry{Op: "read", Msg: "reset"}), "tracelog: corrupt log: decoding net-err record at offset 9"},
		{logDatagram, cutRecord(&DatagramRecvEntry{ReceiverGC: 9}), "tracelog: corrupt log: decoding datagram-recv record at offset 5"},
		// The largest ObjectID has no stream number: ObjectStream would wrap
		// it onto the global stream.
		{logSchedule, record(&ObjNotify{Obj: ^ids.ObjectID(0), Seq: 1}), "tracelog: corrupt log: decoding obj-notify record at offset 11"},
		{logSchedule, []byte{0xEE, 1, 2, 3}, "tracelog: corrupt log: unknown record kind 238"},
		{logNetwork, []byte{0xEE, 1, 2, 3}, "tracelog: corrupt log: unknown record kind 238"},
		{logDatagram, []byte{0xEE, 1, 2, 3}, "tracelog: corrupt log: unknown record kind 238"},
	} {
		for reader, got := range corruptStreamMessages(t, tc.logID, tc.data) {
			if got != tc.want {
				t.Errorf("%s log, %s: message %q, want %q", logNames[tc.logID], reader, got, tc.want)
			}
		}
	}

	// Damage behind whole records: through every window, LoadSet stops at
	// the record Parse stops at, and says what Parse says of it.
	netErrs := record(&NetErrEntry{EventID: ids.NetworkEventID{Thread: 1, Event: 2}, Op: "connect", Msg: "refused"})
	for _, data := range [][]byte{
		append(bytes.Repeat(netErrs, 3), cutRecord(&NetErrEntry{Op: "read", Msg: "reset"})...),
		append(bytes.Repeat(netErrs, 2), 0xEE, 1, 2, 3),
	} {
		_, perr := Parse(data)
		dir := t.TempDir()
		set := NewSet()
		set.Network.chunks = [][]byte{data}
		if err := set.Save(dir); err != nil {
			t.Fatal(err)
		}
		for win := 1; win <= len(data); win++ {
			_, err := loadSet(dir, win)
			if want := "tracelog: load set: network.log: " + perr.Error(); err == nil || err.Error() != want {
				t.Errorf("window %d: LoadSet said %v, want %q", win, err, want)
			}
		}
	}

	// Random corruption: flip bytes; must never panic.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		mut := append([]byte(nil), data...)
		mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
		Parse(mut) // outcome may be ok or error; must not panic
	}
}

// buildIndex holds the three index builders by log id, results dropped.
var buildIndex = [logCount]func(*Log) error{
	func(l *Log) error { _, err := BuildScheduleIndex(l); return err },
	func(l *Log) error { _, err := BuildNetworkIndex(l); return err },
	func(l *Log) error { _, err := BuildDatagramIndex(l); return err },
}

// corruptStreamMessages feeds one undecodable stream of log logID to every
// reader the package has and returns what each said about it: Parse,
// EachEntry, LoadSet (minus its file-name prefix) with its own window and
// with every window up to the stream's length, that log's index builder, and
// RecoverFile's scan (the stream as the payload of one WAL frame).
func corruptStreamMessages(t *testing.T, logID uint8, data []byte) map[string]string {
	t.Helper()
	msg := func(err error) string {
		if err == nil {
			return "<accepted>"
		}
		return err.Error()
	}
	out := map[string]string{}
	_, err := Parse(data)
	out["Parse"] = msg(err)
	out["EachEntry"] = msg(EachEntry(data, func(Entry) error { return nil }))

	dir := t.TempDir()
	set := NewSet()
	set.logs()[logID].chunks = [][]byte{data}
	if err := set.Save(dir); err != nil {
		t.Fatal(err)
	}
	loadMsg := func(err error) string {
		return strings.TrimPrefix(msg(err), "tracelog: load set: "+logNames[logID]+".log: ")
	}
	_, err = LoadSet(dir)
	out["LoadSet"] = loadMsg(err)
	// Every window from one byte to the whole file: a record is found whole
	// wherever the windows cut it.
	for win := 1; win <= len(data); win++ {
		_, err = loadSet(dir, win)
		out[fmt.Sprintf("LoadSet, window %d", win)] = loadMsg(err)
	}

	out["Build*Index"] = msg(buildIndex[logID](&Log{chunks: [][]byte{data}}))

	path := filepath.Join(dir, "one-frame.wal")
	w, err := CreateWAL(path, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w.append(logID, data)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, rep, _ := RecoverFile(path)
	out["RecoverFile"] = rep.Reason
	return out
}

// TestEveryKindIsClassified pins the answers to the four questions the
// package asks of a record kind — what is it called and how is it built,
// which log does it belong in, which counter value keys it, which network
// event keys it — against a literal table, so a new kind cannot be added
// without deciding all of them.
func TestEveryKindIsClassified(t *testing.T) {
	type answers struct {
		log      uint8
		gcKey    bool // gcField finds a counter key
		eventKey bool // netEventID finds an event key
	}
	want := map[Kind]answers{
		KindInterval:     {log: logSchedule},
		KindNotify:       {log: logSchedule, gcKey: true},
		KindServerSocket: {log: logNetwork, eventKey: true},
		KindRead:         {log: logNetwork, eventKey: true},
		KindAvailable:    {log: logNetwork, eventKey: true},
		KindBind:         {log: logNetwork, eventKey: true},
		KindNetErr:       {log: logNetwork, eventKey: true},
		KindDatagramRecv: {log: logDatagram, gcKey: true, eventKey: true},
		KindOpenConnect:  {log: logNetwork, eventKey: true},
		KindOpenAccept:   {log: logNetwork, eventKey: true},
		KindOpenRead:     {log: logNetwork, eventKey: true},
		KindOpenWrite:    {log: logNetwork, eventKey: true},
		KindOpenDatagram: {log: logNetwork, eventKey: true},
		KindVMMeta:       {log: logSchedule},
		KindCheckpoint:   {log: logSchedule, gcKey: true},
		KindEnv:          {log: logNetwork, eventKey: true},
		KindTimedWait:    {log: logSchedule, gcKey: true},
		KindOpenInterval: {log: logSchedule},
		KindTimestamp:    {log: logSchedule, gcKey: true},
		KindNetSpan:      {log: logNetwork, eventKey: true},
		KindOrderMode:    {log: logSchedule},
		KindObjRun:       {log: logSchedule},
		KindObjNotify:    {log: logSchedule},
		KindObjTimedWait: {log: logSchedule},
		KindTruncation:   {log: logSchedule},
		KindChaosPlan:    {log: logSchedule},
		KindGroupEpoch:   {log: logSchedule, gcKey: true},

		KindOpenWriteWide: {log: logNetwork, eventKey: true},
	}
	for k := kindInvalid + 1; k < kindMax; k++ {
		w, ok := want[k]
		if !ok {
			t.Errorf("kind %d (%v) is not in this test's table: decide its log, counter key and event key", k, k)
			continue
		}
		if k.String() == "kind(?)" {
			t.Errorf("kind %d has no name", k)
		}
		e, err := newEntry(k)
		if err != nil || e.Kind() != k {
			t.Errorf("newEntry(%v) = %v, %v", k, e, err)
			continue
		}
		if got := kindTable[k].log; got != w.log {
			t.Errorf("%v: filed under the %s log, want %s", k, logNames[got], logNames[w.log])
		}
		if got := gcField(e) != nil; got != w.gcKey {
			t.Errorf("%v: gcField finds a counter key: %v, want %v", k, got, w.gcKey)
		}
		if _, got := netEventID(e); got != w.eventKey {
			t.Errorf("%v: netEventID finds an event key: %v, want %v", k, got, w.eventKey)
		}
		// A one-record stream of the kind indexes in its own log (the
		// schedule index also wants a vm-meta) and nowhere else.
		for id, build := range buildIndex {
			l := NewLog()
			l.Append(e)
			if id == logSchedule {
				l.Append(&VMMeta{})
			}
			err := build(l)
			if id == int(w.log) {
				if err != nil {
					t.Errorf("%v: rejected by the %s index: %v", k, logNames[id], err)
				}
				continue
			}
			wantMsg := fmt.Sprintf("tracelog: corrupt log: unexpected %v record in %s log", k, logNames[id])
			if err == nil || err.Error() != wantMsg {
				t.Errorf("%v in the %s index: %v, want %q", k, logNames[id], err, wantMsg)
			}
		}
	}
	// A kind past the table is unknown, not a panic.
	if name := Kind(200).String(); name != "kind(?)" {
		t.Errorf("Kind(200) is named %q", name)
	}
	if e, err := newEntry(200); e != nil || !errors.Is(err, ErrCorrupt) {
		t.Errorf("newEntry(200) = %v, %v; want ErrCorrupt", e, err)
	}
}

func TestLogSizeAndLen(t *testing.T) {
	l := NewLog()
	if l.Size() != 0 || l.Len() != 0 {
		t.Fatal("empty log has nonzero size")
	}
	l.Append(&Interval{Thread: 1, First: 10, Last: 20})
	if l.Size() == 0 || l.Len() != 1 {
		t.Errorf("Size=%d Len=%d after one append", l.Size(), l.Len())
	}
}

func TestSetSaveLoadRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "logs")
	s := NewSet()
	s.Schedule.Append(&VMMeta{VM: 4, World: ids.ClosedWorld, Threads: 2, FinalGC: 100})
	s.Schedule.Append(&Interval{Thread: 0, First: 0, Last: 99})
	s.Network.Append(&ReadEntry{EventID: ids.NetworkEventID{Thread: 0, Event: 0}, N: 7})
	s.Datagram.Append(&DatagramRecvEntry{
		EventID:  ids.NetworkEventID{Thread: 1, Event: 0},
		Datagram: ids.DGNetworkEventID{VM: 9, GC: 3},
	})
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.TotalSize() != s.TotalSize() {
		t.Errorf("loaded size %d, saved %d", loaded.TotalSize(), s.TotalSize())
	}
	idx, err := BuildScheduleIndex(loaded.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Meta.VM != 4 || len(idx.Streams[0].Runs[0]) != 1 {
		t.Errorf("loaded schedule index wrong: %+v", idx)
	}
}

func TestBuildScheduleIndexValidation(t *testing.T) {
	// Missing meta.
	l := NewLog()
	l.Append(&Interval{Thread: 0, First: 0, Last: 5})
	if _, err := BuildScheduleIndex(l); err == nil {
		t.Error("schedule log without vm-meta accepted")
	}

	// Out-of-order intervals.
	l2 := NewLog()
	l2.Append(&VMMeta{VM: 1})
	l2.Append(&Interval{Thread: 0, First: 10, Last: 20})
	l2.Append(&Interval{Thread: 0, First: 15, Last: 30}) // overlaps
	if _, err := BuildScheduleIndex(l2); err == nil {
		t.Error("overlapping intervals accepted")
	}

	// Wrong record type in schedule log.
	l3 := NewLog()
	l3.Append(&VMMeta{VM: 1})
	l3.Append(&ReadEntry{})
	if _, err := BuildScheduleIndex(l3); err == nil || err.Error() != "tracelog: corrupt log: unexpected read record in schedule log" {
		t.Errorf("network record in schedule log: %v", err)
	}
}

func TestBuildNetworkIndexValidation(t *testing.T) {
	l := NewLog()
	ev := ids.NetworkEventID{Thread: 1, Event: 1}
	l.Append(&ReadEntry{EventID: ev, N: 5})
	l.Append(&ReadEntry{EventID: ev, N: 6})
	if _, err := BuildNetworkIndex(l); err == nil {
		t.Error("duplicate read entries accepted")
	}
	// An event has one open-write record, of either kind: which checksum
	// verifies its payload must not depend on record order.
	for _, pair := range [][2]bool{{false, false}, {true, true}, {true, false}, {false, true}} {
		lw := NewLog()
		lw.Append(&OpenWriteEntry{EventID: ev, Len: 5, Sum: 1, FNV: pair[0]})
		lw.Append(&OpenWriteEntry{EventID: ev, Len: 5, Sum: 1, FNV: pair[1]})
		if _, err := BuildNetworkIndex(lw); err == nil {
			t.Errorf("duplicate open-write entries (FNV %v then %v) accepted", pair[0], pair[1])
		}
	}

	l2 := NewLog()
	l2.Append(&Interval{Thread: 0, First: 0, Last: 1})
	if _, err := BuildNetworkIndex(l2); err == nil || err.Error() != "tracelog: corrupt log: unexpected interval record in network log" {
		t.Errorf("schedule record in network log: %v", err)
	}
}

func TestBuildDatagramIndexCountsDeliveries(t *testing.T) {
	l := NewLog()
	dg := ids.DGNetworkEventID{VM: 7, GC: 123}
	for i := 0; i < 3; i++ {
		l.Append(&DatagramRecvEntry{
			EventID:  ids.NetworkEventID{Thread: 0, Event: ids.EventNum(i)},
			Datagram: dg,
		})
	}
	idx, err := BuildDatagramIndex(l)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Deliveries[dg] != 3 {
		t.Errorf("delivery count %d, want 3 (duplicated datagram)", idx.Deliveries[dg])
	}
	if idx.ByEvent.Len() != 3 {
		t.Errorf("%d events indexed, want 3", idx.ByEvent.Len())
	}
}

// TestWideSumVectors pins WideSum, which is part of the log format: the sum a
// recording stores today must be the sum every later build, on every
// architecture, computes for the same payload. The second computation reads
// the payload a byte at a time, with no help from encoding/binary.
func TestWideSumVectors(t *testing.T) {
	bytewise := func(p []byte) uint64 {
		const m = 0x9e3779b97f4a7c15
		step := func(h, w uint64) uint64 { h ^= w; return (h<<29 | h>>35) * m }
		h := (uint64(len(p)) + 1) * m
		for ; len(p) >= 8; p = p[8:] {
			var w uint64
			for i := 7; i >= 0; i-- {
				w = w<<8 | uint64(p[i])
			}
			h = step(h, w)
		}
		for _, b := range p {
			h = step(h, uint64(b))
		}
		h = (h ^ h>>33) * 0xff51afd7ed558ccd
		h = (h ^ h>>33) * 0xc4ceb9fe1a85ec53
		return h ^ h>>33
	}
	for _, v := range []struct {
		n    int
		want uint64
	}{
		{0, 0x9ca066f1a4ab2eea},
		{1, 0x1c5718e4f7e47e26},
		{7, 0xe4e2722f80c27a76},
		{8, 0x53c0f3ff3eb3420a},
		{9, 0x2b8fded1eb2284ff},
		{1024, 0x489ed46f49b0292a},
	} {
		p := make([]byte, v.n)
		for i := range p {
			p[i] = byte(i*7 + 1)
		}
		if got := WideSum(p); got != v.want || bytewise(p) != v.want {
			t.Errorf("WideSum of %d bytes = %#016x (bytewise %#016x), pinned %#016x", v.n, got, bytewise(p), v.want)
		}
	}

	// Every single-bit change of a payload changes the sum, and so does moving
	// a byte across the end (the length is part of it).
	p := make([]byte, 100)
	base := WideSum(p)
	for i := range p {
		for bit := 0; bit < 8; bit++ {
			p[i] ^= 1 << bit
			if WideSum(p) == base {
				t.Fatalf("flipping bit %d of byte %d left the sum unchanged", bit, i)
			}
			p[i] ^= 1 << bit
		}
	}
	if WideSum(p[:99]) == base || WideSum(append(p, 0)) == base {
		t.Error("payloads of zeros that differ only in length share a sum")
	}
}

// TestOpenWriteVerify: one verifier for both kinds of open-write record, each
// under its own checksum, saying how a payload differs.
func TestOpenWriteVerify(t *testing.T) {
	payload := []byte("the reply the recorded run wrote")
	changed := append([]byte(nil), payload...)
	changed[4] ^= 1
	fnvSum := fnv.New64a()
	fnvSum.Write(payload)
	for _, e := range []*OpenWriteEntry{
		{Len: uint32(len(payload)), Sum: WideSum(payload)},
		{Len: uint32(len(payload)), Sum: fnvSum.Sum64(), FNV: true},
	} {
		if err := e.Verify(payload); err != nil {
			t.Errorf("%v: the recorded payload does not verify: %v", e.Kind(), err)
		}
		err := e.Verify(changed)
		if want := fmt.Sprintf("%v checksum differs: recorded %#016x, replayed ", e.Kind(), e.Sum); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%v: changed payload: %v, want %s…", e.Kind(), err, want)
		}
		err = e.Verify(payload[:10])
		if want := fmt.Sprintf("length differs: recorded %d bytes, replayed 10", len(payload)); err == nil || err.Error() != want {
			t.Errorf("%v: short payload: %v, want %s", e.Kind(), err, want)
		}
	}
	// The kinds do not verify each other's sums.
	if (&OpenWriteEntry{Len: uint32(len(payload)), Sum: WideSum(payload), FNV: true}).Verify(payload) == nil {
		t.Error("an FNV-1a record verified against a WideSum")
	}
}

// TestDecodeRejectsOverlongField: a length field near 2^64 must not wrap the
// bounds check into accepting it.
func TestDecodeRejectsOverlongField(t *testing.T) {
	rec := encoded(&OpenReadEntry{EventID: ids.NetworkEventID{Thread: 1, Event: 1}})
	// kind, thread, event, then the payload length: make it 2^64-1.
	rec = append(rec[:3], 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0)
	if _, err := Parse(rec); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Parse of a record with a 2^64-1 byte payload: %v, want ErrCorrupt", err)
	}
}
