package logcheck

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/ids"
	"repro/internal/tracelog"
)

func simpleSet(finalGC ids.GCount) *tracelog.Set {
	s := tracelog.NewSet()
	s.Schedule.Append(&tracelog.VMMeta{VM: 1, Threads: 2, FinalGC: finalGC})
	s.Schedule.Append(&tracelog.Interval{Thread: 0, First: 0, Last: 3})
	s.Schedule.Append(&tracelog.Interval{Thread: 1, First: 4, Last: finalGC - 1})
	s.Network.Append(&tracelog.ReadEntry{EventID: ids.NetworkEventID{Thread: 0, Event: 0}, N: 7})
	return s
}

func TestDiffIdenticalSets(t *testing.T) {
	a, b := simpleSet(10), simpleSet(10)
	rep, err := Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Same() {
		t.Errorf("identical sets reported different: %v", rep.Lines)
	}
}

func diffContains(rep *DiffReport, substr string) bool {
	for _, l := range rep.Lines {
		if strings.Contains(l, substr) {
			return true
		}
	}
	return false
}

func TestDiffScheduleDeparture(t *testing.T) {
	a, b := simpleSet(10), tracelog.NewSet()
	b.Schedule.Append(&tracelog.VMMeta{VM: 1, Threads: 2, FinalGC: 10})
	b.Schedule.Append(&tracelog.Interval{Thread: 0, First: 0, Last: 5}) // differs
	b.Schedule.Append(&tracelog.Interval{Thread: 1, First: 6, Last: 9})
	b.Network.Append(&tracelog.ReadEntry{EventID: ids.NetworkEventID{Thread: 0, Event: 0}, N: 7})

	rep, err := Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !diffContains(rep, "global counter, thread 0: runs depart at run 0: [0,3] vs [0,5]") {
		t.Errorf("schedule departure not reported: %v", rep.Lines)
	}
}

func TestDiffNetworkValueAndPresence(t *testing.T) {
	a, b := simpleSet(10), simpleSet(10)
	// Differing value.
	b.Network.Append(&tracelog.ReadEntry{EventID: ids.NetworkEventID{Thread: 1, Event: 0}, N: 9})
	a.Network.Append(&tracelog.ReadEntry{EventID: ids.NetworkEventID{Thread: 1, Event: 0}, N: 5})
	// One-sided entry.
	a.Network.Append(&tracelog.BindEntry{EventID: ids.NetworkEventID{Thread: 0, Event: 1}, Port: 80})

	rep, err := Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !diffContains(rep, "read nev⟨t1,e0⟩: values differ") {
		t.Errorf("value difference not reported: %v", rep.Lines)
	}
	if !diffContains(rep, "bind nev⟨t0,e1⟩: only in left log") {
		t.Errorf("one-sided bind not reported: %v", rep.Lines)
	}
}

// Two open-world recordings that saw a different peer, different request
// bytes and a different reply checksum are not the same execution: every
// open-world record family is compared, by value and by presence.
func TestDiffOpenWorldValueAndPresence(t *testing.T) {
	ev := func(e int) ids.NetworkEventID { return ids.NetworkEventID{Thread: 1, Event: ids.EventNum(e)} }
	a, b := simpleSet(10), simpleSet(10)
	// Events 0-4: one record of each family on both sides, values differing.
	a.Network.Append(&tracelog.OpenConnectEntry{EventID: ev(0), LocalPort: 5, RemoteHost: "alpha", RemotePort: 80})
	b.Network.Append(&tracelog.OpenConnectEntry{EventID: ev(0), LocalPort: 5, RemoteHost: "beta", RemotePort: 80})
	a.Network.Append(&tracelog.OpenAcceptEntry{EventID: ev(1), RemoteHost: "peer", RemotePort: 1000})
	b.Network.Append(&tracelog.OpenAcceptEntry{EventID: ev(1), RemoteHost: "peer", RemotePort: 1001})
	a.Network.Append(&tracelog.OpenReadEntry{EventID: ev(2), Data: []byte("GET /a")})
	b.Network.Append(&tracelog.OpenReadEntry{EventID: ev(2), Data: []byte("GET /b")})
	a.Network.Append(&tracelog.OpenWriteEntry{EventID: ev(3), Len: 6, Sum: 0xfeed})
	b.Network.Append(&tracelog.OpenWriteEntry{EventID: ev(3), Len: 6, Sum: 0xbeef})
	a.Network.Append(&tracelog.OpenDatagramEntry{EventID: ev(4), SourceHost: "src", SourcePort: 53, Data: []byte("x")})
	b.Network.Append(&tracelog.OpenDatagramEntry{EventID: ev(4), SourceHost: "src", SourcePort: 53, Data: []byte("y")})
	// Events 5-9: one record of each family on the left side only.
	a.Network.Append(&tracelog.OpenConnectEntry{EventID: ev(5)})
	a.Network.Append(&tracelog.OpenAcceptEntry{EventID: ev(6)})
	a.Network.Append(&tracelog.OpenReadEntry{EventID: ev(7)})
	a.Network.Append(&tracelog.OpenWriteEntry{EventID: ev(8)})
	a.Network.Append(&tracelog.OpenDatagramEntry{EventID: ev(9)})
	// Events 10-11: equal content must stay silent.
	a.Network.Append(&tracelog.OpenReadEntry{EventID: ev(10), Data: []byte("same"), EOF: true})
	b.Network.Append(&tracelog.OpenReadEntry{EventID: ev(10), Data: []byte("same"), EOF: true})
	a.Network.Append(&tracelog.OpenDatagramEntry{EventID: ev(11), SourceHost: "src", Data: []byte("same")})
	b.Network.Append(&tracelog.OpenDatagramEntry{EventID: ev(11), SourceHost: "src", Data: []byte("same")})
	// Event 12: the same length and sum under the two open-write kinds are
	// sums of different algorithms. Event 13: an old-kind record on both sides.
	a.Network.Append(&tracelog.OpenWriteEntry{EventID: ev(12), Len: 6, Sum: 0xfeed, FNV: true})
	b.Network.Append(&tracelog.OpenWriteEntry{EventID: ev(12), Len: 6, Sum: 0xfeed})
	a.Network.Append(&tracelog.OpenWriteEntry{EventID: ev(13), Len: 6, Sum: 0xfeed, FNV: true})
	b.Network.Append(&tracelog.OpenWriteEntry{EventID: ev(13), Len: 6, Sum: 0xfeed, FNV: true})

	rep, err := Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"open-connect nev⟨t1,e0⟩: values differ",
		"open-connect nev⟨t1,e5⟩: only in left log",
		"open-accept nev⟨t1,e1⟩: values differ",
		"open-accept nev⟨t1,e6⟩: only in left log",
		"open-read nev⟨t1,e2⟩: values differ",
		"open-read nev⟨t1,e7⟩: only in left log",
		"open-write nev⟨t1,e3⟩: values differ",
		"open-write nev⟨t1,e8⟩: only in left log",
		"open-write nev⟨t1,e12⟩: values differ",
		"open-datagram nev⟨t1,e4⟩: values differ",
		"open-datagram nev⟨t1,e9⟩: only in left log",
	}
	if !slices.Equal(rep.Lines, want) {
		t.Errorf("open-world differences:\n got %q\nwant %q", rep.Lines, want)
	}
}

// Open accepts, connects and env queries are compared by the host or op
// name they recorded, never by where the index keeps that name: two logs of
// the same records in another order, whose indexes list their names in
// another order, diff clean, and a really different host is still reported.
func TestDiffComparesNamesNotTheirPlaces(t *testing.T) {
	ev := func(e int) ids.NetworkEventID { return ids.NetworkEventID{Thread: 1, Event: ids.EventNum(e)} }
	records := []tracelog.Entry{
		&tracelog.OpenAcceptEntry{EventID: ev(0), RemoteHost: "alpha", RemotePort: 1000},
		&tracelog.OpenConnectEntry{EventID: ev(1), LocalPort: 5, RemoteHost: "beta", RemotePort: 80},
		&tracelog.EnvEntry{EventID: ev(2), Op: "clock", Value: 7},
		&tracelog.OpenAcceptEntry{EventID: ev(3), RemoteHost: "beta", RemotePort: 1001},
	}
	a, b, c := simpleSet(10), simpleSet(10), simpleSet(10)
	for i, e := range records {
		a.Network.Append(e)
		b.Network.Append(records[len(records)-1-i])
		if i == 3 {
			e = &tracelog.OpenAcceptEntry{EventID: ev(3), RemoteHost: "gamma", RemotePort: 1001}
		}
		c.Network.Append(e)
	}
	rep, err := Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Same() {
		t.Errorf("the same records logged in another order differ: %q", rep.Lines)
	}
	if rep, err = Diff(a, c); err != nil {
		t.Fatal(err)
	}
	if want := []string{"open-accept nev⟨t1,e3⟩: values differ"}; !slices.Equal(rep.Lines, want) {
		t.Errorf("another host:\n got %q\nwant %q", rep.Lines, want)
	}
}

func TestDiffMetaDifferences(t *testing.T) {
	a := simpleSet(10)
	b := tracelog.NewSet()
	b.Schedule.Append(&tracelog.VMMeta{VM: 2, Threads: 3, FinalGC: 12})
	b.Schedule.Append(&tracelog.Interval{Thread: 0, First: 0, Last: 11})

	rep, err := Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"vm id: 1 vs 2", "thread count: 2 vs 3", "final counter: 10 vs 12"} {
		if !diffContains(rep, want) {
			t.Errorf("missing %q in %v", want, rep.Lines)
		}
	}
}

func TestDiffDatagram(t *testing.T) {
	a, b := simpleSet(10), simpleSet(10)
	a.Datagram.Append(&tracelog.DatagramRecvEntry{
		EventID:  ids.NetworkEventID{Thread: 1, Event: 0},
		Datagram: ids.DGNetworkEventID{VM: 5, GC: 1},
	})
	b.Datagram.Append(&tracelog.DatagramRecvEntry{
		EventID:  ids.NetworkEventID{Thread: 1, Event: 0},
		Datagram: ids.DGNetworkEventID{VM: 5, GC: 2},
	})
	rep, err := Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !diffContains(rep, "datagram-recv nev⟨t1,e0⟩: values differ") {
		t.Errorf("datagram difference not reported: %v", rep.Lines)
	}
}

func TestDiffTwoRealRecordings(t *testing.T) {
	// Two record runs of the same racy program almost surely interleave
	// differently; Diff must find a schedule departure but no network-key
	// asymmetry (both runs perform the same events).
	s1, c1 := recordWorld(t)
	s2, c2 := recordWorld(t)
	_ = c1
	_ = c2
	rep, err := Diff(s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	if diffContains(rep, "only in") {
		t.Errorf("two runs of one program have asymmetric event keys: %v", rep.Lines)
	}
	// Schedules usually differ, but equality is possible; no assertion.
}

// shardedSet composes a sharded log set in which two threads take one global
// event each and access obj0 in the given order.
func shardedSet(objOrder []ids.ThreadNum, extras ...tracelog.Entry) *tracelog.Set {
	s := tracelog.NewSet()
	s.Schedule = tracelog.ComposeSchedule(tracelog.VMMeta{VM: 1, Threads: 2}, ids.OrderSharded, 0,
		[][]ids.ThreadNum{{0, 1}, objOrder}, extras)
	return s
}

// TestDiffObjectOrders: two sharded sets that differ only in one object's
// access order are different executions. Diff used to compare per-thread
// intervals alone and call them identical.
func TestDiffObjectOrders(t *testing.T) {
	a := shardedSet([]ids.ThreadNum{0, 1, 0, 1})
	b := shardedSet([]ids.ThreadNum{1, 1, 0, 0})
	rep, err := Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !diffContains(rep, "obj0, thread 0: runs depart at run 0: [0,0] vs [2,3]") {
		t.Errorf("object-order departure not reported: %v", rep.Lines)
	}
	if rep, _ := Diff(a, shardedSet([]ids.ThreadNum{0, 1, 0, 1})); !rep.Same() {
		t.Errorf("equal object orders reported different: %v", rep.Lines)
	}
	if rep, _ := Diff(a, shardedSet([]ids.ThreadNum{0, 1, 0, 1, 0})); !diffContains(rep, "obj0, thread 0: 2 vs 3 runs (common prefix identical)") {
		t.Errorf("longer object order not reported: %v", rep.Lines)
	}
}

// TestDiffOrderModeAndKeyedScheduleRecords: the order mode, and the notify and
// timed-wait records of either record family, are part of the execution.
func TestDiffOrderModeAndKeyedScheduleRecords(t *testing.T) {
	order := []ids.ThreadNum{0, 1, 0, 1}
	a := shardedSet(order,
		&tracelog.ObjNotify{Obj: 0, Seq: 2, Woken: []ids.ThreadNum{1}},
		&tracelog.ObjTimedWait{Obj: 0, Seq: 1, Check: true, TimedOut: true},
		&tracelog.Notify{GC: 1, Woken: []ids.ThreadNum{0}},
		&tracelog.TimedWaitEntry{GC: 0, Check: true})
	b := shardedSet(order,
		&tracelog.ObjNotify{Obj: 0, Seq: 2, Woken: []ids.ThreadNum{0}},
		&tracelog.ObjTimedWait{Obj: 0, Seq: 3, Check: true, TimedOut: true},
		&tracelog.TimedWaitEntry{GC: 0, Check: true, TimedOut: true})
	rep, err := Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"notify at access 2 of obj0: values differ",
		"timed-wait at access 1 of obj0: only in left log",
		"timed-wait at access 3 of obj0: only in right log",
		"notify at counter 1: only in left log",
		"timed-wait at counter 0: values differ",
	} {
		if !diffContains(rep, want) {
			t.Errorf("missing %q in %v", want, rep.Lines)
		}
	}

	global := tracelog.NewSet()
	global.Schedule = tracelog.ComposeSchedule(tracelog.VMMeta{VM: 1, Threads: 2}, ids.OrderGlobal, 0, [][]ids.ThreadNum{{0, 1}}, nil)
	rep, err = Diff(global, shardedSet(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !diffContains(rep, "order mode: global vs sharded") {
		t.Errorf("order-mode mismatch not reported: %v", rep.Lines)
	}
}
