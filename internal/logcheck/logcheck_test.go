package logcheck

import (
	"slices"
	"strings"
	"testing"
	"time"

	"path/filepath"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/djsock"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/tracelog"
)

// recordWorld produces the log sets of a real two-VM closed-world run.
func recordWorld(t *testing.T) (server, client *tracelog.Set) {
	t.Helper()
	net := netsim.NewNetwork(netsim.Config{Seed: 5})
	sVM, err := core.NewVM(core.Config{ID: 1, Mode: ids.Record})
	if err != nil {
		t.Fatal(err)
	}
	cVM, err := core.NewVM(core.Config{ID: 2, Mode: ids.Record})
	if err != nil {
		t.Fatal(err)
	}
	senv := djsock.NewEnv(sVM, net, "s")
	cenv := djsock.NewEnv(cVM, net, "c")
	ready := make(chan uint16, 1)
	sVM.Start(func(main *core.Thread) {
		ss, err := senv.Listen(main, 0)
		if err != nil {
			panic(err)
		}
		ready <- ss.Port()
		for i := 0; i < 2; i++ {
			conn, err := ss.Accept(main)
			if err != nil {
				panic(err)
			}
			buf := make([]byte, 4)
			conn.ReadFull(main, buf)
			conn.Close(main)
		}
	})
	port := <-ready
	cVM.Start(func(main *core.Thread) {
		var x core.SharedInt
		for i := 0; i < 2; i++ {
			x.Set(main, x.Get(main)+1)
			conn, err := cenv.Connect(main, netsim.Addr{Host: "s", Port: port})
			if err != nil {
				panic(err)
			}
			conn.Write(main, []byte("ping"))
			conn.Close(main)
		}
	})
	done := make(chan struct{})
	go func() { sVM.Wait(); cVM.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("record run deadlocked")
	}
	sVM.Close()
	cVM.Close()
	return sVM.Logs(), cVM.Logs()
}

func TestHealthyWorldPasses(t *testing.T) {
	s, c := recordWorld(t)
	if rep := CheckSet(s); !rep.OK() {
		t.Errorf("server set findings: %v", rep.Findings)
	}
	if rep := CheckSet(c); !rep.OK() {
		t.Errorf("client set findings: %v", rep.Findings)
	}
	if rep := CheckWorld([]*tracelog.Set{s, c}); !rep.OK() {
		t.Errorf("world findings: %v", rep.Findings)
	}
}

func findingsContain(rep *Report, substr string) bool {
	for _, f := range rep.Findings {
		if strings.Contains(f.Msg, substr) {
			return true
		}
	}
	return false
}

func TestScheduleGapDetected(t *testing.T) {
	set := tracelog.NewSet()
	set.Schedule.Append(&tracelog.VMMeta{VM: 1, Threads: 1, FinalGC: 10})
	set.Schedule.Append(&tracelog.Interval{Thread: 0, First: 0, Last: 3})
	set.Schedule.Append(&tracelog.Interval{Thread: 0, First: 6, Last: 9}) // gap 4-5
	rep := CheckSet(set)
	if !findingsContain(rep, "gap") {
		t.Errorf("gap not detected: %v", rep.Findings)
	}
}

func TestScheduleOverlapDetected(t *testing.T) {
	set := tracelog.NewSet()
	set.Schedule.Append(&tracelog.VMMeta{VM: 1, Threads: 2, FinalGC: 10})
	set.Schedule.Append(&tracelog.Interval{Thread: 0, First: 0, Last: 5})
	set.Schedule.Append(&tracelog.Interval{Thread: 1, First: 5, Last: 9}) // overlap at 5
	rep := CheckSet(set)
	if !findingsContain(rep, "overlap") {
		t.Errorf("overlap not detected: %v", rep.Findings)
	}
}

func TestShortCoverageDetected(t *testing.T) {
	set := tracelog.NewSet()
	set.Schedule.Append(&tracelog.VMMeta{VM: 1, Threads: 1, FinalGC: 10})
	set.Schedule.Append(&tracelog.Interval{Thread: 0, First: 0, Last: 5})
	rep := CheckSet(set)
	if !findingsContain(rep, "final counter") {
		t.Errorf("short coverage not detected: %v", rep.Findings)
	}
}

func TestUnknownThreadDetected(t *testing.T) {
	set := tracelog.NewSet()
	set.Schedule.Append(&tracelog.VMMeta{VM: 1, Threads: 1, FinalGC: 2})
	set.Schedule.Append(&tracelog.Interval{Thread: 0, First: 0, Last: 1})
	set.Network.Append(&tracelog.ReadEntry{EventID: ids.NetworkEventID{Thread: 7, Event: 0}, N: 1})
	rep := CheckSet(set)
	if !findingsContain(rep, "unknown thread") {
		t.Errorf("unknown thread not detected: %v", rep.Findings)
	}
}

func TestNotifyBeyondFinalDetected(t *testing.T) {
	set := tracelog.NewSet()
	set.Schedule.Append(&tracelog.VMMeta{VM: 1, Threads: 1, FinalGC: 2})
	set.Schedule.Append(&tracelog.Interval{Thread: 0, First: 0, Last: 1})
	set.Schedule.Append(&tracelog.Notify{GC: 99, Woken: []ids.ThreadNum{0}})
	rep := CheckSet(set)
	if !findingsContain(rep, "beyond final counter") {
		t.Errorf("out-of-range notify not detected: %v", rep.Findings)
	}
}

func TestCrossVMUnknownPeerDetected(t *testing.T) {
	s, c := recordWorld(t)
	// Check the server's world with the client's logs missing: its
	// ServerSocketEntries name VM 2, which is now unknown.
	rep := CheckWorld([]*tracelog.Set{s})
	if !findingsContain(rep, "unknown peer") {
		t.Errorf("missing peer not detected: %v", rep.Findings)
	}
	// And with both present it passes.
	if rep := CheckWorld([]*tracelog.Set{s, c}); !rep.OK() {
		t.Errorf("full world flagged: %v", rep.Findings)
	}
}

func TestCrossVMThreadRangeDetected(t *testing.T) {
	server := tracelog.NewSet()
	server.Schedule.Append(&tracelog.VMMeta{VM: 1, Threads: 1, FinalGC: 1})
	server.Schedule.Append(&tracelog.Interval{Thread: 0, First: 0, Last: 0})
	server.Network.Append(&tracelog.ServerSocketEntry{
		ServerID: ids.NetworkEventID{Thread: 0, Event: 0},
		ClientID: ids.ConnectionID{VM: 2, Thread: 40, Event: 0}, // client has 1 thread
	})
	client := tracelog.NewSet()
	client.Schedule.Append(&tracelog.VMMeta{VM: 2, Threads: 1, FinalGC: 1})
	client.Schedule.Append(&tracelog.Interval{Thread: 0, First: 0, Last: 0})

	rep := CheckWorld([]*tracelog.Set{server, client})
	if !findingsContain(rep, "created only") {
		t.Errorf("impossible client thread not detected: %v", rep.Findings)
	}
}

func TestCrossVMDatagramCounterDetected(t *testing.T) {
	rx := tracelog.NewSet()
	rx.Schedule.Append(&tracelog.VMMeta{VM: 1, Threads: 1, FinalGC: 1})
	rx.Schedule.Append(&tracelog.Interval{Thread: 0, First: 0, Last: 0})
	rx.Datagram.Append(&tracelog.DatagramRecvEntry{
		EventID:    ids.NetworkEventID{Thread: 0, Event: 0},
		ReceiverGC: 0,
		Datagram:   ids.DGNetworkEventID{VM: 2, GC: 500}, // sender only reached 10
	})
	tx := tracelog.NewSet()
	tx.Schedule.Append(&tracelog.VMMeta{VM: 2, Threads: 1, FinalGC: 10})
	tx.Schedule.Append(&tracelog.Interval{Thread: 0, First: 0, Last: 9})

	rep := CheckWorld([]*tracelog.Set{rx, tx})
	if !findingsContain(rep, "only reached") {
		t.Errorf("impossible datagram counter not detected: %v", rep.Findings)
	}
}

func TestDuplicateVMIDDetected(t *testing.T) {
	a := tracelog.NewSet()
	a.Schedule.Append(&tracelog.VMMeta{VM: 1, Threads: 1, FinalGC: 0})
	b := tracelog.NewSet()
	b.Schedule.Append(&tracelog.VMMeta{VM: 1, Threads: 1, FinalGC: 0})
	rep := CheckWorld([]*tracelog.Set{a, b})
	if !findingsContain(rep, "duplicate DJVM id") {
		t.Errorf("duplicate id not detected: %v", rep.Findings)
	}
}

// truncatedSet builds a synthetic checkpoint-truncated schedule: a base
// marker, optionally the anchor checkpoint at the base, and intervals
// covering exactly [base, FinalGC).
func truncatedSet(base ids.GCount, withAnchor bool) *tracelog.Set {
	set := tracelog.NewSet()
	set.Schedule.Append(&tracelog.VMMeta{VM: 1, Threads: 1, FinalGC: 20})
	set.Schedule.Append(&tracelog.TruncationEntry{BaseGC: base})
	if withAnchor {
		set.Schedule.Append(&tracelog.CheckpointEntry{GC: base, NextThread: 1, TakerThread: 0, MainEventNum: 3, State: []byte("s")})
	}
	set.Schedule.Append(&tracelog.Interval{Thread: 0, First: base, Last: 19})
	return set
}

func TestTruncatedSetPasses(t *testing.T) {
	if rep := CheckSet(truncatedSet(8, true)); !rep.OK() {
		t.Errorf("healthy truncated set flagged: %v", rep.Findings)
	}
}

func TestTruncatedSetMissingAnchorDetected(t *testing.T) {
	rep := CheckSet(truncatedSet(8, false))
	if !findingsContain(rep, "no checkpoint anchors") {
		t.Errorf("missing anchor not detected: %v", rep.Findings)
	}
}

func TestTruncatedSetBelowBaseDetected(t *testing.T) {
	set := truncatedSet(8, true)
	set.Schedule.Append(&tracelog.Notify{GC: 4, Woken: []ids.ThreadNum{0}})
	rep := CheckSet(set)
	if !findingsContain(rep, "below truncation base") {
		t.Errorf("below-base notify not detected: %v", rep.Findings)
	}
}

func TestTruncatedIntervalBelowBaseDetected(t *testing.T) {
	set := tracelog.NewSet()
	set.Schedule.Append(&tracelog.VMMeta{VM: 1, Threads: 1, FinalGC: 20})
	set.Schedule.Append(&tracelog.TruncationEntry{BaseGC: 8})
	set.Schedule.Append(&tracelog.CheckpointEntry{GC: 8, NextThread: 1, TakerThread: 0, MainEventNum: 3, State: []byte("s")})
	set.Schedule.Append(&tracelog.Interval{Thread: 0, First: 2, Last: 5}) // survived below the base
	set.Schedule.Append(&tracelog.Interval{Thread: 0, First: 8, Last: 19})
	rep := CheckSet(set)
	if !findingsContain(rep, "below truncation base") {
		t.Errorf("below-base interval not detected: %v", rep.Findings)
	}
}

func TestTruncatedDatagramBelowBaseDetected(t *testing.T) {
	set := truncatedSet(8, true)
	set.Datagram.Append(&tracelog.DatagramRecvEntry{
		EventID:    ids.NetworkEventID{Thread: 0, Event: 0},
		ReceiverGC: 3, // below base 8
		Datagram:   ids.DGNetworkEventID{VM: 2, GC: 1},
	})
	rep := CheckSet(set)
	if !findingsContain(rep, "below truncation base") {
		t.Errorf("below-base datagram not detected: %v", rep.Findings)
	}
}

// A WAL truncated by the real compaction path must salvage into a set the
// checker accepts: TruncationEntry present, anchor checkpoint retained,
// intervals starting exactly at the base.
func TestRealTruncatedWALPasses(t *testing.T) {
	vm, err := core.NewVM(core.Config{ID: 1, Mode: ids.Record})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trunc.wal")
	if err := vm.EnableWAL(path, tracelog.WALOptions{SyncEvery: 1}); err != nil {
		t.Fatal(err)
	}
	vm.Start(func(main *core.Thread) {
		var x core.SharedInt
		for r := 0; r < 4; r++ {
			for i := 0; i < 5; i++ {
				x.Set(main, x.Get(main)+1)
			}
			checkpoint.Take(main, func() []byte { return []byte("state") })
		}
	})
	vm.Wait()
	st, err := vm.TruncateWAL(2)
	if err != nil {
		t.Fatal(err)
	}
	if st.BaseGC == 0 {
		t.Fatal("truncation kept the whole log")
	}
	set, rep, err := tracelog.RecoverFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BaseGC != st.BaseGC {
		t.Fatalf("recovery reports base %d, truncation stamped %d", rep.BaseGC, st.BaseGC)
	}
	if chk := CheckSet(set); !chk.OK() {
		t.Errorf("real truncated WAL flagged: %v", chk.Findings)
	}
}

// groupEpochSet builds a healthy one-member schedule carrying two
// coordinated-checkpoint epochs (each stamp preceded by its anchor).
func groupEpochSet() *tracelog.Set {
	set := tracelog.NewSet()
	set.Schedule.Append(&tracelog.VMMeta{VM: 1, Threads: 1, FinalGC: 20})
	set.Schedule.Append(&tracelog.Interval{Thread: 0, First: 0, Last: 19})
	set.Schedule.Append(&tracelog.CheckpointEntry{GC: 5, NextThread: 1, State: []byte("s")})
	set.Schedule.Append(&tracelog.GroupEpochEntry{Epoch: 1, GC: 5, Members: []tracelog.GroupMember{{VM: 1, AnchorGC: 5}, {VM: 2, AnchorGC: 6}}})
	set.Schedule.Append(&tracelog.CheckpointEntry{GC: 12, NextThread: 1, State: []byte("s")})
	set.Schedule.Append(&tracelog.GroupEpochEntry{Epoch: 2, GC: 12, Members: []tracelog.GroupMember{{VM: 1, AnchorGC: 12}, {VM: 2, AnchorGC: 13}}})
	return set
}

func TestGroupEpochHealthySetPasses(t *testing.T) {
	if rep := CheckSet(groupEpochSet()); !rep.OK() {
		t.Errorf("healthy group-epoch set flagged: %v", rep.Findings)
	}
}

func TestGroupEpochNonMonotonicDetected(t *testing.T) {
	set := groupEpochSet()
	set.Schedule.Append(&tracelog.CheckpointEntry{GC: 15, NextThread: 1, State: []byte("s")})
	set.Schedule.Append(&tracelog.GroupEpochEntry{Epoch: 2, GC: 15, Members: []tracelog.GroupMember{{VM: 1, AnchorGC: 15}}})
	rep := CheckSet(set)
	if !findingsContain(rep, "not strictly increasing") {
		t.Errorf("repeated epoch id not detected: %v", rep.Findings)
	}
}

func TestGroupEpochMissingAnchorCheckpointDetected(t *testing.T) {
	set := tracelog.NewSet()
	set.Schedule.Append(&tracelog.VMMeta{VM: 1, Threads: 1, FinalGC: 20})
	set.Schedule.Append(&tracelog.Interval{Thread: 0, First: 0, Last: 19})
	set.Schedule.Append(&tracelog.GroupEpochEntry{Epoch: 1, GC: 5, Members: []tracelog.GroupMember{{VM: 1, AnchorGC: 5}}})
	rep := CheckSet(set)
	if !findingsContain(rep, "no checkpoint at that anchor") {
		t.Errorf("anchorless stamp not detected: %v", rep.Findings)
	}
}

func TestGroupEpochSelfAnchorMismatchDetected(t *testing.T) {
	set := tracelog.NewSet()
	set.Schedule.Append(&tracelog.VMMeta{VM: 1, Threads: 1, FinalGC: 20})
	set.Schedule.Append(&tracelog.Interval{Thread: 0, First: 0, Last: 19})
	set.Schedule.Append(&tracelog.CheckpointEntry{GC: 5, NextThread: 1, State: []byte("s")})
	set.Schedule.Append(&tracelog.GroupEpochEntry{Epoch: 1, GC: 5, Members: []tracelog.GroupMember{{VM: 1, AnchorGC: 7}}})
	rep := CheckSet(set)
	if !findingsContain(rep, "but was stamped at") {
		t.Errorf("self-anchor mismatch not detected: %v", rep.Findings)
	}

	set2 := tracelog.NewSet()
	set2.Schedule.Append(&tracelog.VMMeta{VM: 1, Threads: 1, FinalGC: 20})
	set2.Schedule.Append(&tracelog.Interval{Thread: 0, First: 0, Last: 19})
	set2.Schedule.Append(&tracelog.CheckpointEntry{GC: 5, NextThread: 1, State: []byte("s")})
	set2.Schedule.Append(&tracelog.GroupEpochEntry{Epoch: 1, GC: 5, Members: []tracelog.GroupMember{{VM: 2, AnchorGC: 5}}})
	if rep := CheckSet(set2); !findingsContain(rep, "omits the stamping VM") {
		t.Errorf("missing self member not detected: %v", rep.Findings)
	}
}

func TestGroupEpochBelowBaseDetected(t *testing.T) {
	set := truncatedSet(8, true)
	set.Schedule.Append(&tracelog.GroupEpochEntry{Epoch: 1, GC: 4, Members: []tracelog.GroupMember{{VM: 1, AnchorGC: 4}}})
	rep := CheckSet(set)
	if !findingsContain(rep, "below truncation base") {
		t.Errorf("below-base stamp not detected: %v", rep.Findings)
	}
}

func TestGroupEpochBeyondFinalDetected(t *testing.T) {
	set := groupEpochSet()
	set.Schedule.Append(&tracelog.CheckpointEntry{GC: 19, NextThread: 1, State: []byte("s")})
	set.Schedule.Append(&tracelog.GroupEpochEntry{Epoch: 3, GC: 99, Members: []tracelog.GroupMember{{VM: 1, AnchorGC: 99}}})
	rep := CheckSet(set)
	if !findingsContain(rep, "beyond final counter") {
		t.Errorf("beyond-final stamp not detected: %v", rep.Findings)
	}
}

func TestWorldGroupEpochMemberListMismatchDetected(t *testing.T) {
	a := tracelog.NewSet()
	a.Schedule.Append(&tracelog.VMMeta{VM: 1, Threads: 1, FinalGC: 20})
	a.Schedule.Append(&tracelog.Interval{Thread: 0, First: 0, Last: 19})
	a.Schedule.Append(&tracelog.CheckpointEntry{GC: 5, NextThread: 1, State: []byte("s")})
	a.Schedule.Append(&tracelog.GroupEpochEntry{Epoch: 1, GC: 5, Members: []tracelog.GroupMember{{VM: 1, AnchorGC: 5}, {VM: 2, AnchorGC: 6}}})
	b := tracelog.NewSet()
	b.Schedule.Append(&tracelog.VMMeta{VM: 2, Threads: 1, FinalGC: 20})
	b.Schedule.Append(&tracelog.Interval{Thread: 0, First: 0, Last: 19})
	b.Schedule.Append(&tracelog.CheckpointEntry{GC: 6, NextThread: 1, State: []byte("s")})
	b.Schedule.Append(&tracelog.GroupEpochEntry{Epoch: 1, GC: 6, Members: []tracelog.GroupMember{{VM: 1, AnchorGC: 5}, {VM: 2, AnchorGC: 7}}})
	rep := CheckWorld([]*tracelog.Set{a, b})
	if !findingsContain(rep, "member list disagrees") {
		t.Errorf("cross-set member-list mismatch not detected: %v", rep.Findings)
	}
	// Agreeing copies pass.
	b2 := tracelog.NewSet()
	b2.Schedule.Append(&tracelog.VMMeta{VM: 2, Threads: 1, FinalGC: 20})
	b2.Schedule.Append(&tracelog.Interval{Thread: 0, First: 0, Last: 19})
	b2.Schedule.Append(&tracelog.CheckpointEntry{GC: 6, NextThread: 1, State: []byte("s")})
	b2.Schedule.Append(&tracelog.GroupEpochEntry{Epoch: 1, GC: 6, Members: []tracelog.GroupMember{{VM: 1, AnchorGC: 5}, {VM: 2, AnchorGC: 6}}})
	if rep := CheckWorld([]*tracelog.Set{a, b2}); !rep.OK() {
		t.Errorf("agreeing world flagged: %v", rep.Findings)
	}
}

// Both kinds of open-write record — the FNV-1a one of logs recorded before
// PR 19 and the word-wide one of logs recorded since — belong in the network
// log and nowhere else, one per network event between them.
func TestOpenWriteKindsChecked(t *testing.T) {
	ev := func(e int) ids.NetworkEventID { return ids.NetworkEventID{Thread: 1, Event: ids.EventNum(e)} }
	for _, fnv := range []bool{false, true} {
		kind := (&tracelog.OpenWriteEntry{FNV: fnv}).Kind()

		ok := simpleSet(10)
		ok.Network.Append(&tracelog.OpenWriteEntry{EventID: ev(0), Len: 4, Sum: 1, FNV: fnv})
		ok.Network.Append(&tracelog.OpenWriteEntry{EventID: ev(1), Len: 4, Sum: 1, FNV: !fnv})
		if rep := CheckSet(ok); !rep.OK() {
			t.Errorf("%v in the network log: %v", kind, rep.Findings)
		}

		dup := simpleSet(10)
		dup.Network.Append(&tracelog.OpenWriteEntry{EventID: ev(0), Len: 4, Sum: 1, FNV: fnv})
		dup.Network.Append(&tracelog.OpenWriteEntry{EventID: ev(0), Len: 4, Sum: 1, FNV: !fnv})
		if rep := CheckSet(dup); !findingsContain(rep, "duplicate "+(&tracelog.OpenWriteEntry{FNV: !fnv}).Kind().String()+" entry") {
			t.Errorf("two open-write records for one event: %v", rep.Findings)
		}

		for name, misfile := range map[string]func(*tracelog.Set) *tracelog.Log{
			"schedule": func(s *tracelog.Set) *tracelog.Log { return s.Schedule },
			"datagram": func(s *tracelog.Set) *tracelog.Log { return s.Datagram },
		} {
			bad := simpleSet(10)
			misfile(bad).Append(&tracelog.OpenWriteEntry{EventID: ev(0), Len: 4, Sum: 1, FNV: fnv})
			if rep := CheckSet(bad); !findingsContain(rep, "unexpected "+kind.String()+" record in "+name+" log") {
				t.Errorf("%v in the %s log: %v", kind, name, rep.Findings)
			}
		}
	}
}

// Every network record kind but the server-socket entry is one record per
// event: a second one makes the network log unusable, whatever its kind,
// rather than leaving replay with whichever payload was logged last.
func TestDuplicateNetworkRecordDetected(t *testing.T) {
	ev := ids.NetworkEventID{Thread: 1, Event: 3}
	for _, c := range []struct {
		first, second tracelog.Entry
	}{
		{&tracelog.ReadEntry{EventID: ev, N: 5}, &tracelog.ReadEntry{EventID: ev, N: 6}},
		{&tracelog.BindEntry{EventID: ev, Port: 80}, &tracelog.BindEntry{EventID: ev, Port: 81}},
		{&tracelog.OpenConnectEntry{EventID: ev, RemoteHost: "alpha"}, &tracelog.OpenConnectEntry{EventID: ev, RemoteHost: "beta"}},
		{&tracelog.OpenAcceptEntry{EventID: ev, RemotePort: 1000}, &tracelog.OpenAcceptEntry{EventID: ev, RemotePort: 1001}},
		{&tracelog.OpenReadEntry{EventID: ev, Data: []byte("a")}, &tracelog.OpenReadEntry{EventID: ev, Data: []byte("b")}},
		{&tracelog.OpenDatagramEntry{EventID: ev, Data: []byte("a")}, &tracelog.OpenDatagramEntry{EventID: ev, Data: []byte("b")}},
		{&tracelog.EnvEntry{EventID: ev, Op: "clock", Value: 1}, &tracelog.EnvEntry{EventID: ev, Op: "clock", Value: 2}},
	} {
		kind := c.first.Kind().String()
		t.Run(kind, func(t *testing.T) {
			set := simpleSet(10)
			set.Network.Append(c.first)
			set.Network.Append(&tracelog.ReadEntry{EventID: ids.NetworkEventID{Thread: 0, Event: 9}, N: 1})
			set.Network.Append(c.second)
			if rep := CheckSet(set); !findingsContain(rep, "network log unusable: tracelog: duplicate "+kind+" entry for one network event") {
				t.Errorf("two %s records for %v: %v", kind, ev, rep.Findings)
			}
		})
	}
	set := simpleSet(10)
	set.Datagram.Append(&tracelog.DatagramRecvEntry{EventID: ev, ReceiverGC: 4})
	set.Datagram.Append(&tracelog.DatagramRecvEntry{EventID: ev, ReceiverGC: 5})
	if rep := CheckSet(set); !findingsContain(rep, "datagram log unusable: tracelog: duplicate datagram-recv entry") {
		t.Errorf("two datagram deliveries for %v: %v", ev, rep.Findings)
	}
}

// CheckSet lists a log's network findings in ⟨thread, event⟩ order within
// each record family, whatever order the records were logged in, so two
// checks of one log read the same.
func TestNetworkFindingsInEventOrder(t *testing.T) {
	set := simpleSet(10) // threads 0 and 1
	for _, ev := range []ids.NetworkEventID{{Thread: 9, Event: 2}, {Thread: 3, Event: 8}, {Thread: 9, Event: 0}, {Thread: 5, Event: 1}, {Thread: 3, Event: 1}} {
		set.Network.Append(&tracelog.ReadEntry{EventID: ev, N: 1})
	}
	for _, e := range []int{6, 2, 4, 0} {
		set.Network.Append(&tracelog.BindEntry{EventID: ids.NetworkEventID{Thread: 1, Event: ids.EventNum(e)}})
	}
	want := []string{
		"read record for unknown thread 3",
		"read record for unknown thread 3",
		"read record for unknown thread 5",
		"read record for unknown thread 9",
		"read record for unknown thread 9",
		"bind nev⟨t1,e0⟩ recorded port 0",
		"bind nev⟨t1,e2⟩ recorded port 0",
		"bind nev⟨t1,e4⟩ recorded port 0",
		"bind nev⟨t1,e6⟩ recorded port 0",
	}
	for run := range 2 {
		var got []string
		for _, f := range CheckSet(set).Findings {
			got = append(got, f.Msg)
		}
		if !slices.Equal(got, want) {
			t.Errorf("check %d listed\n%s\nwant\n%s", run, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}
