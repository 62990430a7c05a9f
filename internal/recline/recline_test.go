package recline

import (
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/tracelog"
)

// --- Coordinator ---------------------------------------------------------

// A full round: every member arrives, everyone observes the same epoch id and
// the same sorted line; a second round bumps the epoch.
func TestCoordinatorRounds(t *testing.T) {
	c := NewCoordinator(1, 2, 3)
	for round := 1; round <= 2; round++ {
		var wg sync.WaitGroup
		epochs := make([]uint64, 3)
		lines := make([][]tracelog.GroupMember, 3)
		for i := 0; i < 3; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				epochs[i], lines[i] = c.arrive(ids.DJVMID(i+1), ids.GCount(100*round+i))
			}()
		}
		wg.Wait()
		for i := 0; i < 3; i++ {
			if epochs[i] != uint64(round) {
				t.Fatalf("round %d: member %d saw epoch %d", round, i+1, epochs[i])
			}
			if len(lines[i]) != 3 {
				t.Fatalf("round %d: member %d saw %d-member line", round, i+1, len(lines[i]))
			}
			for j, m := range lines[i] {
				want := tracelog.GroupMember{VM: ids.DJVMID(j + 1), AnchorGC: ids.GCount(100*round + j)}
				if m != want {
					t.Fatalf("round %d: member %d line[%d] = %+v, want %+v", round, i+1, j, m, want)
				}
			}
		}
	}
	if got := c.Epochs(); got != 2 {
		t.Fatalf("Epochs() = %d, want 2", got)
	}
}

// Removing a dead member completes the round its survivors are parked in, and
// the completed line names only the survivors.
func TestCoordinatorRemoveCompletesParkedRound(t *testing.T) {
	c := NewCoordinator(1, 2, 3)
	type res struct {
		epoch uint64
		line  []tracelog.GroupMember
	}
	done := make(chan res, 2)
	for i := 0; i < 2; i++ {
		i := i
		go func() {
			e, l := c.arrive(ids.DJVMID(i+1), ids.GCount(50+i))
			done <- res{e, l}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(c.Waiting()) < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("survivors never parked: waiting=%v", c.Waiting())
		}
		time.Sleep(time.Millisecond)
	}
	c.Remove(3) // member 3 crashed without arriving
	for i := 0; i < 2; i++ {
		r := <-done
		if r.epoch != 1 {
			t.Fatalf("epoch = %d, want 1", r.epoch)
		}
		if len(r.line) != 2 || r.line[0].VM != 1 || r.line[1].VM != 2 {
			t.Fatalf("line = %+v, want survivors {1,2}", r.line)
		}
	}
	if w := c.Waiting(); len(w) != 0 {
		t.Fatalf("members still parked after release: %v", w)
	}
	// The next round no longer waits for the removed member.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if e, _ := c.arrive(ids.DJVMID(i+1), ids.GCount(80+i)); e != 2 {
				t.Errorf("post-remove round: epoch %d, want 2", e)
			}
		}()
	}
	wg.Wait()
}

// --- Solver --------------------------------------------------------------

// synthSet builds one member's in-memory log set: identity meta first, then
// the given schedule and datagram records.
func synthSet(vm ids.DJVMID, sched, dg []tracelog.Entry) *tracelog.Set {
	s := tracelog.NewSet()
	s.Schedule.Append(&tracelog.VMMeta{VM: vm, World: ids.OpenWorld, Threads: 1, FinalGC: 1000})
	for _, e := range sched {
		s.Schedule.Append(e)
	}
	for _, e := range dg {
		s.Datagram.Append(e)
	}
	return s
}

// epochSched is one member's checkpoint + stamp pair for an epoch.
func epochSched(epoch uint64, anchor ids.GCount, members []tracelog.GroupMember) []tracelog.Entry {
	return []tracelog.Entry{
		&tracelog.CheckpointEntry{GC: anchor},
		&tracelog.GroupEpochEntry{Epoch: epoch, GC: anchor, Members: members},
	}
}

var (
	line1 = []tracelog.GroupMember{{VM: 1, AnchorGC: 90}, {VM: 2, AnchorGC: 95}, {VM: 3, AnchorGC: 92}}
	line2 = []tracelog.GroupMember{{VM: 1, AnchorGC: 180}, {VM: 2, AnchorGC: 185}, {VM: 3, AnchorGC: 182}}
)

// fullMember builds member vm's schedule carrying both epochs complete.
func fullMember(vm ids.DJVMID) []tracelog.Entry {
	anchor := func(l []tracelog.GroupMember) ids.GCount {
		for _, m := range l {
			if m.VM == vm {
				return m.AnchorGC
			}
		}
		return 0
	}
	return append(epochSched(1, anchor(line1), line1), epochSched(2, anchor(line2), line2)...)
}

func TestSolveLatestCompleteLine(t *testing.T) {
	sol, err := Solve([]*tracelog.Set{
		synthSet(1, fullMember(1), nil),
		synthSet(2, fullMember(2), nil),
		synthSet(3, fullMember(3), nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Line == nil || sol.Line.Epoch != 2 {
		t.Fatalf("line = %+v, want epoch 2", sol.Line)
	}
	for _, m := range line2 {
		if sol.Line.Anchors[m.VM] != m.AnchorGC {
			t.Fatalf("anchor[%d] = %d, want %d", m.VM, sol.Line.Anchors[m.VM], m.AnchorGC)
		}
	}
	if sol.Fallbacks() != 0 {
		t.Fatalf("fallbacks = %d, want 0 (candidates %+v)", sol.Fallbacks(), sol.Candidates)
	}
	if !sol.Candidates[0].Chosen {
		t.Fatalf("newest candidate not chosen: %+v", sol.Candidates)
	}
}

// A member whose epoch-2 stamp (or anchor checkpoint) was lost demotes epoch 2;
// the solver settles on the previous complete line.
func TestSolveAnchorLostFallsBack(t *testing.T) {
	cases := []struct {
		name string
		m3   []tracelog.Entry
	}{
		{
			// Stamp lost: the checkpoint at 182 survived but the epoch record
			// behind it did not.
			name: "stamp lost",
			m3: append(epochSched(1, 92, line1),
				&tracelog.CheckpointEntry{GC: 182}),
		},
		{
			// Anchor lost: the stamp survived but the checkpoint it anchors
			// did not (an impossible WAL order, but the solver must not trust
			// order).
			name: "checkpoint lost",
			m3: append(epochSched(1, 92, line1),
				&tracelog.GroupEpochEntry{Epoch: 2, GC: 182, Members: line2}),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sets := []*tracelog.Set{
				synthSet(1, fullMember(1), nil),
				synthSet(2, fullMember(2), nil),
				synthSet(3, tc.m3, nil),
			}
			sol, err := Solve(sets)
			if err != nil {
				t.Fatal(err)
			}
			if sol.Line == nil || sol.Line.Epoch != 1 {
				t.Fatalf("line = %+v, want fallback to epoch 1", sol.Line)
			}
			if sol.Fallbacks() != 1 {
				t.Fatalf("fallbacks = %d, want 1", sol.Fallbacks())
			}
			c := sol.Candidates[0]
			if c.Epoch != 2 || !strings.Contains(c.Rejected, "anchor lost") {
				t.Fatalf("candidate = %+v, want epoch 2 rejected for a lost anchor", c)
			}
			if len(c.Missing) != 1 || c.Missing[0] != 3 {
				t.Fatalf("missing = %v, want [3]", c.Missing)
			}
		})
	}
}

// A member whose log is wholly absent demotes every epoch that lists it — no
// complete line survives and recovery degrades to per-member restarts.
func TestSolveAbsentMemberDemotesAllitsEpochs(t *testing.T) {
	sol, err := Solve([]*tracelog.Set{
		synthSet(1, fullMember(1), nil),
		synthSet(2, fullMember(2), nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Line != nil {
		t.Fatalf("line = %+v, want none (member 3 absent from both epochs)", sol.Line)
	}
	if sol.Fallbacks() != 2 {
		t.Fatalf("fallbacks = %d, want 2 (candidates %+v)", sol.Fallbacks(), sol.Candidates)
	}
	for _, c := range sol.Candidates {
		if len(c.Missing) != 1 || c.Missing[0] != 3 {
			t.Fatalf("candidate %+v, want missing [3]", c)
		}
	}
}

// Stamps for the same epoch that disagree about the membership demote it.
func TestSolveMemberListMismatch(t *testing.T) {
	other := []tracelog.GroupMember{{VM: 1, AnchorGC: 90}, {VM: 2, AnchorGC: 96}}
	sol, err := Solve([]*tracelog.Set{
		synthSet(1, epochSched(1, 90, line1[:2]), nil),
		synthSet(2, epochSched(1, 95, other), nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Line != nil {
		t.Fatalf("line = %+v, want none", sol.Line)
	}
	if len(sol.Candidates) != 1 || !strings.Contains(sol.Candidates[0].Rejected, "disagree") {
		t.Fatalf("candidates = %+v, want a member-list disagreement", sol.Candidates)
	}
}

// dgMsg records one cross-VM datagram in the receiver's log.
func dgMsg(ev ids.EventNum, sender ids.DJVMID, senderGC, recvGC ids.GCount) tracelog.Entry {
	return &tracelog.DatagramRecvEntry{
		EventID:    ids.NetworkEventID{Thread: 1, Event: ev},
		ReceiverGC: recvGC,
		Datagram:   ids.DGNetworkEventID{VM: sender, GC: senderGC},
	}
}

// Messages classify against the chosen line: sent and received before it are
// stable, sent before and received after are in-flight.
func TestSolveClassifiesMessages(t *testing.T) {
	sol, err := Solve([]*tracelog.Set{
		synthSet(1, fullMember(1), nil),
		synthSet(2, fullMember(2), []tracelog.Entry{
			dgMsg(1, 1, 100, 120), // stable under epoch 2
			dgMsg(2, 1, 170, 200), // in-flight: sent ≤180, received >185
		}),
		synthSet(3, fullMember(3), nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Line == nil || sol.Line.Epoch != 2 {
		t.Fatalf("line = %+v, want epoch 2", sol.Line)
	}
	if sol.Stable != 1 || sol.InFlight != 1 || sol.Post != 0 {
		t.Fatalf("classes stable=%d inflight=%d post=%d, want 1/1/0 (%+v)",
			sol.Stable, sol.InFlight, sol.Post, sol.Messages)
	}
}

// An orphaned message — received before the line but sent after it — rejects
// the epoch even though every anchor survived.
func TestSolveOrphanRejectsEpoch(t *testing.T) {
	sol, err := Solve([]*tracelog.Set{
		synthSet(1, fullMember(1), nil),
		synthSet(2, fullMember(2), nil),
		// Member 3 received at 150 (≤182) a datagram member 2 sent at 190
		// (>185): member 3's epoch-2 checkpoint depends on state member 2
		// would roll back.
		synthSet(3, fullMember(3), []tracelog.Entry{
			dgMsg(1, 2, 190, 150),
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Line == nil || sol.Line.Epoch != 1 {
		t.Fatalf("line = %+v, want fallback to epoch 1", sol.Line)
	}
	c := sol.Candidates[0]
	if c.Epoch != 2 || c.Orphans != 1 || !strings.Contains(c.Rejected, "orphan") {
		t.Fatalf("candidate = %+v, want epoch 2 rejected for 1 orphan", c)
	}
	// Under epoch 1 the same message is post-line on both ends.
	if sol.Post != 1 || sol.Stable != 0 || sol.InFlight != 0 {
		t.Fatalf("classes stable=%d inflight=%d post=%d, want 0/0/1", sol.Stable, sol.InFlight, sol.Post)
	}
}

// withNet appends stream net-spans to a member's network log.
func withNet(s *tracelog.Set, spans ...tracelog.Entry) *tracelog.Set {
	for _, e := range spans {
		s.Network.Append(e)
	}
	return s
}

// netSpan is one write or read of n stream bytes at offset off of conn, the
// event ev of thread 1 at counter gc.
func netSpan(ev ids.EventNum, op uint8, conn ids.ConnectionID, off uint64, n uint32, gc ids.GCount) tracelog.Entry {
	return &tracelog.NetSpanEntry{
		EventID: ids.NetworkEventID{Thread: 1, Event: ev}, GC: gc,
		Op: op, Conn: conn, Offset: off, Len: n,
	}
}

// Stream bytes are messages too: a write member 2 sent after its epoch-2
// anchor (190 > 185) that member 3 read before its own (150 ≤ 182) orphans
// epoch 2, exactly like a datagram would.
func TestSolveStreamOrphanRejectsEpoch(t *testing.T) {
	conn := ids.ConnectionID{VM: 3, Thread: 1, Event: 1}
	sol, err := Solve([]*tracelog.Set{
		synthSet(1, fullMember(1), nil),
		withNet(synthSet(2, fullMember(2), nil),
			netSpan(4, tracelog.NetOpWrite, conn, 0, 8, 190)),
		withNet(synthSet(3, fullMember(3), nil),
			netSpan(2, tracelog.NetOpRead, conn, 0, 8, 150)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Line == nil || sol.Line.Epoch != 1 {
		t.Fatalf("line = %+v, want fallback to epoch 1", sol.Line)
	}
	c := sol.Candidates[0]
	if c.Epoch != 2 || c.Orphans != 1 || !strings.Contains(c.Rejected, "orphan") {
		t.Fatalf("candidate = %+v, want epoch 2 rejected for 1 orphan", c)
	}
	want := Message{tracelog.Message{Kind: tracelog.MsgStream, From: tracelog.End{VM: 2, GC: 190}, To: tracelog.End{VM: 3, GC: 150}}, ClassPost}
	if len(sol.Messages) != 1 || sol.Messages[0] != want {
		t.Fatalf("messages = %+v, want the one stream write, post-line under epoch 1", sol.Messages)
	}
}

// Solution.Messages lists stream writes by writer VM, then connection id, then
// offset, and the datagrams after them, whatever the order of the sets. Member
// 1 holds two connections to member 2 that differ only in the connect's event,
// and wrote on the later one first.
func TestSolveMessagesInOrder(t *testing.T) {
	early := ids.ConnectionID{VM: 1, Thread: 1, Event: 2}
	late := ids.ConnectionID{VM: 1, Thread: 1, Event: 5}
	sets := []*tracelog.Set{
		withNet(synthSet(1, fullMember(1), nil),
			netSpan(10, tracelog.NetOpWrite, late, 0, 4, 100),
			netSpan(11, tracelog.NetOpWrite, late, 4, 4, 101),
			netSpan(12, tracelog.NetOpWrite, early, 0, 4, 102),
			netSpan(13, tracelog.NetOpWrite, early, 4, 4, 103)),
		withNet(synthSet(2, fullMember(2), []tracelog.Entry{dgMsg(1, 3, 105, 106)}),
			netSpan(20, tracelog.NetOpRead, early, 0, 8, 110),
			netSpan(21, tracelog.NetOpRead, late, 0, 8, 111)),
		synthSet(3, fullMember(3), nil),
	}
	msg := func(kind tracelog.MessageKind, from, fromGC, to, toGC int) Message {
		return Message{tracelog.Message{
			Kind: kind,
			From: tracelog.End{VM: ids.DJVMID(from), GC: ids.GCount(fromGC)},
			To:   tracelog.End{VM: ids.DJVMID(to), GC: ids.GCount(toGC)},
		}, ClassStable}
	}
	want := []Message{
		msg(tracelog.MsgStream, 1, 102, 2, 110),
		msg(tracelog.MsgStream, 1, 103, 2, 110),
		msg(tracelog.MsgStream, 1, 100, 2, 111),
		msg(tracelog.MsgStream, 1, 101, 2, 111),
		msg(tracelog.MsgDatagram, 3, 105, 2, 106),
	}
	rng := rand.New(rand.NewPCG(3, 4))
	for i := range 20 {
		rng.Shuffle(len(sets), func(a, b int) { sets[a], sets[b] = sets[b], sets[a] })
		sol, err := Solve(sets)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(sol.Messages, want) {
			t.Fatalf("solve %d: messages = %+v, want %+v", i, sol.Messages, want)
		}
	}
}

// --- Torn-anchor fallback through real WALs ------------------------------

// A crash that tears a member's WAL mid-frame loses its latest epoch stamp;
// salvage plus solve must fall back to the previous complete line — the
// end-to-end durability contract of the coordinated checkpoint protocol.
func TestTornEpochAnchorFallsBackThroughWAL(t *testing.T) {
	dir := t.TempDir()
	pair1 := []tracelog.GroupMember{{VM: 1, AnchorGC: 90}, {VM: 2, AnchorGC: 95}}
	pair2 := []tracelog.GroupMember{{VM: 1, AnchorGC: 180}, {VM: 2, AnchorGC: 185}}
	build := func(name string, vm ids.DJVMID, a1, a2 ids.GCount) string {
		path := filepath.Join(dir, name)
		s := tracelog.NewSet()
		w, err := tracelog.CreateWAL(path, tracelog.WALOptions{SyncEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AttachWAL(w); err != nil {
			t.Fatal(err)
		}
		s.Schedule.Append(&tracelog.VMMeta{VM: vm, World: ids.OpenWorld}) // identity header
		s.Schedule.Append(&tracelog.Interval{Thread: 0, First: 0, Last: 250})
		s.Schedule.Append(&tracelog.CheckpointEntry{GC: a1})
		s.Schedule.Append(&tracelog.GroupEpochEntry{Epoch: 1, GC: a1, Members: pair1})
		s.Schedule.Append(&tracelog.CheckpointEntry{GC: a2})
		s.Schedule.Append(&tracelog.GroupEpochEntry{Epoch: 2, GC: a2, Members: pair2})
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	p1 := build("m1.wal", 1, 90, 180)
	p2 := build("m2.wal", 2, 95, 185)

	// Tear member 2's WAL five bytes into its final frame — the epoch-2 stamp.
	fi, err := os.Stat(p2)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(p2, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	s1, _, err := tracelog.RecoverFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	s2, rep2, err := tracelog.RecoverFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Truncated {
		t.Fatalf("member 2's salvage did not report the torn tail: %+v", rep2)
	}

	sol, err := Solve([]*tracelog.Set{s1, s2})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Line == nil || sol.Line.Epoch != 1 {
		t.Fatalf("line = %+v, want fallback to epoch 1", sol.Line)
	}
	if got := sol.Line.Anchors; got[1] != 90 || got[2] != 95 {
		t.Fatalf("anchors = %v, want {1:90 2:95}", got)
	}
	if sol.Fallbacks() != 1 {
		t.Fatalf("fallbacks = %d, want 1 (candidates %+v)", sol.Fallbacks(), sol.Candidates)
	}
	c := sol.Candidates[0]
	if c.Epoch != 2 || len(c.Missing) != 1 || c.Missing[0] != 2 {
		t.Fatalf("candidate = %+v, want epoch 2 missing member 2", c)
	}
}

// --- Coordinated rounds on real VMs --------------------------------------

// Two recording VMs run three checkpoint rounds through one coordinator; the
// solve over their logs picks the last epoch, anchored on both members, with
// nothing demoted.
func TestCoordinatedRoundsSolveToTheLastEpoch(t *testing.T) {
	coord := NewCoordinator(1, 2)
	var vms []*core.VM
	for id := ids.DJVMID(1); id <= 2; id++ {
		vm, err := core.NewVM(core.Config{ID: id, Mode: ids.Record})
		if err != nil {
			t.Fatal(err)
		}
		vms = append(vms, vm)
	}
	for _, vm := range vms {
		vm.Start(func(main *core.Thread) {
			var x core.SharedInt
			for r := 0; r < 3; r++ {
				for i := 0; i < 5; i++ {
					x.Set(main, x.Get(main)+1)
				}
				coord.Checkpoint(main, func() []byte { return []byte("state") })
			}
		})
	}
	for _, vm := range vms {
		vm.Wait()
		vm.Close()
	}
	if got := coord.Epochs(); got != 3 {
		t.Fatalf("completed epochs = %d, want 3", got)
	}

	sol, err := Solve([]*tracelog.Set{vms[0].Logs(), vms[1].Logs()})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Line == nil || sol.Line.Epoch != 3 {
		t.Fatalf("line = %+v, want epoch 3 (candidates %+v)", sol.Line, sol.Candidates)
	}
	if len(sol.Line.Anchors) != 2 {
		t.Fatalf("line anchors %v, want both members", sol.Line.Anchors)
	}
	if sol.Fallbacks() != 0 {
		t.Fatalf("clean run demoted %d epochs: %+v", sol.Fallbacks(), sol.Candidates)
	}
}
