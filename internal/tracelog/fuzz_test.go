package tracelog

import (
	"testing"

	"repro/internal/ids"
)

// FuzzParse hardens the log decoder against arbitrary bytes: whatever the
// input, Parse must return cleanly (entries or an error), never panic, and
// parsing must be deterministic. Replay consumes logs that may have crossed
// machines and filesystems; the decoder is a trust boundary.
func FuzzParse(f *testing.F) {
	// Seed with a healthy multi-record log and characteristic corruptions.
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
	f.Add(healthy)

	// A sharded-order schedule exercising the per-object record kinds.
	sl := NewLog()
	sl.Append(&OrderModeEntry{Mode: ids.OrderSharded})
	sl.Append(&VMMeta{VM: 3, World: ids.ClosedWorld, Threads: 4, FinalGC: 0})
	sl.Append(&ObjRun{Obj: 0, Thread: 0, First: 0, Last: 12})
	sl.Append(&ObjRun{Obj: 1, Thread: 2, First: 0, Last: 3})
	sl.Append(&ObjNotify{Obj: 1, Seq: 2, Woken: []ids.ThreadNum{1, 3}})
	sl.Append(&ObjTimedWait{Obj: 1, Seq: 3, Check: true, TimedOut: false})
	sharded := sl.Bytes()
	f.Add(sharded)
	f.Add(sharded[:len(sharded)/2])

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
	f.Add(truncated)

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
	f.Add(group)
	f.Add(group[:len(group)-5])
	f.Add(truncated[:len(truncated)-3])
	f.Add(healthy[:len(healthy)/2])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff})
	mutated := append([]byte(nil), healthy...)
	mutated[0] ^= 0x55
	f.Add(mutated)

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
	})
}
