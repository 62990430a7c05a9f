package logcheck

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/tracelog"
)

// FuzzCheckSet hardens the log validator against arbitrary schedule bytes.
// The explorer feeds CheckSet synthesized schedules (tracelog.ComposeSchedule
// output) before replaying them, so the seed corpus leans on composed logs:
// a preemption-heavy global order, a sharded order with interleaved object
// runs, a global order with a notify logged twice, and mutated/truncated
// variants of each. Whatever the input, CheckSet
// must return a report (possibly full of findings), never panic, and must be
// deterministic.
func FuzzCheckSet(f *testing.F) {
	meta := tracelog.VMMeta{VM: 1, World: ids.ClosedWorld, Threads: 3}

	// A composed global schedule with preemptions on every other step — the
	// shape the explorer's bounded-preemption search emits.
	preempted := tracelog.ComposeSchedule(meta, ids.OrderGlobal, 0,
		[][]ids.ThreadNum{{0, 1, 0, 2, 1, 0, 2, 1, 0}}, nil)
	f.Add(preempted.Bytes())

	// A composed sharded schedule: short global order (network/thread events)
	// plus interleaved access runs on two objects' streams.
	sharded := tracelog.ComposeSchedule(meta, ids.OrderSharded, 0,
		[][]ids.ThreadNum{{0, 0, 1, 2, 0}, {1, 2, 1, 1, 2}, {2, 2, 1}}, nil)
	f.Add(sharded.Bytes())

	// A composed schedule resuming from a checkpoint base, with extras the
	// composer passes through verbatim.
	truncated := tracelog.ComposeSchedule(meta, ids.OrderGlobal, 40,
		[][]ids.ThreadNum{{1, 1, 2, 0}},
		[]tracelog.Entry{&tracelog.Notify{GC: 41, Woken: []ids.ThreadNum{2}}})
	f.Add(truncated.Bytes())

	// Two notify records for one event: the index rejects the second, which
	// the checker reports as an unusable schedule.
	dupNotify := tracelog.ComposeSchedule(meta, ids.OrderGlobal, 0,
		[][]ids.ThreadNum{{0, 1, 2}},
		[]tracelog.Entry{
			&tracelog.Notify{GC: 1, Woken: []ids.ThreadNum{2}},
			&tracelog.Notify{GC: 1, Woken: []ids.ThreadNum{0}},
		})
	f.Add(dupNotify.Bytes())

	// A schedule into which an open-write record of each kind has strayed:
	// the checker must report them, not trip over them.
	ev := ids.NetworkEventID{Thread: 1, Event: 0}
	strayed := tracelog.ComposeSchedule(meta, ids.OrderGlobal, 0,
		[][]ids.ThreadNum{{0, 1, 2}},
		[]tracelog.Entry{
			&tracelog.OpenWriteEntry{EventID: ev, Len: 5, Sum: tracelog.WideSum([]byte("reply"))},
			&tracelog.OpenWriteEntry{EventID: ev, Len: 5, Sum: 0x5d7a5c1d8e2a31c3, FNV: true},
		})
	f.Add(strayed.Bytes())

	// Characteristic corruptions: truncations and bit flips of the composed
	// logs, plus degenerate inputs.
	pb := preempted.Bytes()
	f.Add(pb[:len(pb)/2])
	sb := sharded.Bytes()
	f.Add(sb[:len(sb)-3])
	mut := append([]byte(nil), pb...)
	mut[len(mut)/2] ^= 0x41
	f.Add(mut)
	f.Add([]byte{})
	f.Add([]byte{0x07, 0x00, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Logs reach the checker through the decoder; inputs the decoder
		// rejects never make it to CheckSet.
		entries, err := tracelog.Parse(data)
		if err != nil {
			return
		}
		lg := tracelog.NewLog()
		for _, e := range entries {
			lg.Append(e)
		}
		set := tracelog.NewSet()
		set.Schedule = lg
		rep := CheckSet(set)
		if rep == nil {
			t.Fatal("CheckSet returned nil report")
		}
		rep2 := CheckSet(set)
		if rep2 == nil || (rep.OK() != rep2.OK()) || len(rep.Findings) != len(rep2.Findings) {
			t.Fatal("CheckSet is not deterministic")
		}
	})
}

// healthyWAL writes a cleanly closed WAL at path whose schedule frames carry
// every global-mode schedule kind: the identity header, a chaos plan,
// intervals, a notify, a timed wait, timestamps, checkpoints with their group
// epoch stamps, a truncation marker (the file is compacted at the first
// checkpoint mid-way), an open-interval note, and the final vm-meta — next to
// closed- and open-world network frames (an open write of either kind among
// them) and a datagram delivery.
func healthyWAL(t testing.TB, path string) []byte {
	t.Helper()
	w, err := tracelog.CreateWAL(path, tracelog.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := tracelog.NewSet()
	if err := s.AttachWAL(w); err != nil {
		t.Fatal(err)
	}
	ev := func(th, e int) ids.NetworkEventID {
		return ids.NetworkEventID{Thread: ids.ThreadNum(th), Event: ids.EventNum(e)}
	}
	epoch := func(n uint64, gc ids.GCount) *tracelog.GroupEpochEntry {
		return &tracelog.GroupEpochEntry{Epoch: n, GC: gc, Members: []tracelog.GroupMember{{VM: 7, AnchorGC: gc}, {VM: 8, AnchorGC: gc + 3}}}
	}
	s.Schedule.Append(&tracelog.VMMeta{VM: 7, World: ids.MixedWorld})
	s.Schedule.Append(&tracelog.ChaosPlanEntry{Seed: 9, Spec: []byte{1, 2, 3}})
	s.Schedule.Append(&tracelog.TimestampEntry{GC: 0, Wall: 1000})
	s.Network.Append(&tracelog.BindEntry{EventID: ev(0, 0), Port: 9000})
	s.Schedule.Append(&tracelog.Interval{Thread: 0, First: 0, Last: 4})
	s.Schedule.Append(&tracelog.CheckpointEntry{GC: 4, NextThread: 1, TakerThread: 0, MainEventNum: 1, State: []byte("s1")})
	s.Schedule.Append(epoch(1, 4))
	if _, err := s.TruncateWAL(1); err != nil {
		t.Fatal(err)
	}
	s.Schedule.Append(&tracelog.Interval{Thread: 1, First: 5, Last: 5})
	s.Network.Append(&tracelog.OpenReadEntry{EventID: ev(0, 1), Data: []byte("request")})
	s.Network.Append(&tracelog.OpenWriteEntry{EventID: ev(0, 2), Len: 5, Sum: tracelog.WideSum([]byte("reply"))})
	s.Network.Append(&tracelog.OpenWriteEntry{EventID: ev(0, 3), Len: 5, Sum: 0x5d7a5c1d8e2a31c3, FNV: true})
	s.Schedule.Append(&tracelog.Notify{GC: 6, Woken: []ids.ThreadNum{1}})
	s.Schedule.Append(&tracelog.OpenInterval{Thread: 0, First: 6, Last: 6})
	s.Schedule.Append(&tracelog.Interval{Thread: 0, First: 6, Last: 7})
	s.Schedule.Append(&tracelog.TimedWaitEntry{GC: 8, Check: true, TimedOut: true})
	s.Datagram.Append(&tracelog.DatagramRecvEntry{EventID: ev(1, 0), ReceiverGC: 9, Datagram: ids.DGNetworkEventID{VM: 8, GC: 41}})
	s.Schedule.Append(&tracelog.Interval{Thread: 1, First: 8, Last: 10})
	s.Schedule.Append(&tracelog.CheckpointEntry{GC: 11, NextThread: 2, TakerThread: 0, MainEventNum: 2, State: []byte("s2")})
	s.Schedule.Append(epoch(2, 11))
	s.Schedule.Append(&tracelog.Interval{Thread: 0, First: 11, Last: 13})
	s.Schedule.Append(&tracelog.TimestampEntry{GC: 14, Wall: 2000})
	s.Schedule.Append(&tracelog.VMMeta{VM: 7, World: ids.MixedWorld, Threads: 2, FinalGC: 14})
	if err := s.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// recoverAndCheck is the salvage pipeline's end-to-end promise, run on one
// WAL image: RecoverFile returns cleanly whatever the bytes, and a salvage
// that logcheck passes is one replay accepts — the three indexes build and a
// StopAtLogEnd replay VM (resumed at the latest checkpoint when the stream
// was truncated) takes the set.
func recoverAndCheck(t *testing.T, wal []byte) (rep *tracelog.RecoveryReport, usable bool) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "node.wal")
	if err := os.WriteFile(path, wal, 0o644); err != nil {
		t.Fatal(err)
	}
	set, rep, err := tracelog.RecoverFile(path)
	if err != nil || !CheckSet(set).OK() {
		return rep, false
	}
	sched, err := tracelog.BuildScheduleIndex(set.Schedule)
	if err != nil {
		t.Fatalf("logcheck passed a set whose schedule does not index: %v", err)
	}
	cfg := core.Config{ID: rep.VM, World: rep.World, OrderMode: sched.OrderMode, StopAtLogEnd: true}
	cfg.Mode, cfg.ReplayLogs = ids.Replay, set
	if rep.BaseGC > 0 {
		snap, err := checkpoint.Latest(set)
		if err != nil {
			t.Fatalf("logcheck passed a truncated set with no checkpoint to resume from: %v", err)
		}
		cfg = checkpoint.ResumeConfig(cfg, set, snap)
	}
	vm, err := core.NewVM(cfg)
	if err != nil {
		t.Fatalf("logcheck passed a salvage that replay refuses: %v\nreport: %+v", err, rep)
	}
	vm.Close()
	return rep, true
}

// FuzzRecoverFile throws arbitrary bytes at crash recovery. A WAL is read
// back after a crash, from a disk that may have torn or corrupted it, so the
// scan is a trust boundary: no panic, no hang, and never a salvage that
// passes logcheck and then cannot be replayed.
func FuzzRecoverFile(f *testing.F) {
	healthy := healthyWAL(f, filepath.Join(f.TempDir(), "seed.wal"))
	f.Add(healthy)
	f.Add(healthy[:len(healthy)-20]) // cut mid-frame: the final vm-meta is torn
	f.Add(healthy[:len(healthy)/2])
	f.Add([]byte(tracelog.WALMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, wal []byte) {
		recoverAndCheck(t, wal)
	})
}

// One flipped bit in a frame's log-id byte — which the frame checksum does
// not cover — must cost the salvage its tail like any other frame damage, not
// its usability: the scan stops at the misfiled frame and what it keeps
// passes logcheck and replays.
func TestRecoverFlippedLogIDStaysUsable(t *testing.T) {
	healthy := healthyWAL(t, filepath.Join(t.TempDir(), "seed.wal"))
	if rep, usable := recoverAndCheck(t, healthy); !usable || rep.Truncated || !rep.Clean {
		t.Fatalf("healthy WAL: usable=%v report %+v", usable, rep)
	}
	// Walk the frames ([id][len u32le][crc u32le][payload]) and flip the id of
	// each in turn, in its own copy of the file.
	frame := 0
	for off := len(tracelog.WALMagic); off < len(healthy); frame++ {
		plen := int(binary.LittleEndian.Uint32(healthy[off+1:]))
		if frame < 5 {
			// The compacted head (identity header, truncation marker, chaos
			// plan, clipped interval, anchor checkpoint): a truncated stream
			// that lost its anchor is rightly unusable.
			off += 9 + plen
			continue
		}
		damaged := append([]byte(nil), healthy...)
		damaged[off] ^= 1
		rep, usable := recoverAndCheck(t, damaged)
		switch {
		case rep == nil || !rep.Truncated || rep.Frames != frame || rep.GoodBytes != int64(off):
			t.Errorf("frame %d: scan did not stop at the misfiled frame: %+v", frame, rep)
		case !strings.Contains(rep.Reason, " record in ") && !strings.Contains(rep.Reason, "invalid log id"):
			t.Errorf("frame %d: Reason %q names neither the misfiled kind and log nor an invalid id", frame, rep.Reason)
		case !usable:
			t.Errorf("frame %d: the prefix before the misfiled frame is not usable: %+v", frame, rep)
		}
		off += 9 + plen
	}
	if frame < 15 {
		t.Fatalf("walked only %d frames", frame)
	}
}
