package tracelog

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/ids"
)

// buildCheckpointedWAL records a single-thread run with two checkpoints and
// an embedded chaos plan through a WAL-attached set, leaving the file without
// a final vm-meta (as a live or crashed recording would).
func buildCheckpointedWAL(t testing.TB, path string) *Set {
	t.Helper()
	w, err := CreateWAL(path, WALOptions{SyncEvery: 1})
	if err != nil {
		t.Fatalf("CreateWAL: %v", err)
	}
	s := NewSet()
	if err := s.AttachWAL(w); err != nil {
		t.Fatalf("AttachWAL: %v", err)
	}
	s.Schedule.Append(&VMMeta{VM: 7, World: ids.OpenWorld})
	s.Schedule.Append(&ChaosPlanEntry{Seed: 9, Spec: []byte{1, 2, 3}})
	s.Schedule.Append(&Notify{GC: 1, Woken: []ids.ThreadNum{0}})
	s.Schedule.Append(&Interval{Thread: 0, First: 0, Last: 3})
	s.Network.Append(&ReadEntry{EventID: ids.NetworkEventID{Thread: 0, Event: 0}, N: 16})
	s.Schedule.Append(&CheckpointEntry{GC: 2, NextThread: 1, TakerThread: 0, MainEventNum: 1, State: []byte("s1")})
	s.Network.Append(&ReadEntry{EventID: ids.NetworkEventID{Thread: 0, Event: 1}, N: 32})
	s.Schedule.Append(&Interval{Thread: 0, First: 4, Last: 9})
	s.Schedule.Append(&CheckpointEntry{GC: 6, NextThread: 1, TakerThread: 0, MainEventNum: 2, State: []byte("s2")})
	s.Network.Append(&ReadEntry{EventID: ids.NetworkEventID{Thread: 0, Event: 2}, N: 64})
	s.Datagram.Append(&DatagramRecvEntry{
		EventID:    ids.NetworkEventID{Thread: 0, Event: 0},
		ReceiverGC: 1,
		Datagram:   ids.DGNetworkEventID{VM: 3, GC: 11},
	})
	s.Datagram.Append(&DatagramRecvEntry{
		EventID:    ids.NetworkEventID{Thread: 0, Event: 1},
		ReceiverGC: 8,
		Datagram:   ids.DGNetworkEventID{VM: 3, GC: 12},
	})
	return s
}

func TestTruncateWALAnchorsLatestCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.wal")
	s := buildCheckpointedWAL(t, path)

	before, err := s.WAL().Size()
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.TruncateWAL(1)
	if err != nil {
		t.Fatalf("TruncateWAL: %v", err)
	}
	if st.BaseGC != 6 {
		t.Fatalf("BaseGC = %d, want 6 (latest checkpoint)", st.BaseGC)
	}
	// Dropped: interval [0,3], checkpoint@2, notify@1 / reads E0,E1 / datagram@1.
	if st.DroppedSchedule != 3 || st.DroppedNetwork != 2 || st.DroppedDatagram != 1 {
		t.Fatalf("drop counts = %d/%d/%d, want 3/2/1", st.DroppedSchedule, st.DroppedNetwork, st.DroppedDatagram)
	}
	if st.Bytes >= before {
		t.Fatalf("compacted size %d not smaller than original %d", st.Bytes, before)
	}

	got, rep, err := RecoverFile(path)
	if err != nil {
		t.Fatalf("RecoverFile: %v", err)
	}
	if rep.BaseGC != 6 {
		t.Fatalf("recovery BaseGC = %d, want 6", rep.BaseGC)
	}
	idx, err := BuildScheduleIndex(got.Schedule)
	if err != nil {
		t.Fatalf("BuildScheduleIndex: %v", err)
	}
	if idx.BaseGC != 6 {
		t.Fatalf("index BaseGC = %d, want 6", idx.BaseGC)
	}
	ivs := idx.Streams[0].Runs[0]
	if len(ivs) != 1 || ivs[0].First != 6 || ivs[0].Last != 9 {
		t.Fatalf("intervals = %+v, want exactly [6,9] (clipped at the base)", ivs)
	}
	if len(idx.Checkpoints) != 1 || idx.Checkpoints[0].GC != 6 || string(idx.Checkpoints[0].State) != "s2" {
		t.Fatalf("checkpoints = %+v, want only the anchor at 6", idx.Checkpoints)
	}
	if len(idx.Streams[0].Notifies) != 0 {
		t.Fatalf("below-base notify survived: %v", idx.Streams[0].Notifies)
	}
	if idx.ChaosPlan == nil || idx.ChaosPlan.Seed != 9 {
		t.Fatalf("chaos plan lost in truncation: %+v", idx.ChaosPlan)
	}
	netIdx, err := BuildNetworkIndex(got.Network)
	if err != nil {
		t.Fatal(err)
	}
	if netIdx.Reads.Len() != 1 {
		t.Fatalf("network reads = %d, want 1 (only the taker's post-anchor event)", netIdx.Reads.Len())
	}
	if _, ok := netIdx.Reads.Get(ids.NetworkEventID{Thread: 0, Event: 2}); !ok {
		t.Fatalf("surviving read is not event 2: %v", netIdx.Reads)
	}
	dgIdx, err := BuildDatagramIndex(got.Datagram)
	if err != nil {
		t.Fatal(err)
	}
	if dgIdx.ByEvent.Len() != 1 {
		t.Fatalf("datagram records = %d, want 1 (delivery at counter 8)", dgIdx.ByEvent.Len())
	}
}

func TestTruncateWALKeepRetainsOlderAnchors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.wal")
	s := buildCheckpointedWAL(t, path)

	st, err := s.TruncateWAL(2)
	if err != nil {
		t.Fatalf("TruncateWAL(2): %v", err)
	}
	if st.BaseGC != 2 {
		t.Fatalf("BaseGC = %d, want 2 (two checkpoints back)", st.BaseGC)
	}
	got, _, err := RecoverFile(path)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := BuildScheduleIndex(got.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Checkpoints) != 2 {
		t.Fatalf("checkpoints = %+v, want both anchors retained", idx.Checkpoints)
	}
	ivs := idx.Streams[0].Runs[0]
	if len(ivs) != 2 || ivs[0].First != 2 || ivs[0].Last != 3 {
		t.Fatalf("intervals = %+v, want [2,3],[4,9]", ivs)
	}
}

func TestTruncateWALNoAnchor(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.wal")
	s := buildCheckpointedWAL(t, path)
	before, err := s.WAL().Size()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.TruncateWAL(3); !errors.Is(err, ErrNoAnchor) {
		t.Fatalf("TruncateWAL(3) = %v, want ErrNoAnchor", err)
	}
	// A refused truncation must leave the file untouched and the writer usable.
	after, err := s.WAL().Size()
	if err != nil {
		t.Fatalf("writer poisoned by refused truncation: %v", err)
	}
	if after != before {
		t.Fatalf("file changed by refused truncation: %d -> %d", before, after)
	}
}

// Appends after a truncation must land in the compacted file: the writer is
// swapped onto the renamed image, not the replaced one.
func TestTruncateWALAppendsContinue(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.wal")
	s := buildCheckpointedWAL(t, path)
	if _, err := s.TruncateWAL(1); err != nil {
		t.Fatal(err)
	}
	s.Schedule.Append(&Interval{Thread: 0, First: 10, Last: 12})
	if err := s.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	got, _, err := RecoverFile(path)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := BuildScheduleIndex(got.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	ivs := idx.Streams[0].Runs[0]
	if len(ivs) != 2 || ivs[1].First != 10 || ivs[1].Last != 12 {
		t.Fatalf("post-truncation append lost: %+v", ivs)
	}
	if idx.Meta.FinalGC != 13 {
		t.Fatalf("FinalGC = %d, want 13", idx.Meta.FinalGC)
	}
}

// The compacted image a truncation builds and the appends that follow it are
// one stream of frames: a WAL made by appending the very same records must be
// the same file, byte for byte, and recover to the same set.
func TestTruncateWALFramesMatchAppendedFrames(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "node.wal")
	s := buildCheckpointedWAL(t, path)
	if _, err := s.TruncateWAL(1); err != nil {
		t.Fatal(err)
	}
	s.Schedule.Append(&Interval{Thread: 0, First: 10, Last: 12})
	if err := s.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	compacted, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	replayed := filepath.Join(dir, "appended.wal")
	w, err := CreateWAL(replayed, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var sc scratch
	for _, off := range frameOffsets(t, compacted) {
		logID, payload, _ := readFrame(compacted[off:], &sc)
		w.append(logID, payload)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	appended, err := os.ReadFile(replayed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(compacted, appended) {
		t.Fatalf("compacted WAL (%d bytes) differs from the same records appended (%d bytes)", len(compacted), len(appended))
	}

	a, repA, err := RecoverFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b, repB, err := RecoverFile(replayed)
	if err != nil {
		t.Fatal(err)
	}
	repB.Path = repA.Path
	if *repA != *repB {
		t.Fatalf("recovery reports differ:\n%+v\n%+v", repA, repB)
	}
	for id, l := range a.logs() {
		if !bytes.Equal(l.Bytes(), b.logs()[id].Bytes()) {
			t.Errorf("recovered %s logs differ", logNames[id])
		}
	}
}

// FuzzTruncateWAL compacts fuzzed sets. Two fuzzed streams are parsed and
// their records appended, each to the log its kind belongs in, to a set with
// a WAL attached; the set is then truncated keeping a fuzzed number of
// checkpoints. Whatever the records, TruncateWAL never panics and fails only
// with ErrNoAnchor or ErrCorrupt. The file a successful compaction writes
// recovers with nothing discarded and the compaction's base, or its repair
// fails with ErrCorrupt.
func FuzzTruncateWAL(f *testing.F) {
	rec := buildCheckpointedWAL(f, filepath.Join(f.TempDir(), "seed.wal"))
	f.Add(rec.Schedule.Bytes(), append(rec.Network.Bytes(), rec.Datagram.Bytes()...), uint8(1))
	f.Add(rec.Schedule.Bytes(), rec.Network.Bytes(), uint8(2))
	for _, seed := range fuzzSeeds() {
		f.Add(seed, rec.Network.Bytes(), uint8(len(seed)))
	}
	f.Fuzz(func(t *testing.T, sched, network []byte, keep uint8) {
		path := filepath.Join(t.TempDir(), "node.wal")
		w, err := CreateWAL(path, WALOptions{SyncEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		s := NewSet()
		if err := s.AttachWAL(w); err != nil {
			t.Fatal(err)
		}
		for _, stream := range [][]byte{sched, network} {
			entries, err := Parse(stream)
			if err != nil {
				return
			}
			for _, e := range entries {
				s.logs()[kindTable[e.Kind()].log].Append(e)
			}
		}
		st, err := s.TruncateWAL(int(keep % 4))
		if err != nil {
			if !errors.Is(err, ErrNoAnchor) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("TruncateWAL(%d): %v, neither ErrNoAnchor nor ErrCorrupt", keep%4, err)
			}
			return
		}
		if err := s.SyncWAL(); err != nil {
			t.Fatal(err)
		}
		_, rep, err := RecoverFile(path)
		switch {
		case err != nil && !errors.Is(err, ErrCorrupt):
			t.Fatalf("recovering the compacted WAL: %v, not ErrCorrupt", err)
		case err == nil && (rep.Truncated || rep.BaseGC != st.BaseGC):
			t.Fatalf("the compacted WAL recovers from base %d discarding %d bytes (%s); the compaction's base is %d",
				rep.BaseGC, rep.DiscardedBytes, rep.Reason, st.BaseGC)
		}
	})
}

// Truncation must be invisible to a replay resumed at its anchor: two sets
// record the same run, one WAL is compacted at the anchor, and both take the
// same tail of appends. Cut at every frame boundary of that tail, the two
// files recover to the same prefix end and to the same records of everything
// such a replay reads — the runs from the anchor on, the checkpoints,
// notifies, timed waits and datagram deliveries at or past it, and the
// network records of the events still live there.
func TestTruncateWALInvisibleToResumedReplay(t *testing.T) {
	ev := func(th, e int) ids.NetworkEventID {
		return ids.NetworkEventID{Thread: ids.ThreadNum(th), Event: ids.EventNum(e)}
	}
	type record struct {
		log uint8
		e   Entry
	}
	prefix := []record{
		{logSchedule, &VMMeta{VM: 5, World: ids.ClosedWorld}},
		{logNetwork, &ReadEntry{EventID: ev(0, 0), N: 8}},
		{logSchedule, &Interval{Thread: 0, First: 0, Last: 2}},
		{logNetwork, &ReadEntry{EventID: ev(1, 0), N: 16}},
		{logSchedule, &Notify{GC: 4, Woken: []ids.ThreadNum{0}}},
		{logDatagram, &DatagramRecvEntry{EventID: ev(1, 1), ReceiverGC: 4, Datagram: ids.DGNetworkEventID{VM: 3, GC: 1}}},
		{logSchedule, &Interval{Thread: 1, First: 3, Last: 4}},
		{logSchedule, &OpenInterval{Thread: 0, First: 5, Last: 5}},
		{logSchedule, &Interval{Thread: 0, First: 5, Last: 6}},
		{logSchedule, &CheckpointEntry{GC: 6, NextThread: 2, TakerThread: 0, MainEventNum: 1, State: []byte("a")}},
		{logNetwork, &ReadEntry{EventID: ev(0, 1), N: 32}},
		{logSchedule, &TimedWaitEntry{GC: 8, Check: true}},
		{logSchedule, &OpenInterval{Thread: 0, First: 7, Last: 8}},
		{logSchedule, &Interval{Thread: 0, First: 7, Last: 9}},
		{logSchedule, &CheckpointEntry{GC: 9, NextThread: 2, TakerThread: 0, MainEventNum: 2, State: []byte("b")}},
		{logNetwork, &ReadEntry{EventID: ev(0, 2), N: 64}},
	}
	tail := []record{
		{logNetwork, &ReadEntry{EventID: ev(2, 0), N: 1}},
		{logSchedule, &Interval{Thread: 2, First: 10, Last: 11}},
		{logSchedule, &Notify{GC: 11, Woken: []ids.ThreadNum{2}}},
		{logDatagram, &DatagramRecvEntry{EventID: ev(2, 1), ReceiverGC: 11, Datagram: ids.DGNetworkEventID{VM: 3, GC: 2}}},
		{logSchedule, &OpenInterval{Thread: 0, First: 12, Last: 12}},
		{logNetwork, &ReadEntry{EventID: ev(0, 3), N: 2}},
		{logSchedule, &OpenInterval{Thread: 0, First: 12, Last: 14}},
		{logSchedule, &TimestampEntry{GC: 15, Wall: 99}},
		{logSchedule, &Interval{Thread: 0, First: 12, Last: 15}},
		{logSchedule, &CheckpointEntry{GC: 15, NextThread: 3, TakerThread: 0, MainEventNum: 4, State: []byte("c")}},
		{logSchedule, &Interval{Thread: 2, First: 16, Last: 17}},
	}
	for keep, anchor := range map[int]*CheckpointEntry{1: prefix[14].e.(*CheckpointEntry), 2: prefix[9].e.(*CheckpointEntry)} {
		dir := t.TempDir()
		var files [2][]byte
		var tails [2]int
		for i := range files {
			path := filepath.Join(dir, fmt.Sprintf("node%d.wal", i))
			w, err := CreateWAL(path, WALOptions{})
			if err != nil {
				t.Fatal(err)
			}
			s := NewSet()
			if err := s.AttachWAL(w); err != nil {
				t.Fatal(err)
			}
			for _, r := range prefix {
				s.logs()[r.log].Append(r.e)
			}
			if i == 1 {
				if st, err := s.TruncateWAL(keep); err != nil || st.BaseGC != anchor.GC {
					t.Fatalf("keep %d: TruncateWAL = %+v, %v; want base %d", keep, st, err, anchor.GC)
				}
			}
			size, err := s.WAL().Size()
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range tail {
				s.logs()[r.log].Append(r.e)
			}
			if err := s.CloseWAL(); err != nil {
				t.Fatal(err)
			}
			if files[i], err = os.ReadFile(path); err != nil {
				t.Fatal(err)
			}
			tails[i] = int(size)
		}
		if !bytes.Equal(files[0][tails[0]:], files[1][tails[1]:]) {
			t.Fatalf("keep %d: the tail's frames differ between the two files", keep)
		}
		offs := append(frameOffsets(t, files[0][tails[0]-len(WALMagic):]), len(files[0])-tails[0]+len(WALMagic))
		if len(offs) != len(tail)+1 {
			t.Fatalf("keep %d: %d tail frames, want %d", keep, len(offs)-1, len(tail))
		}
		for _, off := range offs {
			n := off - len(WALMagic)
			var views [2]string
			for i, data := range files {
				cut := filepath.Join(dir, "cut.wal")
				if err := os.WriteFile(cut, data[:tails[i]+n], 0o644); err != nil {
					t.Fatal(err)
				}
				s, rep, err := RecoverFile(cut)
				if err != nil {
					t.Fatalf("keep %d, tail cut at %d: file %d: RecoverFile: %v", keep, n, i, err)
				}
				views[i] = resumedView(t, s, rep, anchor)
			}
			if views[0] != views[1] {
				t.Errorf("keep %d, tail cut at %d: a replay resumed at %d reads\n%s\nfrom the whole WAL, but\n%s\nfrom the compacted one", keep, n, anchor.GC, views[0], views[1])
			}
		}
	}
}

// resumedView describes what a replay resumed at anchor reads of a recovered
// set.
func resumedView(t *testing.T, s *Set, rep *RecoveryReport, anchor *CheckpointEntry) string {
	t.Helper()
	base := anchor.GC
	idx, err := BuildScheduleIndex(s.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := BuildDatagramIndex(s.Datagram)
	if err != nil {
		t.Fatal(err)
	}
	network, err := s.Network.Entries()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "final %d\n", rep.FinalGC)
	for _, iv := range idx.Streams[0].Ordered() {
		if iv.Last >= base {
			fmt.Fprintf(&b, "run %d [%d,%d]\n", iv.Thread, max(iv.First, base), iv.Last)
		}
	}
	for _, cp := range idx.Checkpoints {
		if cp.GC >= base {
			fmt.Fprintf(&b, "checkpoint %+v\n", cp)
		}
	}
	for _, gc := range slices.Sorted(maps.Keys(idx.Streams[0].Notifies)) {
		if gc >= base {
			fmt.Fprintf(&b, "notify %d %v\n", gc, idx.Streams[0].Notifies[gc])
		}
	}
	for _, gc := range slices.Sorted(maps.Keys(idx.Streams[0].TimedWaits)) {
		if gc >= base {
			fmt.Fprintf(&b, "timed wait %+v\n", idx.Streams[0].TimedWaits[gc])
		}
	}
	for _, d := range dg.ByEvent.All() {
		if d.ReceiverGC >= base {
			fmt.Fprintf(&b, "datagram %+v\n", d)
		}
	}
	for _, e := range network {
		id, _ := netEventID(e)
		if uint32(id.Thread) >= anchor.NextThread || id.Thread == anchor.TakerThread && id.Event >= anchor.MainEventNum {
			fmt.Fprintf(&b, "network %+v\n", e)
		}
	}
	return b.String()
}
