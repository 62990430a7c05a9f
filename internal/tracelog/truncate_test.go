package tracelog

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
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
	var scratch [kindMax]Entry
	for _, off := range frameOffsets(t, compacted) {
		logID, payload, _ := readFrame(compacted[off:], &scratch)
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
