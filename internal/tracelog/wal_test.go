package tracelog

import (
	"bufio"
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/ids"
)

// buildWALRun records a small but representative run through a WAL-attached
// set: identity header, interleaved intervals for two threads, a notify, a
// couple of network and datagram records, and (when clean) the final vm-meta.
func buildWALRun(t *testing.T, path string, opts WALOptions, clean bool) *Set {
	t.Helper()
	w, err := CreateWAL(path, opts)
	if err != nil {
		t.Fatalf("CreateWAL: %v", err)
	}
	s := NewSet()
	if err := s.AttachWAL(w); err != nil {
		t.Fatalf("AttachWAL: %v", err)
	}
	s.Schedule.Append(&VMMeta{VM: 7, World: ids.ClosedWorld})
	s.Schedule.Append(&Interval{Thread: 0, First: 0, Last: 4})
	s.Network.Append(&BindEntry{EventID: ids.NetworkEventID{Thread: 0, Event: 0}, Port: 9000})
	s.Schedule.Append(&Interval{Thread: 1, First: 5, Last: 7})
	s.Network.Append(&ReadEntry{EventID: ids.NetworkEventID{Thread: 1, Event: 0}, N: 128})
	s.Schedule.Append(&Notify{GC: 8, Woken: []ids.ThreadNum{1}})
	s.Schedule.Append(&Interval{Thread: 0, First: 8, Last: 11})
	s.Datagram.Append(&DatagramRecvEntry{
		EventID:    ids.NetworkEventID{Thread: 1, Event: 1},
		ReceiverGC: 6,
		Datagram:   ids.DGNetworkEventID{VM: 3, GC: 42},
	})
	s.Schedule.Append(&Interval{Thread: 1, First: 12, Last: 13})
	if clean {
		s.Schedule.Append(&VMMeta{VM: 7, World: ids.ClosedWorld, Threads: 2, FinalGC: 14})
	}
	if err := s.CloseWAL(); err != nil {
		t.Fatalf("CloseWAL: %v", err)
	}
	return s
}

func TestWALCleanRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.wal")
	orig := buildWALRun(t, path, WALOptions{}, true)

	got, rep, err := RecoverFile(path)
	if err != nil {
		t.Fatalf("RecoverFile: %v", err)
	}
	if !rep.Clean || rep.Synthesized || rep.Truncated {
		t.Fatalf("clean run misclassified: %+v", rep)
	}
	if rep.VM != 7 || rep.FinalGC != 14 {
		t.Fatalf("report identity = vm%d finalGC %d, want vm7/14", rep.VM, rep.FinalGC)
	}
	for _, pair := range []struct {
		name     string
		got, wnt *Log
	}{
		{"schedule", got.Schedule, orig.Schedule},
		{"network", got.Network, orig.Network},
		{"datagram", got.Datagram, orig.Datagram},
	} {
		if string(pair.got.Bytes()) != string(pair.wnt.Bytes()) {
			t.Errorf("%s log differs after clean recovery", pair.name)
		}
		if pair.got.Len() != pair.wnt.Len() {
			t.Errorf("%s log Len = %d, want %d", pair.name, pair.got.Len(), pair.wnt.Len())
		}
	}
}

// TestWALRecoverEveryTruncation cuts the WAL at every possible byte length
// and checks that recovery always yields a consistent, replayable prefix:
// the schedule index builds, intervals cover exactly [0, FinalGC), and the
// datagram deliveries all land inside the recovered prefix.
func TestWALRecoverEveryTruncation(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "node.wal")
	buildWALRun(t, full, WALOptions{}, false)
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	cut := filepath.Join(dir, "cut.wal")
	lastFrames := -1
	for n := 0; n <= len(data); n++ {
		if err := os.WriteFile(cut, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		s, rep, err := RecoverFile(cut)
		if n < len(WALMagic) {
			if !errors.Is(err, ErrNotWAL) {
				t.Fatalf("cut=%d: want ErrNotWAL, got %v", n, err)
			}
			continue
		}
		if err != nil {
			// With zero salvaged frames there is no identity header to
			// recover from — the only acceptable failure.
			if rep != nil && rep.Frames == 0 {
				continue
			}
			t.Fatalf("cut=%d: RecoverFile: %v", n, err)
		}
		if rep.Frames < lastFrames {
			t.Fatalf("cut=%d: frames went backwards: %d after %d", n, rep.Frames, lastFrames)
		}
		lastFrames = rep.Frames
		if int64(n) != rep.GoodBytes+rep.DiscardedBytes {
			t.Fatalf("cut=%d: good %d + discarded %d != %d", n, rep.GoodBytes, rep.DiscardedBytes, n)
		}
		if !rep.Synthesized {
			t.Fatalf("cut=%d: crashed log did not synthesize a vm-meta", n)
		}

		idx, err := BuildScheduleIndex(s.Schedule)
		if err != nil {
			t.Fatalf("cut=%d: recovered schedule does not index: %v", n, err)
		}
		if idx.Meta.VM != 7 {
			t.Fatalf("cut=%d: recovered identity vm%d, want vm7", n, idx.Meta.VM)
		}
		covered := make(map[ids.GCount]bool)
		for _, ivs := range idx.Streams[0].Runs {
			for _, iv := range ivs {
				for c := iv.First; c <= iv.Last; c++ {
					if covered[c] {
						t.Fatalf("cut=%d: counter %d covered twice", n, c)
					}
					covered[c] = true
				}
			}
		}
		for c := ids.GCount(0); c < idx.Meta.FinalGC; c++ {
			if !covered[c] {
				t.Fatalf("cut=%d: counter %d inside prefix [0,%d) uncovered", n, c, idx.Meta.FinalGC)
			}
		}
		if len(covered) != int(idx.Meta.FinalGC) {
			t.Fatalf("cut=%d: %d covered counters but FinalGC %d", n, len(covered), idx.Meta.FinalGC)
		}
		if _, err := BuildNetworkIndex(s.Network); err != nil {
			t.Fatalf("cut=%d: recovered network log does not index: %v", n, err)
		}
		dg, err := BuildDatagramIndex(s.Datagram)
		if err != nil {
			t.Fatalf("cut=%d: recovered datagram log does not index: %v", n, err)
		}
		for _, e := range dg.ByEvent.All() {
			if e.ReceiverGC >= idx.Meta.FinalGC {
				t.Fatalf("cut=%d: datagram delivery at gc %d beyond prefix %d", n, e.ReceiverGC, idx.Meta.FinalGC)
			}
		}
	}
	if lastFrames < 8 {
		t.Fatalf("full WAL recovered only %d frames", lastFrames)
	}
}

func TestWALCorruptFrameTruncatesScan(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "node.wal")
	buildWALRun(t, path, WALOptions{}, false)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte somewhere in the middle of the file.
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, rep, err := RecoverFile(path)
	if err != nil {
		t.Fatalf("RecoverFile: %v", err)
	}
	if !rep.Truncated || rep.DiscardedBytes == 0 {
		t.Fatalf("corrupt frame not detected: %+v", rep)
	}
	if rep.Frames >= 9 {
		t.Fatalf("scan did not stop at corrupt frame: %d frames", rep.Frames)
	}
}

// frameOffsets returns the file offset of every frame of a healthy WAL image.
// frameAt is readFrame over the bytes of a file from a frame on.
func frameAt(data []byte, sc *scratch) (logID uint8, payload []byte, reason string) {
	logID, payload, reason, err := readFrame(bufio.NewReader(bytes.NewReader(data)), int64(len(data)), sc)
	if err != nil {
		reason = err.Error()
	}
	return logID, payload, reason
}

func frameOffsets(t *testing.T, data []byte) []int {
	t.Helper()
	var offs []int
	var sc scratch
	for off := len(WALMagic); off < len(data); {
		_, payload, reason := frameAt(data[off:], &sc)
		if reason != "" {
			t.Fatalf("frame at %d: %s", off, reason)
		}
		offs = append(offs, off)
		off += walFrameHdrLen + len(payload)
	}
	return offs
}

// The checksum covers only a frame's payload, so a flipped bit in its log-id
// byte leaves the frame intact and merely files the record into the wrong
// log. The scan must treat that like any other frame damage — stop there and
// keep the prefix — not hand back a set whose network log holds an interval,
// which no index, logcheck or replay VM accepts.
func TestWALFlippedLogIDTruncatesScan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.wal")
	buildWALRun(t, path, WALOptions{}, true)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	offs := frameOffsets(t, data)
	const hit = 3 // the interval [5,7] of thread 1, a schedule frame
	if data[offs[hit]] != logSchedule {
		t.Fatalf("frame %d is tagged %d, want the schedule log", hit, data[offs[hit]])
	}
	data[offs[hit]] ^= 1 // schedule 0 -> network 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s, rep, err := RecoverFile(path)
	if err != nil {
		t.Fatalf("RecoverFile: %v", err)
	}
	if !rep.Truncated || rep.Frames != hit || rep.GoodBytes != int64(offs[hit]) {
		t.Fatalf("scan did not stop at the misfiled frame: %+v", rep)
	}
	if want := "tracelog: corrupt log: unexpected interval record in network log"; rep.Reason != want {
		t.Fatalf("Reason = %q, want %q", rep.Reason, want)
	}
	if rep.FinalGC != 5 {
		t.Fatalf("FinalGC = %d, want 5 (the prefix before the damaged frame)", rep.FinalGC)
	}
	if _, err := BuildScheduleIndex(s.Schedule); err != nil {
		t.Fatalf("schedule index: %v", err)
	}
	if _, err := BuildNetworkIndex(s.Network); err != nil {
		t.Fatalf("network index: %v", err)
	}
	if _, err := BuildDatagramIndex(s.Datagram); err != nil {
		t.Fatalf("datagram index: %v", err)
	}
}

func TestWALBadMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bogus.wal")
	if err := os.WriteFile(path, []byte("NOTAWAL0 trailing junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := RecoverFile(path); !errors.Is(err, ErrNotWAL) {
		t.Fatalf("want ErrNotWAL, got %v", err)
	}
}

func TestWALSyncCadence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.wal")
	hookSyncs := 0
	w, err := CreateWAL(path, WALOptions{SyncEvery: 5, OnSync: func() { hookSyncs++ }})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSet()
	if err := s.AttachWAL(w); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		s.Schedule.Append(&Interval{Thread: 0, First: ids.GCount(i), Last: ids.GCount(i)})
	}
	records, syncs := w.Stats()
	if records != 12 {
		t.Fatalf("records = %d, want 12", records)
	}
	if syncs != 2 || hookSyncs != 2 {
		t.Fatalf("syncs = %d (hook %d), want 2 after 12 appends at cadence 5", syncs, hookSyncs)
	}
	if err := s.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	if _, syncs = w.Stats(); syncs != 3 {
		t.Fatalf("Close did not perform the final sync: %d", syncs)
	}
}

// TestRecoverFileAllocatesPerFileNotPerFrame: the scan decodes every frame
// with one scratch, records and codec alike, so recovering a clean WAL of
// 40 002 frames allocates the recovered logs' chunks and a record or two per
// kind, not a codec per frame.
func TestRecoverFileAllocatesPerFileNotPerFrame(t *testing.T) {
	const n = 40_000
	path := filepath.Join(t.TempDir(), "node.wal")
	w, err := CreateWAL(path, WALOptions{SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSet()
	if err := s.AttachWAL(w); err != nil {
		t.Fatal(err)
	}
	s.Schedule.Append(&VMMeta{VM: 1, World: ids.OpenWorld})
	for i := range n {
		s.Schedule.Append(&Interval{Thread: ids.ThreadNum(i % 4), First: ids.GCount(2 * i), Last: ids.GCount(2*i + 1)})
	}
	s.Schedule.Append(&VMMeta{VM: 1, World: ids.OpenWorld, Threads: 4, FinalGC: 2 * n})
	if err := s.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, rep, err := RecoverFile(path); err != nil || !rep.Clean || rep.Frames != n+2 {
			t.Fatalf("RecoverFile: %v, %+v", err, rep)
		}
	})
	if allocs >= 1000 {
		t.Errorf("recovering %d frames allocated %.0f times, want fewer than 1 000", n+2, allocs)
	}
}

// TestRecoverFileHoldsAFrameNotTheFile: recovery reads a WAL a frame at a
// time into logs that spill as a recording's do, so salvaging 32 MiB of
// content allocates a few of the logs' chunks, not the file.
func TestRecoverFileHoldsAFrameNotTheFile(t *testing.T) {
	const frames, size = 8 << 10, 4 << 10
	path := filepath.Join(t.TempDir(), "node.wal")
	w, err := CreateWAL(path, WALOptions{SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	w.append(logSchedule, encodeRecord(&VMMeta{VM: 1, World: ids.OpenWorld}))
	data := make([]byte, size)
	for i := range frames {
		data[i%size]++
		w.append(logNetwork, encodeRecord(&OpenReadEntry{EventID: ids.NetworkEventID{Event: ids.EventNum(i)}, Data: data}))
	}
	w.append(logSchedule, encodeRecord(&VMMeta{VM: 1, World: ids.OpenWorld, Threads: 1, FinalGC: frames}))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil || info.Size() < frames*size {
		t.Fatalf("the WAL is %v bytes (%v), want at least %d", info.Size(), err, frames*size)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, rep, err := RecoverFile(path)
	runtime.ReadMemStats(&after)
	if err != nil || !rep.Clean || rep.Frames != frames+2 || s.Network.Len() != frames {
		t.Fatalf("RecoverFile: %v, %+v", err, rep)
	}
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("recovering a %d-byte WAL allocated %d bytes; heap in use grew by %d bytes",
		info.Size(), allocated, int64(after.HeapInuse)-int64(before.HeapInuse))
	if allocated > uint64(info.Size())/8 {
		t.Errorf("recovering a %d-byte WAL allocated %d bytes, want at most an eighth of it", info.Size(), allocated)
	}
	runtime.KeepAlive(s)
}

func TestWALAttachRejectsNonEmptyLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.wal")
	w, err := CreateWAL(path, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	s := NewSet()
	s.Schedule.Append(&Interval{Thread: 0, First: 0, Last: 0})
	if err := s.AttachWAL(w); err == nil {
		t.Fatal("AttachWAL accepted a non-empty log")
	}
}
