package tracelog

import (
	"path/filepath"
	"testing"

	"repro/internal/ids"
)

// TestWALRepairMergesOpenIntervalNotes exercises the note-aware prefix
// repair: coverage claimed only by OpenInterval durability notes (a thread
// parked in a blocking event never flushed its interval) must count toward
// the replayable prefix, notes must dedup against the flushed interval that
// supersedes them, and claims beyond the first gap must be dropped.
func TestWALRepairMergesOpenIntervalNotes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.wal")
	w, err := CreateWAL(path, WALOptions{})
	if err != nil {
		t.Fatalf("CreateWAL: %v", err)
	}
	s := NewSet()
	if err := s.AttachWAL(w); err != nil {
		t.Fatalf("AttachWAL: %v", err)
	}
	s.Schedule.Append(&VMMeta{VM: 7, World: ids.ClosedWorld})
	// Thread 0 parks with [0,1] still open: only a note ever claims it.
	s.Schedule.Append(&OpenInterval{Thread: 0, First: 0, Last: 1})
	// Thread 1 is noted early, the note grows, then the interval flushes:
	// dedup by (thread, First) must keep the flushed record's Last.
	s.Schedule.Append(&OpenInterval{Thread: 1, First: 2, Last: 2})
	s.Schedule.Append(&OpenInterval{Thread: 1, First: 2, Last: 3})
	s.Schedule.Append(&Interval{Thread: 1, First: 2, Last: 4})
	// Thread 1's next interval is open at the crash.
	s.Schedule.Append(&OpenInterval{Thread: 1, First: 5, Last: 6})
	// A claim beyond the gap at 7 must be dropped, not straddle the prefix.
	s.Schedule.Append(&OpenInterval{Thread: 0, First: 9, Last: 9})
	if err := s.CloseWAL(); err != nil {
		t.Fatalf("CloseWAL: %v", err)
	}

	got, rep, err := RecoverFile(path)
	if err != nil {
		t.Fatalf("RecoverFile: %v", err)
	}
	if rep.Clean || !rep.Synthesized {
		t.Fatalf("crashed log misclassified: %+v", rep)
	}
	if rep.FinalGC != 7 {
		t.Fatalf("FinalGC = %d, want 7 (notes must extend the prefix past unflushed intervals)", rep.FinalGC)
	}
	if rep.OpenNotes != 5 {
		t.Fatalf("OpenNotes = %d, want 5", rep.OpenNotes)
	}
	if rep.DroppedIntervals != 1 {
		t.Fatalf("DroppedIntervals = %d, want 1 (the [9,9] claim beyond the gap)", rep.DroppedIntervals)
	}

	idx, err := BuildScheduleIndex(got.Schedule)
	if err != nil {
		t.Fatalf("BuildScheduleIndex: %v", err)
	}
	if idx.Meta.Threads != 2 || idx.Meta.FinalGC != 7 {
		t.Fatalf("synthesized meta = %+v, want 2 threads / FinalGC 7", idx.Meta)
	}
	wantIvs := map[ids.ThreadNum][]Interval{
		0: {{Thread: 0, First: 0, Last: 1}},
		1: {{Thread: 1, First: 2, Last: 4}, {Thread: 1, First: 5, Last: 6}},
	}
	for tn, want := range wantIvs {
		got := idx.Streams[0].Runs[tn]
		if len(got) != len(want) {
			t.Fatalf("thread %d intervals = %v, want %v", tn, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("thread %d intervals = %v, want %v", tn, got, want)
			}
		}
	}

	// The rebuilt schedule must not carry note records forward: their
	// information now lives in the merged intervals.
	entries, err := got.Schedule.Entries()
	if err != nil {
		t.Fatalf("Entries: %v", err)
	}
	for _, e := range entries {
		if e.Kind() == KindOpenInterval {
			t.Fatalf("repaired schedule still contains an open-interval note")
		}
	}
}
