package core

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/ids"
	"repro/internal/tracelog"
)

// TestWALNotesCoverParkedMainThread is the regression test for the
// parked-thread recovery hole: main spawns workers and parks in Join, so its
// open interval — which covers counter 0 — is never flushed while the
// workers run. A crash mid-run used to leave RecoverFile with a gap at 0 and
// a replayable prefix of [0,0) no matter how much work the WAL had durably
// captured. Open-interval durability notes close the hole: a mid-run
// crash-consistent snapshot of the WAL (taken from the fsync hook, exactly
// what a real crash preserves) must now recover a substantial prefix.
func TestWALNotesCoverParkedMainThread(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "node.wal")

	vm, err := NewVM(Config{ID: 4, Mode: ids.Record})
	if err != nil {
		t.Fatalf("NewVM: %v", err)
	}
	var snapMu sync.Mutex
	var snap []byte
	syncs := 0
	opts := tracelog.WALOptions{SyncEvery: 8, OnSync: func() {
		snapMu.Lock()
		defer snapMu.Unlock()
		if syncs++; syncs == 6 && snap == nil {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Errorf("snapshot read: %v", err)
				return
			}
			snap = b
		}
	}}
	if err := vm.EnableWAL(path, opts); err != nil {
		t.Fatalf("EnableWAL: %v", err)
	}

	var counter SharedInt
	mon := NewMonitor()
	vm.Start(func(main *Thread) {
		children := make([]*Thread, 3)
		for w := 0; w < 3; w++ {
			children[w] = main.Spawn(func(th *Thread) {
				for i := 0; i < 30; i++ {
					mon.Enter(th)
					counter.Set(th, counter.Get(th)+1)
					mon.Exit(th)
				}
			})
		}
		for _, c := range children {
			main.Join(c)
		}
	})
	vm.Wait()
	vm.Close()

	snapMu.Lock()
	cut := append([]byte(nil), snap...)
	snapMu.Unlock()
	if cut == nil {
		t.Fatal("run finished before the 6th WAL sync; raise the workload size")
	}
	cutPath := filepath.Join(dir, "cut.wal")
	if err := os.WriteFile(cutPath, cut, 0o644); err != nil {
		t.Fatal(err)
	}

	s, rep, err := tracelog.RecoverFile(cutPath)
	if err != nil {
		t.Fatalf("RecoverFile: %v", err)
	}
	if rep.Clean || !rep.Synthesized {
		t.Fatalf("mid-run snapshot misclassified: %+v", rep)
	}
	if rep.OpenNotes == 0 {
		t.Fatal("record phase wrote no open-interval notes")
	}
	// The snapshot was taken at the 6th sync of cadence 8, i.e. with at
	// least ~48 records durable. Requiring a 16-event prefix leaves slack
	// for headers and notes while still failing hard if main's parked
	// interval reopens the gap at counter 0.
	if rep.FinalGC < 16 {
		t.Fatalf("replayable prefix [0,%d): parked main thread collapsed the prefix (report %+v)", rep.FinalGC, rep)
	}

	idx, err := tracelog.BuildScheduleIndex(s.Schedule)
	if err != nil {
		t.Fatalf("recovered schedule does not index: %v", err)
	}
	covered := make(map[ids.GCount]bool)
	for _, ivs := range idx.Streams[0].Runs {
		for _, iv := range ivs {
			for c := iv.First; c <= iv.Last; c++ {
				if covered[c] {
					t.Fatalf("counter %d covered twice", c)
				}
				covered[c] = true
			}
		}
	}
	if len(covered) != int(rep.FinalGC) {
		t.Fatalf("%d covered counters, want exactly FinalGC %d", len(covered), rep.FinalGC)
	}
	for c := ids.GCount(0); c < rep.FinalGC; c++ {
		if !covered[c] {
			t.Fatalf("counter %d inside prefix [0,%d) uncovered", c, rep.FinalGC)
		}
	}
	if main := idx.Streams[0].Runs[0]; len(main) == 0 || main[0].First != 0 {
		t.Fatalf("main thread's earliest coverage missing: %v", main)
	}
}
