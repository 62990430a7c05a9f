package recline

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/ids"
	"repro/internal/tracelog"
)

// memberWAL writes member vm's synthSet records through a WAL — after an
// identity header and one interval covering the run, before the final
// vm-meta of a clean close — and returns the file's bytes.
func memberWAL(tb testing.TB, path string, vm ids.DJVMID, dg []tracelog.Entry) []byte {
	tb.Helper()
	src := synthSet(vm, fullMember(vm), dg)
	sched, err := src.Schedule.Entries()
	if err != nil {
		tb.Fatal(err)
	}
	dgs, err := src.Datagram.Entries()
	if err != nil {
		tb.Fatal(err)
	}
	meta := sched[0].(*tracelog.VMMeta)

	w, err := tracelog.CreateWAL(path, tracelog.WALOptions{SyncEvery: -1})
	if err != nil {
		tb.Fatal(err)
	}
	s := tracelog.NewSet()
	if err := s.AttachWAL(w); err != nil {
		tb.Fatal(err)
	}
	s.Schedule.Append(&tracelog.VMMeta{VM: vm, World: meta.World})
	s.Schedule.Append(&tracelog.Interval{Thread: 0, First: 0, Last: meta.FinalGC - 1})
	for _, e := range sched[1:] {
		s.Schedule.Append(e)
	}
	for _, e := range dgs {
		s.Datagram.Append(e)
	}
	s.Schedule.Append(meta)
	if err := s.CloseWAL(); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzSolve salvages a three-member group from its WALs, one of them replaced
// by the fuzzer's bytes, and solves its recovery line — what djrecover does
// with every input. The solver must never panic, and a line it accepts must
// name only input members, each anchored at a checkpoint that member's
// salvaged schedule holds. Any other outcome is a returned error. Solving the
// group again with its members in reverse order gives the same Solution.
func FuzzSolve(f *testing.F) {
	dir := f.TempDir()
	dgs := [][]tracelog.Entry{nil, {
		dgMsg(1, 1, 100, 120), // stable under epoch 2
		dgMsg(2, 1, 170, 200), // in flight across epoch 2
	}, nil}
	var wals [][]byte
	var sets []*tracelog.Set
	for i, dg := range dgs {
		path := filepath.Join(dir, fmt.Sprintf("m%d.wal", i+1))
		wals = append(wals, memberWAL(f, path, ids.DJVMID(i+1), dg))
		s, _, err := tracelog.RecoverFile(path)
		if err != nil {
			f.Fatal(err)
		}
		sets = append(sets, s)
	}
	// The healthy group settles on its newest epoch, so the seeds reach the
	// accepted-line checks below.
	if sol, err := Solve(sets); err != nil || sol.Line == nil || sol.Line.Epoch != 2 {
		f.Fatalf("healthy group: solution %+v, error %v; want epoch 2", sol, err)
	}
	for i, w := range wals {
		f.Add(uint8(i), w)
		f.Add(uint8(i), w[:len(w)-5])  // the final vm-meta torn
		f.Add(uint8(i), w[:len(w)/2])  // the epoch-2 stamp lost
		f.Add(uint8(i), wals[(i+1)%3]) // two members claim one VM
	}
	f.Add(uint8(0), []byte(tracelog.WALMagic))

	f.Fuzz(func(t *testing.T, which uint8, wal []byte) {
		path := filepath.Join(t.TempDir(), "fuzzed.wal")
		if err := os.WriteFile(path, wal, 0o644); err != nil {
			t.Fatal(err)
		}
		fuzzed, _, err := tracelog.RecoverFile(path)
		if err != nil {
			return
		}
		group := append([]*tracelog.Set(nil), sets...)
		group[int(which)%len(group)] = fuzzed
		sol, err := Solve(group)
		reversed := slices.Clone(group)
		slices.Reverse(reversed)
		again, errAgain := Solve(reversed)
		if (err == nil) != (errAgain == nil) || err == nil && !reflect.DeepEqual(sol, again) {
			t.Fatalf("two solves of one group differ: %+v (error %v), then %+v (error %v)", sol, err, again, errAgain)
		}
		if err != nil || sol.Line == nil {
			return
		}
		checkpoints := map[ids.DJVMID]map[ids.GCount]bool{}
		for _, s := range group {
			idx, err := tracelog.BuildScheduleIndex(s.Schedule)
			if err != nil {
				t.Fatalf("Solve accepted a set whose schedule does not index: %v", err)
			}
			cps := map[ids.GCount]bool{}
			for _, cp := range idx.Checkpoints {
				cps[cp.GC] = true
			}
			checkpoints[idx.Meta.VM] = cps
		}
		for vm, gc := range sol.Line.Anchors {
			cps, ok := checkpoints[vm]
			switch {
			case !ok:
				t.Fatalf("epoch %d names vm %d, which is not an input member", sol.Line.Epoch, vm)
			case !cps[gc]:
				t.Fatalf("epoch %d anchors vm %d at %d, where its salvaged schedule holds no checkpoint", sol.Line.Epoch, vm, gc)
			}
		}
	})
}
