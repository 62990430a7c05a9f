package tracelog

import (
	"reflect"
	"testing"

	"repro/internal/ids"
)

// A composed schedule must index cleanly and invert back to the exact order
// it was built from, in both order modes.
func TestComposeScheduleRoundTrip(t *testing.T) {
	order := []ids.ThreadNum{0, 0, 1, 2, 1, 1, 0, 2}
	meta := VMMeta{VM: 3, World: ids.ClosedWorld, Threads: 3}
	log := ComposeSchedule(meta, ids.OrderGlobal, 0, order, nil, nil)
	idx, err := BuildScheduleIndex(log)
	if err != nil {
		t.Fatalf("BuildScheduleIndex: %v", err)
	}
	if idx.Meta.FinalGC != ids.GCount(len(order)) {
		t.Fatalf("FinalGC = %d, want %d", idx.Meta.FinalGC, len(order))
	}
	got, err := FlattenIntervals(idx)
	if err != nil {
		t.Fatalf("FlattenIntervals: %v", err)
	}
	if !reflect.DeepEqual(got, order) {
		t.Fatalf("round trip: got %v, want %v", got, order)
	}
}

func TestComposeScheduleSharded(t *testing.T) {
	order := []ids.ThreadNum{0, 1, 0}
	objOrders := map[ids.ObjectID][]ids.ThreadNum{
		1: {1, 1, 2, 1},
		2: {2},
	}
	meta := VMMeta{VM: 1, World: ids.ClosedWorld, Threads: 3}
	log := ComposeSchedule(meta, ids.OrderSharded, 0, order, objOrders, nil)
	idx, err := BuildScheduleIndex(log)
	if err != nil {
		t.Fatalf("BuildScheduleIndex: %v", err)
	}
	if idx.OrderMode != ids.OrderSharded {
		t.Fatalf("OrderMode = %v, want sharded", idx.OrderMode)
	}
	wantRuns := map[ids.ObjectID][]ObjRun{
		1: {{Obj: 1, Thread: 1, First: 0, Last: 1}, {Obj: 1, Thread: 2, First: 2, Last: 2}, {Obj: 1, Thread: 1, First: 3, Last: 3}},
		2: {{Obj: 2, Thread: 2, First: 0, Last: 0}},
	}
	for obj, want := range wantRuns {
		got := idx.ObjRuns[obj]
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("obj %d runs: got %+v, want %+v", obj, got, want)
		}
	}
}

// A base counter offset (resumed VM) must flow through compose and flatten.
func TestComposeScheduleBaseGC(t *testing.T) {
	order := []ids.ThreadNum{1, 0, 1}
	meta := VMMeta{VM: 1, World: ids.ClosedWorld, Threads: 2}
	log := ComposeSchedule(meta, ids.OrderGlobal, 100, order, nil, nil)
	idx, err := BuildScheduleIndex(log)
	if err != nil {
		t.Fatalf("BuildScheduleIndex: %v", err)
	}
	// BaseGC in an index comes from a checkpoint, not from intervals; fake it
	// the way a resumed replay would see it.
	idx.BaseGC = 100
	if idx.Meta.FinalGC != 103 {
		t.Fatalf("FinalGC = %d, want 103", idx.Meta.FinalGC)
	}
	got, err := FlattenIntervals(idx)
	if err != nil {
		t.Fatalf("FlattenIntervals: %v", err)
	}
	if !reflect.DeepEqual(got, order) {
		t.Fatalf("round trip: got %v, want %v", got, order)
	}
}

func TestFlattenIntervalsRejectsGapsAndOverlaps(t *testing.T) {
	mk := func(ivs ...Interval) *ScheduleIndex {
		idx := &ScheduleIndex{
			Meta:      VMMeta{FinalGC: 4},
			Intervals: map[ids.ThreadNum][]Interval{},
		}
		for _, iv := range ivs {
			idx.Intervals[iv.Thread] = append(idx.Intervals[iv.Thread], iv)
		}
		return idx
	}
	// Gap: counter 2 unclaimed.
	if _, err := FlattenIntervals(mk(
		Interval{Thread: 0, First: 0, Last: 1},
		Interval{Thread: 1, First: 3, Last: 3},
	)); err == nil {
		t.Fatal("gap not rejected")
	}
	// Overlap: counter 1 claimed twice.
	if _, err := FlattenIntervals(mk(
		Interval{Thread: 0, First: 0, Last: 1},
		Interval{Thread: 1, First: 1, Last: 3},
	)); err == nil {
		t.Fatal("overlap not rejected")
	}
	// Out of range.
	if _, err := FlattenIntervals(mk(
		Interval{Thread: 0, First: 0, Last: 4},
	)); err == nil {
		t.Fatal("out-of-range interval not rejected")
	}
}
