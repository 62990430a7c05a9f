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
	log := ComposeSchedule(meta, ids.OrderGlobal, 0, [][]ids.ThreadNum{order}, nil)
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

// TestComposedStreamsIndexAsComposed: every consumer of a schedule reads it
// one order stream at a time, so each stream's table in the index must be
// exactly what was composed into it — its runs per thread and its notify and
// timed-wait records keyed by its own counter — whichever record kinds carry
// them in the log.
func TestComposedStreamsIndexAsComposed(t *testing.T) {
	meta := VMMeta{VM: 1, World: ids.ClosedWorld, Threads: 3}
	for _, tc := range []struct {
		name   string
		mode   ids.OrderMode
		orders [][]ids.ThreadNum
		extras []Entry
		want   []StreamSchedule
	}{
		{
			name:   "global",
			mode:   ids.OrderGlobal,
			orders: [][]ids.ThreadNum{{0, 0, 1, 2, 1}},
			extras: []Entry{
				&Notify{GC: 1, Woken: []ids.ThreadNum{2}},
				&TimedWaitEntry{GC: 3, Check: true, TimedOut: true},
			},
			want: []StreamSchedule{{
				ID: GlobalStream,
				Runs: map[ids.ThreadNum][]Interval{
					0: {{Thread: 0, First: 0, Last: 1}},
					1: {{Thread: 1, First: 2, Last: 2}, {Thread: 1, First: 4, Last: 4}},
					2: {{Thread: 2, First: 3, Last: 3}},
				},
				Notifies:   map[ids.GCount][]ids.ThreadNum{1: {2}},
				TimedWaits: map[ids.GCount]TimedWaitEntry{3: {GC: 3, Check: true, TimedOut: true}},
			}},
		},
		{
			name:   "sharded",
			mode:   ids.OrderSharded,
			orders: [][]ids.ThreadNum{{0, 1, 0}, {1, 1, 2, 1}, nil, {2}},
			extras: []Entry{
				&Notify{GC: 2, Woken: []ids.ThreadNum{1}},
				&ObjNotify{Obj: 0, Seq: 2, Woken: []ids.ThreadNum{1}},
				&ObjTimedWait{Obj: 2, Seq: 0, Check: true},
				&TimedWaitEntry{GC: 0},
			},
			want: []StreamSchedule{
				{
					ID: GlobalStream,
					Runs: map[ids.ThreadNum][]Interval{
						0: {{Thread: 0, First: 0, Last: 0}, {Thread: 0, First: 2, Last: 2}},
						1: {{Thread: 1, First: 1, Last: 1}},
					},
					Notifies:   map[ids.GCount][]ids.ThreadNum{2: {1}},
					TimedWaits: map[ids.GCount]TimedWaitEntry{0: {GC: 0}},
				},
				{
					ID: ObjectStream(0),
					Runs: map[ids.ThreadNum][]Interval{
						1: {{Thread: 1, First: 0, Last: 1}, {Thread: 1, First: 3, Last: 3}},
						2: {{Thread: 2, First: 2, Last: 2}},
					},
					Notifies:   map[ids.GCount][]ids.ThreadNum{2: {1}},
					TimedWaits: map[ids.GCount]TimedWaitEntry{},
				},
				// Object 1 was composed with no accesses: no record names it.
				{
					ID:         ObjectStream(2),
					Runs:       map[ids.ThreadNum][]Interval{2: {{Thread: 2, First: 0, Last: 0}}},
					Notifies:   map[ids.GCount][]ids.ThreadNum{},
					TimedWaits: map[ids.GCount]TimedWaitEntry{0: {GC: 0, Check: true}},
				},
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			idx, err := BuildScheduleIndex(ComposeSchedule(meta, tc.mode, 0, tc.orders, tc.extras))
			if err != nil {
				t.Fatalf("BuildScheduleIndex: %v", err)
			}
			if idx.OrderMode != tc.mode {
				t.Errorf("OrderMode = %v, want %v", idx.OrderMode, tc.mode)
			}
			if idx.Meta.FinalGC != ids.GCount(len(tc.orders[0])) {
				t.Errorf("FinalGC = %d, want %d", idx.Meta.FinalGC, len(tc.orders[0]))
			}
			if !reflect.DeepEqual(idx.Streams, tc.want) {
				t.Fatalf("streams:\n got %+v\nwant %+v", idx.Streams, tc.want)
			}
			for s, order := range tc.orders {
				if got := idx.Stream(Stream(s)).End(); got != ids.GCount(len(order)) {
					t.Errorf("%v ends at %d, want %d", Stream(s), got, len(order))
				}
			}
		})
	}
}

// A base counter offset (resumed VM) must flow through compose and flatten.
func TestComposeScheduleBaseGC(t *testing.T) {
	order := []ids.ThreadNum{1, 0, 1}
	meta := VMMeta{VM: 1, World: ids.ClosedWorld, Threads: 2}
	log := ComposeSchedule(meta, ids.OrderGlobal, 100, [][]ids.ThreadNum{order}, nil)
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
		runs := map[ids.ThreadNum][]Interval{}
		for _, iv := range ivs {
			runs[iv.Thread] = append(runs[iv.Thread], iv)
		}
		idx := &ScheduleIndex{Meta: VMMeta{FinalGC: 4}, Streams: []StreamSchedule{{Runs: runs}}}
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
