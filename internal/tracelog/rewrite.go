package tracelog

import (
	"fmt"
	"sort"

	"repro/internal/ids"
)

// This file holds the schedule rewrite helpers used by the schedule-space
// explorer (internal/explore): given an explicit total order of thread turns,
// ComposeSchedule synthesizes a complete schedule log that passes
// BuildScheduleIndex and logcheck validation, ready to be replayed as the
// schedule log of a core.Config.ReplayLogs set. The helpers are also handy for
// building adversarial fuzz corpora: any permutation of thread turns yields a
// structurally valid log, whether or not it is causally legal.

// ComposeSchedule builds a schedule log from scratch.
//
// order is the synthesized total order of the VM's *global* critical events:
// order[i] names the thread that executes the event with global counter
// BaseGC+i. Consecutive slots owned by the same thread are run-length
// compressed into one Interval, exactly as the recorder's
// extendIntervalLocked would have produced, so the composed intervals
// partition [BaseGC, BaseGC+len(order)) and are strictly increasing per
// thread — the two invariants BuildScheduleIndex and logcheck enforce.
//
// objOrders, used only when mode is OrderSharded, gives the per-object access
// order for each registered shared object: objOrders[obj][s] names the thread
// that performs access sequence s on obj. Each object's order is compressed
// into ObjRun records the same way.
//
// extras are appended verbatim after the schedule body — notify records,
// checkpoints, timestamps, or anything else the caller wants carried over
// from a recording (their counter keys must already name slots of the
// synthesized order). The final VMMeta is appended last, with
// FinalGC forced to meta.FinalGC's base plus len(order); callers normally
// pass meta from the recording's index so VM, World, Threads, and the
// BaseGC encoded in FinalGC-vs-interval arithmetic all agree.
func ComposeSchedule(meta VMMeta, mode ids.OrderMode, baseGC ids.GCount, order []ids.ThreadNum, objOrders map[ids.ObjectID][]ids.ThreadNum, extras []Entry) *Log {
	log := NewLog()
	if mode == ids.OrderSharded {
		log.Append(&OrderModeEntry{Mode: mode})
	}
	for _, iv := range CompressOrder(baseGC, order) {
		iv := iv
		log.Append(&iv)
	}
	if mode == ids.OrderSharded {
		objs := make([]ids.ObjectID, 0, len(objOrders))
		for obj := range objOrders {
			objs = append(objs, obj)
		}
		sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
		for _, obj := range objs {
			seq := objOrders[obj]
			for i := 0; i < len(seq); {
				j := i + 1
				for j < len(seq) && seq[j] == seq[i] {
					j++
				}
				log.Append(&ObjRun{
					Obj:    obj,
					Thread: seq[i],
					First:  ids.AccessSeq(i),
					Last:   ids.AccessSeq(j - 1),
				})
				i = j
			}
		}
	}
	for _, e := range extras {
		log.Append(e)
	}
	meta.FinalGC = baseGC + ids.GCount(len(order))
	log.Append(&meta)
	return log
}

// CompressOrder run-length compresses a total order of thread turns into
// schedule intervals: slot i of order becomes global counter baseGC+i, and
// maximal runs of the same thread collapse into one Interval.
func CompressOrder(baseGC ids.GCount, order []ids.ThreadNum) []Interval {
	var out []Interval
	for i := 0; i < len(order); {
		j := i + 1
		for j < len(order) && order[j] == order[i] {
			j++
		}
		out = append(out, Interval{
			Thread: order[i],
			First:  baseGC + ids.GCount(i),
			Last:   baseGC + ids.GCount(j-1),
		})
		i = j
	}
	return out
}

// FlattenIntervals inverts CompressOrder: it reconstructs the total order of
// thread turns from a schedule index's intervals. The returned slice has one
// element per global counter value in [idx.BaseGC, idx.Meta.FinalGC);
// FlattenIntervals errors if the intervals do not partition that range
// exactly (a gap or overlap means the log is not a complete schedule — the
// same condition logcheck's schedule pass reports).
func FlattenIntervals(idx *ScheduleIndex) ([]ids.ThreadNum, error) {
	if idx.Meta.FinalGC < idx.BaseGC {
		return nil, fmt.Errorf("tracelog: final counter %d below base %d", idx.Meta.FinalGC, idx.BaseGC)
	}
	n := int(idx.Meta.FinalGC - idx.BaseGC)
	order := make([]ids.ThreadNum, n)
	seen := make([]bool, n)
	for th, ivs := range idx.Intervals {
		for _, iv := range ivs {
			if iv.First < idx.BaseGC || iv.Last < iv.First || ids.GCount(n) <= iv.Last-idx.BaseGC {
				return nil, fmt.Errorf("tracelog: thread %d interval [%d,%d] outside [%d,%d)", th, iv.First, iv.Last, idx.BaseGC, idx.Meta.FinalGC)
			}
			for gc := iv.First; gc <= iv.Last; gc++ {
				slot := int(gc - idx.BaseGC)
				if seen[slot] {
					return nil, fmt.Errorf("tracelog: counter %d claimed twice", gc)
				}
				seen[slot] = true
				order[slot] = th
			}
		}
	}
	for slot, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("tracelog: counter %d unclaimed by any interval", idx.BaseGC+ids.GCount(slot))
		}
	}
	return order, nil
}
