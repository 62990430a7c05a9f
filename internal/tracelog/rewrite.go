package tracelog

import (
	"fmt"

	"repro/internal/ids"
)

// This file holds the schedule rewrite helpers used by the schedule-space
// explorer (internal/explore): given an explicit order of thread turns per
// order stream, ComposeSchedule synthesizes a complete schedule log that
// passes BuildScheduleIndex and logcheck validation, ready to be replayed as
// the schedule log of a core.Config.ReplayLogs set. The helpers are also
// handy for building adversarial fuzz corpora: any permutation of thread
// turns yields a structurally valid log, whether or not it is causally legal.

// ComposeSchedule builds a schedule log from scratch.
//
// orders holds one order per stream, indexed by Stream: orders[s][i] names
// the thread that executes the event with counter value i of stream s, and
// on the global stream, orders[0], the one with counter value baseGC+i. Each
// order is compressed by CompressOrder into the runs the recorder's stream
// would have flushed, so a stream's runs partition its counter range and are
// strictly increasing per thread — the invariants BuildScheduleIndex and
// logcheck enforce. A sharded log (mode OrderSharded) starts with its
// order-mode record.
//
// extras are appended verbatim after the schedule body — notify records,
// checkpoints, timestamps, or anything else the caller wants carried over
// from a recording (their counter keys must already name slots of the
// synthesized orders). The VMMeta is appended last, with FinalGC forced to
// baseGC plus len(orders[0]); callers normally pass meta from the
// recording's index so VM, World and Threads agree.
func ComposeSchedule(meta VMMeta, mode ids.OrderMode, baseGC ids.GCount, orders [][]ids.ThreadNum, extras []Entry) *Log {
	log := NewLog()
	if mode == ids.OrderSharded {
		log.Append(&OrderModeEntry{Mode: mode})
	}
	meta.FinalGC = baseGC
	for s, order := range orders {
		base := ids.GCount(0)
		if s == int(GlobalStream) {
			base = baseGC
			meta.FinalGC += ids.GCount(len(order))
		}
		for _, r := range CompressOrder(base, order) {
			log.AppendRun(Stream(s), r.Thread, r.First, r.Last)
		}
	}
	for _, e := range extras {
		log.Append(e)
	}
	log.Append(&meta)
	return log
}

// CompressOrder run-length compresses one stream's order of thread turns
// into runs: slot i of order becomes counter value baseGC+i, and maximal runs
// of the same thread collapse into one Interval.
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

// FlattenIntervals inverts CompressOrder on the global stream: it
// reconstructs the total order of thread turns from a schedule index's global
// runs, one element per counter value in [idx.BaseGC, idx.Meta.FinalGC). It
// errors if the runs do not partition that range exactly (a gap or overlap
// means the log is not a complete schedule — the same condition logcheck's
// schedule pass reports).
func FlattenIntervals(idx *ScheduleIndex) ([]ids.ThreadNum, error) {
	var order []ids.ThreadNum
	next := idx.BaseGC
	for _, r := range idx.Streams[0].Ordered() {
		switch {
		case r.First < next:
			return nil, fmt.Errorf("tracelog: counter %d claimed twice", r.First)
		case r.First > next:
			return nil, fmt.Errorf("tracelog: counter %d unclaimed by any interval", next)
		case r.Last >= idx.Meta.FinalGC:
			return nil, fmt.Errorf("tracelog: thread %d interval [%d,%d] beyond final counter %d", r.Thread, r.First, r.Last, idx.Meta.FinalGC)
		}
		for range r.Last - r.First + 1 {
			order = append(order, r.Thread)
		}
		next = r.Last + 1
	}
	if next != idx.Meta.FinalGC {
		return nil, fmt.Errorf("tracelog: counter %d unclaimed by any interval", next)
	}
	return order, nil
}
