package tracelog

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/ids"
)

// Stream numbers one order stream of a VM the way the runtime numbers them: 0
// is the VM's global counter, k+1 the counter of registered object k under
// OrderSharded. Every stream's schedule has one shape — each thread's runs of
// consecutive counter values, and the notify and timed-wait records keyed by
// the stream's counter — and this file is where that shape meets the record
// kinds a schedule log holds: Interval, Notify and TimedWaitEntry on the
// global stream; ObjRun, ObjNotify and ObjTimedWait, whose counter is an
// ids.AccessSeq, on an object's.
type Stream uint64

// GlobalStream is the VM's global counter.
const GlobalStream Stream = 0

// ObjectStream returns the stream of registered object obj.
func ObjectStream(obj ids.ObjectID) Stream { return Stream(obj) + 1 }

func (s Stream) object() ids.ObjectID { return ids.ObjectID(s - 1) }

func (s Stream) String() string {
	if s == GlobalStream {
		return "global counter"
	}
	return s.object().String()
}

// At names counter value n of the stream: "counter 7" on the global stream,
// "access 7 of obj2" on an object's.
func (s Stream) At(n ids.GCount) string {
	if s == GlobalStream {
		return fmt.Sprintf("counter %d", n)
	}
	return fmt.Sprintf("access %d of %v", n, s.object())
}

// StreamSchedule is one order stream's recorded schedule.
type StreamSchedule struct {
	ID Stream
	// Runs holds each thread's runs on the stream in execution order: the
	// maximal stretches [First, Last] of consecutive counter values it took.
	Runs map[ids.ThreadNum][]Interval
	// Notifies and TimedWaits key the stream's notify payloads and timed-wait
	// resolutions by the counter value of the event (a timed wait's GC).
	Notifies   map[ids.GCount][]ids.ThreadNum
	TimedWaits map[ids.GCount]TimedWaitEntry
}

// End is one past the stream's last recorded counter value — the value the
// stream's counter reached — or 0 when the stream has no runs.
func (s *StreamSchedule) End() ids.GCount {
	var end ids.GCount
	for _, runs := range s.Runs {
		if n := len(runs); n > 0 && runs[n-1].Last >= end {
			end = runs[n-1].Last + 1
		}
	}
	return end
}

// Ordered returns the stream's runs in counter order, every thread's
// together.
func (s *StreamSchedule) Ordered() []Interval {
	n := 0
	for _, rs := range s.Runs {
		n += len(rs)
	}
	runs := make([]Interval, 0, n)
	for _, rs := range s.Runs {
		runs = append(runs, rs...)
	}
	slices.SortFunc(runs, func(a, b Interval) int { return cmp.Compare(a.First, b.First) })
	return runs
}

// AppendRun appends thread's run [first, last] of stream s.
func (l *Log) AppendRun(s Stream, thread ids.ThreadNum, first, last ids.GCount) {
	if s == GlobalStream {
		l.Append(&Interval{Thread: thread, First: first, Last: last})
		return
	}
	l.Append(&ObjRun{Obj: s.object(), Thread: thread, First: ids.AccessSeq(first), Last: ids.AccessSeq(last)})
}

// AppendNotify appends which threads the notify event at counter value n of
// stream s woke.
func (l *Log) AppendNotify(s Stream, n ids.GCount, woken []ids.ThreadNum) {
	if s == GlobalStream {
		l.Append(&Notify{GC: n, Woken: woken})
		return
	}
	l.Append(&ObjNotify{Obj: s.object(), Seq: ids.AccessSeq(n), Woken: woken})
}

// AppendTimedWait appends how the timed wait entered at counter value n of
// stream s resolved.
func (l *Log) AppendTimedWait(s Stream, n ids.GCount, check, timedOut bool) {
	if s == GlobalStream {
		l.Append(&TimedWaitEntry{GC: n, Check: check, TimedOut: timedOut})
		return
	}
	l.Append(&ObjTimedWait{Obj: s.object(), Seq: ids.AccessSeq(n), Check: check, TimedOut: timedOut})
}

// streamIndex gathers a schedule log's streams as BuildScheduleIndex
// walks it.
type streamIndex struct {
	streams map[Stream]*StreamSchedule
	// last is each object stream's last run so far: an object's runs are
	// logged in its counter order, whichever thread took them.
	last map[Stream]Interval
}

func (b *streamIndex) stream(id Stream) *StreamSchedule {
	s := b.streams[id]
	if s == nil {
		s = &StreamSchedule{
			ID:         id,
			Runs:       make(map[ids.ThreadNum][]Interval),
			Notifies:   make(map[ids.GCount][]ids.ThreadNum),
			TimedWaits: make(map[ids.GCount]TimedWaitEntry),
		}
		b.streams[id] = s
	}
	return s
}

// add indexes a schedule record that belongs to a stream, reporting false for
// any other kind. Validation is per thread on the global stream and per
// stream on an object's, in the texts each record kind has always had; a
// second notify or timed-wait record for one event is a duplicate.
func (b *streamIndex) add(e Entry) (bool, error) {
	switch v := e.(type) {
	case *Interval:
		if v.Last < v.First {
			return true, corruptf("interval for thread %d has Last %d < First %d", v.Thread, v.Last, v.First)
		}
		s := b.stream(GlobalStream)
		ivs := s.Runs[v.Thread]
		if n := len(ivs); n > 0 && ivs[n-1].Last >= v.First {
			return true, corruptf("intervals for thread %d out of order: [%d,%d] then [%d,%d]",
				v.Thread, ivs[n-1].First, ivs[n-1].Last, v.First, v.Last)
		}
		s.Runs[v.Thread] = append(ivs, *v)
	case *ObjRun:
		if v.Last < v.First {
			return true, corruptf("obj-run for %v has Last %d < First %d", v.Obj, v.Last, v.First)
		}
		id := ObjectStream(v.Obj)
		run := Interval{Thread: v.Thread, First: ids.GCount(v.First), Last: ids.GCount(v.Last)}
		if prev, ok := b.last[id]; ok && prev.Last >= run.First {
			return true, corruptf("obj-runs for %v out of order: [%d,%d] then [%d,%d]",
				v.Obj, prev.First, prev.Last, v.First, v.Last)
		}
		b.last[id] = run
		s := b.stream(id)
		s.Runs[v.Thread] = append(s.Runs[v.Thread], run)
	case *Notify:
		return true, put(b.stream(GlobalStream).Notifies, v.Kind(), v.GC, v.Woken)
	case *ObjNotify:
		return true, put(b.stream(ObjectStream(v.Obj)).Notifies, v.Kind(), ids.GCount(v.Seq), v.Woken)
	case *TimedWaitEntry:
		return true, put(b.stream(GlobalStream).TimedWaits, v.Kind(), v.GC, *v)
	case *ObjTimedWait:
		w := TimedWaitEntry{GC: ids.GCount(v.Seq), Check: v.Check, TimedOut: v.TimedOut}
		return true, put(b.stream(ObjectStream(v.Obj)).TimedWaits, v.Kind(), w.GC, w)
	default:
		return false, nil
	}
	return true, nil
}

// put keys a record of kind k by counter value n, unless one already is.
func put[V any](m map[ids.GCount]V, k Kind, n ids.GCount, v V) error {
	if _, dup := m[n]; dup {
		return dupError{k}
	}
	m[n] = v
	return nil
}

// sizeRuns gives every thread's runs on every stream their final capacity
// before the index is filled. Under real parallelism a log is mostly runs,
// one per lock hand-off, and a slice grown by append has allocated about five
// times what it ends up holding. The counts come from the records decoded in
// a walk of their own — never from a length field, so a log cannot make the
// index allocate more than a small multiple of its own size — and a damaged
// stream sizes what precedes the damage: the filling walk is the one that
// reports it.
func (b *streamIndex) sizeRuns(l *Log, sc *scratch) {
	type key struct {
		s Stream
		t ids.ThreadNum
	}
	counts := make(map[key]int)
	total := 0
	_ = l.walk(sc, func(e Entry, _, _ int) error {
		switch v := e.(type) {
		case *Interval:
			counts[key{GlobalStream, v.Thread}]++
			total++
		case *ObjRun:
			counts[key{ObjectStream(v.Obj), v.Thread}]++
			total++
		}
		return nil
	})
	// One backing array, carved: a thread's slice fills exactly its share
	// and never reallocates.
	runs := make([]Interval, total)
	for k, n := range counts {
		b.stream(k.s).Runs[k.t], runs = runs[:0:n], runs[n:]
	}
}
