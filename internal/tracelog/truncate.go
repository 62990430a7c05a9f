package tracelog

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"repro/internal/ids"
)

// Checkpoint-anchored WAL truncation and crash repair: one cut.
//
// Once a checkpoint at counter C is durable, every record below C is
// redundant — a resumed replay restores the checkpoint state and
// fast-forwards past the prefix; and a crashed WAL holds records past the
// last counter its intervals cover, which no replay reaches. Both paths keep
// one consistent cut of the recorded set: a counter window [base, end) and a
// liveness test for network events. TruncateWAL cuts at a retained
// checkpoint's counter with no end, keeping the network records a resumed
// replay can still ask for; RecoverFile's repair cuts at the truncation base
// and K, the first counter its runs leave uncovered, and keeps the network
// log whole.
//
// A cut walks the schedule log twice and each other log once, one scratch
// record at a time, never decoding a log whole. The survey walk finds the
// identity header, whether the log closed, the base, the checkpoints, and
// the global runs — flushed intervals, each open-interval note folded into
// the run it snapshots. reduce then emits the runs in the window, clipped at
// base and sorted by First, before every other record, in log order, whose
// counter key lies in the window (a timestamp's may also equal end) or that,
// keyed by a network event only, is live. So a compacted WAL reads: magic,
// identity header, truncation{base}, the runs, the other schedule records,
// the live network records, the datagram deliveries at or past base.
//
// The rewrite is atomic — built in a temp file, fsynced, and renamed over the
// WAL — so a crash leaves the old log or the compacted one, never a blend.
// The in-memory set is untouched: it still holds the full run.
//
// Contract: call TruncateWAL at the same thread-quiescent point a checkpoint
// requires, with every open schedule interval flushed first
// (core.VM.TruncateWAL does both). Quiescence is what makes the anchor
// checkpoint's thread bookkeeping (NextThread, TakerThread, MainEventNum) a
// complete liveness description: the only network records a post-anchor
// replay can request belong to the taker at or past its checkpointed event
// number, or to threads spawned after the anchor. It also keeps appends out
// of the rewrite, which would miss them.

// ErrNoAnchor reports that a truncation found fewer recorded checkpoints than
// its retention policy keeps, so there is nothing safe to anchor at yet.
var ErrNoAnchor = errors.New("tracelog: not enough checkpoints to anchor a WAL truncation")

// TruncateStats reports what a WAL truncation kept and dropped.
type TruncateStats struct {
	// BaseGC is the anchor checkpoint's counter: the compacted stream's first
	// covered counter value.
	BaseGC ids.GCount
	// KeptCheckpoints is the retention policy that chose the anchor.
	KeptCheckpoints int
	// Per-log record drop counts (records compacted away).
	DroppedSchedule int
	DroppedNetwork  int
	DroppedDatagram int
	// KeptRecords is the number of records framed into the compacted file.
	KeptRecords int
	// Bytes is the compacted file's on-disk size.
	Bytes int64
}

// TruncateWAL compacts the attached WAL to the records a replay resumed from
// a retained checkpoint can still need, anchored `keep` checkpoints back
// (keep=1 anchors at the latest checkpoint; keep=2 retains one older anchor
// so a recovered log still offers two resume points). Returns ErrNoAnchor
// until `keep` checkpoints have been recorded. See the package comment above
// for the quiescence contract; use core.VM.TruncateWAL from application code.
func (s *Set) TruncateWAL(keep int) (*TruncateStats, error) {
	w := s.WAL()
	if w == nil {
		return nil, fmt.Errorf("tracelog: TruncateWAL without an attached WAL")
	}
	keep = max(keep, 1)
	sv, err := surveySchedule(s.Schedule)
	switch {
	case err != nil:
		return nil, fmt.Errorf("tracelog: truncate: schedule: %w", err)
	case sv.header == nil:
		return nil, corruptf("truncate: no vm-meta header (was the WAL enabled before recording started?)")
	case len(sv.anchors) < keep:
		return nil, fmt.Errorf("%w: have %d, retaining %d", ErrNoAnchor, len(sv.anchors), keep)
	}
	anchor := sv.anchors[len(sv.anchors)-keep]
	st := &TruncateStats{BaseGC: anchor.GC, KeptCheckpoints: keep}
	// A replay resumed at or after the anchor runs only the taker thread
	// (from its checkpointed event number onward) and threads spawned after
	// the anchor; every other thread had finished by the anchor's quiescent
	// point and its per-event records are dead.
	c := cut{base: anchor.GC, end: math.MaxUint64, live: func(id ids.NetworkEventID) bool {
		return uint32(id.Thread) >= anchor.NextThread ||
			(id.Thread == anchor.TakerThread && id.Event >= anchor.MainEventNum)
	}}
	var runs int
	var dropped [logCount]int
	n, err := w.replace(func(emit func(logID uint8, e Entry)) (err error) {
		emit(logSchedule, &VMMeta{VM: sv.header.VM, World: sv.header.World})
		emit(logSchedule, &TruncationEntry{BaseGC: c.base})
		runs, dropped, err = c.reduce(s, sv.runs, emit)
		return err
	}, &st.KeptRecords)
	if err != nil {
		return nil, fmt.Errorf("tracelog: truncate: %w", err)
	}
	st.DroppedSchedule = sv.claims - runs + dropped[logSchedule]
	st.DroppedNetwork, st.DroppedDatagram = dropped[logNetwork], dropped[logDatagram]
	st.Bytes = n
	return st, nil
}

// survey is what one walk of a schedule log tells a cut.
type survey struct {
	header  *VMMeta // the first vm-meta: the recording's identity
	final   VMMeta  // the last vm-meta, which closed the log if closed
	closed  bool    // the log ends in a vm-meta with its thread count: a graceful Close
	base    ids.GCount
	anchors []CheckpointEntry // every checkpoint, in log order, without its state
	// runs holds the global runs that reach base, clipped at it, sorted by
	// First and then Thread, one per ⟨Thread, First⟩: a note and the interval
	// it snapshots, or several notes of one interval, fold into the longest.
	runs    []Interval
	claims  int           // interval and open-interval records walked
	notes   int           // open-interval records among them
	threads ids.ThreadNum // the highest thread any of them names
}

// surveySchedule walks l once with scratch records.
func surveySchedule(l *Log) (*survey, error) {
	sv := &survey{}
	err := l.walk(new(scratch), func(e Entry, _, _ int) error {
		sv.closed = false
		switch v := e.(type) {
		case *VMMeta:
			if sv.header == nil {
				h := *v
				sv.header = &h
			}
			sv.final, sv.closed = *v, v.Threads > 0
		case *TruncationEntry:
			sv.base = max(sv.base, v.BaseGC)
		case *CheckpointEntry:
			sv.anchors = append(sv.anchors, *v)
			sv.anchors[len(sv.anchors)-1].State = nil
		case *OpenInterval:
			sv.notes++
			sv.runs = append(sv.runs, Interval(*v))
		case *Interval:
			sv.runs = append(sv.runs, *v)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Coverage below the base is the anchor checkpoint's, but a straggler
	// there (a note written while an earlier truncation ran, say) is
	// tolerated and clipped. Sorted with the longer of a tie first, a run
	// folds every later claim of its ⟨Thread, First⟩ away.
	sv.claims = len(sv.runs)
	runs := sv.runs[:0]
	for _, r := range sv.runs {
		sv.threads = max(sv.threads, r.Thread)
		if r.Last >= sv.base {
			r.First = max(r.First, sv.base)
			runs = append(runs, r)
		}
	}
	slices.SortFunc(runs, func(a, b Interval) int {
		return cmp.Or(cmp.Compare(a.First, b.First), cmp.Compare(a.Thread, b.Thread), cmp.Compare(b.Last, a.Last))
	})
	sv.runs = slices.CompactFunc(runs, func(a, b Interval) bool { return a.Thread == b.Thread && a.First == b.First })
	return sv, nil
}

// cut is a consistent cut of a recorded set: the counter window [base, end)
// and the network events still live, nil for all of them.
type cut struct {
	base, end ids.GCount
	live      func(ids.NetworkEventID) bool
}

// reduce emits what survives c (see the package comment above) and reports
// how many runs it emitted and how many other records of each log it
// dropped. Vm-meta and truncation records are the caller's to emit; with live
// nil the network log survives whole and is not walked. A record keyed by a
// counter outside the window belongs to an event the cut supersedes or lost:
// for a group-epoch stamp, that is how a torn write demotes the group's
// recovery line, and how a compaction drops a stamp with its anchor.
func (c cut) reduce(s *Set, runs []Interval, emit func(logID uint8, e Entry)) (kept int, dropped [logCount]int, err error) {
	var iv Interval // one record for every run: emit keeps nothing of it
	for _, r := range runs {
		if r.Last >= c.base && r.First < c.end {
			iv, iv.First = r, max(r.First, c.base)
			emit(logSchedule, &iv)
			kept++
		}
	}
	sc := new(scratch)
	for id, l := range s.logs() {
		if id == logNetwork && c.live == nil {
			continue
		}
		err := l.walk(sc, func(e Entry, _, _ int) error {
			switch e.(type) {
			case *VMMeta, *TruncationEntry, *Interval, *OpenInterval:
				return nil
			}
			if c.keeps(e) {
				emit(uint8(id), e)
			} else {
				dropped[id]++
			}
			return nil
		})
		if err != nil {
			return 0, dropped, fmt.Errorf("%s: %w", logNames[id], err)
		}
	}
	return kept, dropped, nil
}

// keeps reports whether a record other than a run survives c.
func (c cut) keeps(e Entry) bool {
	if gc := gcField(e); gc != nil {
		_, stamp := e.(*TimestampEntry)
		return *gc >= c.base && (*gc < c.end || stamp && *gc == c.end)
	}
	if id, ok := netEventID(e); ok && c.live != nil {
		return c.live(id)
	}
	return true
}

// gcField returns the global counter value a record is keyed by — the counter
// of the critical event that logged it — or nil for a kind that carries none.
// With netEventID it is all that a cut needs to know about record types.
func gcField(e Entry) *ids.GCount {
	switch v := e.(type) {
	case *Notify:
		return &v.GC
	case *TimedWaitEntry:
		return &v.GC
	case *CheckpointEntry:
		return &v.GC
	case *TimestampEntry:
		return &v.GC
	case *GroupEpochEntry:
		return &v.GC
	case *DatagramRecvEntry:
		return &v.ReceiverGC
	}
	return nil
}

// netEventID extracts the network event id a network- or datagram-log record
// is keyed by.
func netEventID(e Entry) (ids.NetworkEventID, bool) {
	switch v := e.(type) {
	case *ServerSocketEntry:
		return v.ServerID, true
	case *ReadEntry:
		return v.EventID, true
	case *AvailableEntry:
		return v.EventID, true
	case *BindEntry:
		return v.EventID, true
	case *NetErrEntry:
		return v.EventID, true
	case *OpenConnectEntry:
		return v.EventID, true
	case *OpenAcceptEntry:
		return v.EventID, true
	case *OpenReadEntry:
		return v.EventID, true
	case *OpenWriteEntry:
		return v.EventID, true
	case *OpenDatagramEntry:
		return v.EventID, true
	case *EnvEntry:
		return v.EventID, true
	case *NetSpanEntry:
		return v.EventID, true
	case *DatagramRecvEntry:
		return v.EventID, true
	}
	return ids.NetworkEventID{}, false
}

// replace atomically rewrites the WAL file with the frames build emits,
// then swaps the writer onto the new file. Build runs without the writer's
// lock, which an append takes inside its log's: build walks the logs, and a
// walk takes the log's lock. Frames build emits go through writeFrame like
// appended ones. On failure the original file and writer are left untouched
// (truncation failure must not poison recording durability).
func (w *WALWriter) replace(build func(emit func(logID uint8, e Entry)) error, kept *int) (int64, error) {
	if err := w.Err(); err != nil {
		return 0, err
	}
	tmp := w.path + ".compact"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(f)
	_, werr := bw.WriteString(WALMagic)
	n := int64(len(WALMagic))
	var enc codec
	emit := func(logID uint8, e Entry) {
		if werr != nil {
			return
		}
		enc.buf = append(enc.buf[:0], byte(e.Kind()))
		e.code(&enc)
		if werr = writeFrame(bw, logID, enc.buf); werr == nil {
			n += int64(walFrameHdrLen + len(enc.buf))
			*kept++
		}
	}
	if err := build(emit); werr == nil {
		werr = err
	}
	if werr == nil {
		werr = bw.Flush()
	}
	if werr == nil {
		werr = f.Sync()
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if werr == nil {
		werr = w.err
	}
	if werr == nil {
		werr = os.Rename(tmp, w.path)
	}
	if werr != nil {
		f.Close()
		os.Remove(tmp)
		return 0, werr
	}
	// The temp fd now owns the renamed file, positioned at its end; subsequent
	// appends continue there. The replaced file's fd is all that is closed.
	old := w.f
	w.f, w.w, w.pending = f, bufio.NewWriter(f), 0
	old.Close()
	return n, nil
}

// Size reports the current on-disk size of the WAL file, flushing buffered
// frames first so the figure matches what recovery would see.
func (w *WALWriter) Size() (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	if err := w.w.Flush(); err != nil {
		w.err = err
		return 0, err
	}
	return w.f.Seek(0, io.SeekCurrent)
}
