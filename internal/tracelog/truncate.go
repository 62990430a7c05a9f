package tracelog

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/ids"
)

// Checkpoint-anchored WAL truncation.
//
// A long-running recorded service grows its WAL without bound; but once a
// checkpoint at counter C is durable, every record below C is redundant — a
// resumed replay restores the checkpoint state and fast-forwards past the
// prefix. TruncateWAL rewrites the durable file to exactly the live suffix:
//
//	magic, vm-meta header, chaos-plan (if any), truncation{BaseGC},
//	clipped schedule records ≥ BaseGC, live network records, datagram
//	records ≥ BaseGC
//
// anchored at a retained checkpoint (BaseGC equals that checkpoint's counter,
// and the checkpoint record itself is kept). The rewrite is atomic — the
// compacted image is built in a temp file, fsynced, and renamed over the WAL —
// so a crash at any moment leaves either the old complete log or the new
// compacted one, never a blend. The in-memory log set is left untouched: it
// still holds the full run and still replays from zero.
//
// Contract: call at the same thread-quiescent point a checkpoint requires,
// with every open schedule interval flushed first (core.VM.TruncateWAL does
// both). Quiescence is what makes the anchor checkpoint's thread bookkeeping
// (NextThread, TakerThread, MainEventNum) a complete liveness description:
// the only network records a post-anchor replay can request belong to the
// taker at or past its checkpointed event number, or to threads spawned
// after the anchor.

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
	if s.wal == nil {
		return nil, fmt.Errorf("tracelog: TruncateWAL without an attached WAL")
	}
	if keep < 1 {
		keep = 1
	}
	sched, err := s.Schedule.Entries()
	if err != nil {
		return nil, fmt.Errorf("tracelog: truncate: schedule: %w", err)
	}
	var header *VMMeta
	var anchors []*CheckpointEntry
	for _, e := range sched {
		switch v := e.(type) {
		case *VMMeta:
			if header == nil {
				header = v
			}
		case *CheckpointEntry:
			anchors = append(anchors, v)
		}
	}
	if header == nil {
		return nil, corruptf("truncate: no vm-meta header (was the WAL enabled before recording started?)")
	}
	if len(anchors) < keep {
		return nil, fmt.Errorf("%w: have %d, retaining %d", ErrNoAnchor, len(anchors), keep)
	}
	anchor := anchors[len(anchors)-keep]
	st := &TruncateStats{BaseGC: anchor.GC, KeptCheckpoints: keep}
	base := anchor.GC

	// A replay resumed at or after the anchor runs only the taker thread
	// (from its checkpointed event number onward) and threads spawned after
	// the anchor; every other thread had finished by the anchor's quiescent
	// point and its per-event records are dead.
	liveNet := func(id ids.NetworkEventID) bool {
		return uint32(id.Thread) >= anchor.NextThread ||
			(id.Thread == anchor.TakerThread && id.Event >= anchor.MainEventNum)
	}

	network, err := s.Network.Entries()
	if err != nil {
		return nil, fmt.Errorf("tracelog: truncate: network: %w", err)
	}
	datagram, err := s.Datagram.Entries()
	if err != nil {
		return nil, fmt.Errorf("tracelog: truncate: datagram: %w", err)
	}

	n, err := s.wal.replace(func(emit func(logID uint8, e Entry)) {
		emit(logSchedule, &VMMeta{VM: header.VM, World: header.World})
		emit(logSchedule, &TruncationEntry{BaseGC: base})
		for _, e := range sched {
			switch v := e.(type) {
			case *VMMeta, *TruncationEntry:
				// Header re-emitted above; any earlier truncation marker is
				// superseded by the new one.
				continue
			case *Interval:
				if v.Last < base {
					st.DroppedSchedule++
					continue
				}
				if v.First < base {
					iv := *v
					iv.First = base
					e = &iv
				}
			case *OpenInterval:
				// Open-interval notes' coverage is subsumed by the flushed
				// intervals the caller's pre-truncation flush produced.
				st.DroppedSchedule++
				continue
			}
			// A record keyed by a counter below the base belongs to an event
			// the anchor checkpoint supersedes. An epoch stamp anchored below
			// the new base names a checkpoint this compaction drops, so the
			// stamp goes with it.
			if gc := gcField(e); gc != nil && *gc < base {
				st.DroppedSchedule++
				continue
			}
			emit(logSchedule, e)
		}
		for _, e := range network {
			if id, ok := netEventID(e); ok && !liveNet(id) {
				st.DroppedNetwork++
				continue
			}
			emit(logNetwork, e)
		}
		for _, e := range datagram {
			if gc := gcField(e); gc != nil && *gc < base {
				st.DroppedDatagram++
				continue
			}
			emit(logDatagram, e)
		}
	}, &st.KeptRecords)
	if err != nil {
		return nil, fmt.Errorf("tracelog: truncate: %w", err)
	}
	st.Bytes = n
	return st, nil
}

// gcField returns the global counter value a record is keyed by — the counter
// of the critical event that logged it — or nil for a kind that carries none.
// With netEventID it is all that prefix repair and truncation need to know
// about record types: a record whose key falls outside the surviving counter
// window, or whose network event can no longer be replayed, is dropped.
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
// then swaps the writer onto the new file. Build runs with the writer locked,
// so concurrent appends serialize against the rewrite; frames build emits go
// through writeFrame like appended ones. On failure the original
// file and writer are left untouched (truncation failure must not poison
// recording durability).
func (w *WALWriter) replace(build func(emit func(logID uint8, e Entry)), kept *int) (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	tmp := w.path + ".compact"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(f)
	var werr error
	var n int64
	if _, err := bw.WriteString(WALMagic); err != nil {
		werr = err
	}
	n += int64(len(WALMagic))
	var scratch codec
	emit := func(logID uint8, e Entry) {
		if werr != nil {
			return
		}
		scratch.buf = append(scratch.buf[:0], byte(e.Kind()))
		e.code(&scratch)
		if werr = writeFrame(bw, logID, scratch.buf); werr == nil {
			n += int64(walFrameHdrLen + len(scratch.buf))
			*kept++
		}
	}
	build(emit)
	if werr == nil {
		werr = bw.Flush()
	}
	if werr == nil {
		werr = f.Sync()
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
