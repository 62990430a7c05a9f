package tracelog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/ids"
)

// Durable write-ahead logging for the record phase.
//
// A recording VM normally keeps its three logs in memory and persists them at
// Close; a crash loses the run. The WAL tees every append into a single
// on-disk file as a length+CRC32-framed record, fsynced every SyncEvery
// records. Because all appends of one VM are serialized (the VM performs them
// inside GC-critical sections), the single file preserves the true cross-log
// append order — so truncating a damaged WAL at the first torn frame yields a
// CONSISTENT cut: if a schedule interval covering counter gc survives, every
// network/datagram/notify record logged for an event at or before gc was
// appended earlier in the file and therefore also survives. Recovery and
// compaction read the file with one frame scan (readWAL), a frame at a time:
// repair keeps the cut [base, K) of what survived, a compaction the cut at
// its anchor (truncate.go).
//
// File layout:
//
//	magic "DJVUWAL1" (8 bytes)
//	frame*: [u8 logID][u32le payloadLen][u32le crc32-IEEE(payload)][payload]
//
// where logID selects the destination log (0=schedule, 1=network, 2=datagram)
// and payload is exactly one encoded log record (kind byte + fields), byte-for-
// byte identical to the in-memory stream.

// WALMagic is the 8-byte file header identifying a DejaVu write-ahead log.
const WALMagic = "DJVUWAL1"

// walFrameHdrLen is logID (1) + payload length (4) + CRC32 (4).
const walFrameHdrLen = 9

// maxWALPayload bounds a frame's declared payload length; anything larger is
// treated as corruption rather than an allocation request.
const maxWALPayload = 1 << 28

// DefaultSyncEvery is the fsync cadence used when WALOptions.SyncEvery is 0:
// flush+fsync after this many appended records.
const DefaultSyncEvery = 64

// ErrNotWAL reports that a file does not begin with the WAL magic.
var ErrNotWAL = errors.New("tracelog: not a write-ahead log")

// WALOptions configures a WALWriter.
type WALOptions struct {
	// SyncEvery is the fsync cadence: flush and fsync after this many
	// appended records. 0 means DefaultSyncEvery; negative means never sync
	// automatically (only on Sync/Close).
	SyncEvery int
	// OnSync, when set, is called after each completed fsync, under the
	// writer's lock. Stats counts the fsyncs either way.
	OnSync func()
}

// WALWriter appends framed log records to a single durable file. Errors are
// sticky: the first write or sync failure stops all further writing to the
// file, and Sync, Close, Size, Err and the truncation report it from then on.
// The in-memory log keeps recording, so the run itself is not lost — but its
// durability is, and the caller of Close is told so.
type WALWriter struct {
	mu      sync.Mutex
	f       *os.File
	w       *bufio.Writer
	path    string
	pending int
	opts    WALOptions
	err     error
	// records and syncs are written under mu and read without it, so Stats
	// never waits behind an fsync.
	records, syncs atomic.Uint64
}

// CreateWAL creates (truncating) the WAL file at path and writes its header.
func CreateWAL(path string, opts WALOptions) (*WALWriter, error) {
	if opts.SyncEvery == 0 {
		opts.SyncEvery = DefaultSyncEvery
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("tracelog: create wal %s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("tracelog: create wal %s: %w", path, err)
	}
	w := &WALWriter{f: f, w: bufio.NewWriter(f), path: path, opts: opts}
	if _, err := w.w.WriteString(WALMagic); err != nil {
		f.Close()
		return nil, fmt.Errorf("tracelog: create wal %s: %w", path, err)
	}
	return w, nil
}

// Err reports the sticky write error, if any.
func (w *WALWriter) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Stats reports the number of records appended and fsyncs performed.
func (w *WALWriter) Stats() (records, syncs uint64) {
	return w.records.Load(), w.syncs.Load()
}

// writeFrame is the only code that lays out a WAL frame —
// [logID][payloadLen][crc32(payload)][payload] — for appends and for the
// compacted image a truncation builds alike.
func writeFrame(bw *bufio.Writer, logID uint8, rec []byte) error {
	var hdr [walFrameHdrLen]byte
	hdr[0] = logID
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(rec)))
	binary.LittleEndian.PutUint32(hdr[5:9], crc32.ChecksumIEEE(rec))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	_, err := bw.Write(rec)
	return err
}

// append frames a copy of one encoded record and reports whether the fsync
// cadence is due: the caller syncs after releasing its log's lock, so that
// the log's readers never wait for an fsync.
func (w *WALWriter) append(logID uint8, rec []byte) (syncDue bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return false
	}
	if err := writeFrame(w.w, logID, rec); err != nil {
		w.err = err
		return false
	}
	w.records.Add(1)
	w.pending++
	return w.opts.SyncEvery > 0 && w.pending >= w.opts.SyncEvery
}

// flushLocked writes the buffered frames to the file; a failure is sticky.
func (w *WALWriter) flushLocked() error {
	if w.err == nil {
		w.err = w.w.Flush()
	}
	return w.err
}

func (w *WALWriter) syncLocked() {
	if w.flushLocked() != nil {
		return
	}
	if err := w.f.Sync(); err != nil {
		w.err = err
		return
	}
	w.pending = 0
	w.syncs.Add(1)
	if w.opts.OnSync != nil {
		w.opts.OnSync()
	}
}

// Sync flushes buffered frames and fsyncs the file.
func (w *WALWriter) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.syncLocked()
	return w.err
}

// Close syncs and closes the WAL file.
func (w *WALWriter) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.syncLocked()
	cerr := w.f.Close()
	if w.err == nil {
		w.err = cerr
	}
	return w.err
}

// attachWAL tees every subsequent append of this log into w, tagged with
// logID. The log must still be empty, or records already appended would be
// missing from the durable stream.
func (l *Log) attachWAL(w *WALWriter, logID uint8) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.entries > 0 {
		return fmt.Errorf("tracelog: AttachWAL on a log that already holds %d records", l.entries)
	}
	l.wal = w
	l.walID = logID
	return nil
}

// AttachWAL tees every subsequent append of the set's three logs into w.
// All three logs must still be empty. The set keeps a reference so SyncWAL
// and CloseWAL can reach the writer.
func (s *Set) AttachWAL(w *WALWriter) error {
	for id, l := range s.logs() {
		if err := l.attachWAL(w, uint8(id)); err != nil {
			return err
		}
	}
	s.wal.Store(w)
	return nil
}

// WAL returns the writer attached with AttachWAL, or nil.
func (s *Set) WAL() *WALWriter { return s.wal.Load() }

// SyncWAL flushes and fsyncs the attached WAL. No-op without one.
func (s *Set) SyncWAL() error {
	if w := s.WAL(); w != nil {
		return w.Sync()
	}
	return nil
}

// CloseWAL syncs and closes the attached WAL. No-op without one.
func (s *Set) CloseWAL() error {
	if w := s.WAL(); w != nil {
		return w.Close()
	}
	return nil
}

// RecoveryReport describes what RecoverFile salvaged from a WAL.
type RecoveryReport struct {
	Path string

	// Frame scan.
	Frames         int    // valid frames recovered
	GoodBytes      int64  // bytes of the valid prefix (including header)
	DiscardedBytes int64  // bytes dropped from the tail
	Truncated      bool   // whether anything was discarded
	Reason         string // why the scan stopped, when Truncated

	// Per-log record counts recovered from the valid prefix.
	ScheduleRecords int
	NetworkRecords  int
	DatagramRecords int

	// Prefix repair. Clean means the stream ends with the VM's final
	// vm-meta record (a graceful Close); otherwise the recovered set was
	// repaired to the largest replayable prefix and a vm-meta synthesized.
	Clean            bool
	Synthesized      bool
	VM               ids.DJVMID
	World            ids.World
	BaseGC           ids.GCount // truncation base: replay starts at or after it
	FinalGC          ids.GCount // replayable prefix: events [BaseGC, FinalGC)
	DroppedIntervals int        // schedule intervals beyond the prefix
	DroppedSchedule  int        // notify/timed-wait/checkpoint records dropped
	DroppedDatagrams int        // datagram deliveries beyond the prefix
	OpenNotes        int        // open-interval durability notes consumed
}

// RecoverFile scans a (possibly crashed) node's WAL, truncates at the first
// torn or corrupt frame, and returns the valid prefix as a log set ready for
// replay, plus a report of what was salvaged.
//
// If the valid prefix ends with the VM's final vm-meta record the run closed
// cleanly and the set is returned as-is. Otherwise the node crashed
// mid-record: open schedule intervals and the final meta never reached the
// log, so RecoverFile computes the largest contiguously covered counter
// prefix [base, K), cuts the set to it, and synthesizes a vm-meta with
// FinalGC = K. Replaying the recovered set with StopAtLogEnd reproduces the
// recorded execution deterministically up to the crash point.
func RecoverFile(path string) (*Set, *RecoveryReport, error) {
	rep := &RecoveryReport{Path: path}
	s, threads, err := readWAL(path, rep)
	if err != nil {
		return nil, nil, fmt.Errorf("tracelog: recover %s: %w", path, err)
	}
	if err := repairSet(s, rep, threads); err != nil {
		return nil, rep, err
	}
	return s, rep, nil
}

// readWAL is the one WAL reader, for recovery and truncation alike. It reads
// the file at path a frame at a time into logs filled the way Append fills
// them, so that they spill as a recording's do, up to the first frame that is
// not good, and notes in rep's frame-scan fields where and why it stopped;
// threads is the highest thread a network or datagram record names.
func readWAL(path string, rep *RecoveryReport) (*Set, ids.ThreadNum, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	info, err := f.Stat()
	r := bufio.NewReader(f)
	var magic []byte
	if err == nil {
		magic, err = r.Peek(len(WALMagic))
	}
	switch {
	case err != nil && err != io.EOF:
		return nil, 0, err
	case string(magic) != WALMagic:
		return nil, 0, ErrNotWAL
	}
	s, sc, size := NewSet(), new(scratch), info.Size()
	var threads ids.ThreadNum
	var payload []byte
	off, _ := r.Discard(len(WALMagic)) // the magic Peek buffered: it cannot fail
	for ; int64(off) < size; off += walFrameHdrLen + len(payload) {
		var logID uint8
		var reason string
		if logID, payload, reason, err = readFrame(r, size-int64(off), payload, sc); err != nil {
			return nil, 0, fmt.Errorf("frame at offset %d: %w", off, err)
		} else if reason != "" {
			rep.Truncated, rep.Reason, rep.DiscardedBytes = true, reason, size-int64(off)
			break
		}
		s.logs()[logID].appendRecord(payload)
		if id, ok := netEventID(sc.recs[payload[0]]); ok {
			threads = max(threads, id.Thread)
		}
		rep.Frames++
	}
	rep.GoodBytes = int64(off)
	rep.ScheduleRecords, rep.NetworkRecords, rep.DatagramRecords = s.Schedule.Len(), s.Network.Len(), s.Datagram.Len()
	return s, threads, nil
}

// readFrame is the scan-side inverse of writeFrame, and the only code that
// reads a frame: it reads the frame at the head of r, with left bytes of the
// file from there on, into buf's array and returns its log id and payload, or
// the reason the scan must stop here; err is a failed read. A frame is good
// when its header is whole, its log id and length plausible (the length
// checked against left before anything is read for it), its payload matches
// the checksum and decodes as exactly one record of a kind that belongs in
// the named log — so a frame whose checksum survived a crash but whose body
// is garbage still truncates the scan. The kind-versus-log check covers the
// log-id byte, which the checksum does not: without it one flipped id bit
// files an intact record into the wrong log, where it makes the whole salvage
// unusable instead of costing only the tail.
func readFrame(r io.Reader, left int64, buf []byte, sc *scratch) (logID uint8, payload []byte, reason string, err error) {
	if left < walFrameHdrLen {
		return 0, buf, "torn frame header", nil
	}
	hdr := slices.Grow(buf[:0], walFrameHdrLen)[:walFrameHdrLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, hdr, "", err
	}
	logID, plen, sum := hdr[0], int64(binary.LittleEndian.Uint32(hdr[1:5])), binary.LittleEndian.Uint32(hdr[5:9])
	switch {
	case logID >= logCount:
		return 0, hdr, fmt.Sprintf("invalid log id %d", logID), nil
	case plen > maxWALPayload:
		return 0, hdr, fmt.Sprintf("implausible frame length %d", plen), nil
	case plen > left-walFrameHdrLen:
		return 0, hdr, "torn frame payload", nil
	}
	payload = slices.Grow(hdr[:0], int(plen))[:plen]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, payload, "", err
	} else if crc32.ChecksumIEEE(payload) != sum {
		return 0, payload, "frame checksum mismatch", nil
	}
	records := 0
	_, err = walk(payload, 0, true, sc, func(e Entry, _, _ int) error {
		if records++; records > 1 {
			return corruptf("frame holds more than one record")
		}
		if kindTable[e.Kind()].log != logID {
			return misplaced(e.Kind(), logID)
		}
		return nil
	})
	switch {
	case err != nil:
		return 0, payload, err.Error(), nil
	case records == 0:
		return 0, payload, "empty frame payload", nil
	}
	return logID, payload, "", nil
}

// repairSet cuts a recovered set to its largest replayable prefix and
// synthesizes the final vm-meta when the recording VM never closed; threads
// is the highest thread a network or datagram record names.
func repairSet(s *Set, rep *RecoveryReport, threads ids.ThreadNum) error {
	sv, err := surveySchedule(s.Schedule)
	if err != nil {
		return fmt.Errorf("tracelog: recover %s: schedule: %w", rep.Path, err)
	}
	// A checkpoint-anchored truncation rewrites the durable stream to start at
	// a checkpoint's counter; the replayable range then begins at that base,
	// not zero, and the coverage sweep below must start there too.
	rep.BaseGC = sv.base
	// A graceful Close appends the final vm-meta as the very last schedule
	// record, with the thread count filled in; the durable identity header
	// written at EnableWAL time carries Threads == 0. Distinguish the two so
	// a full WAL of a cleanly closed run needs no repair.
	if sv.closed {
		rep.Clean = true
		rep.VM, rep.World, rep.FinalGC = sv.final.VM, sv.final.World, sv.final.FinalGC
		return nil
	}
	// Crashed mid-record: identity comes from the header meta.
	if sv.header == nil {
		return corruptf("recover %s: no vm-meta identity record in salvaged prefix (was the WAL enabled before recording started?)", rep.Path)
	}
	rep.Synthesized = true
	rep.VM, rep.World = sv.header.VM, sv.header.World
	rep.OpenNotes = sv.notes

	// The replayable prefix [base, K): K is the first global counter no
	// salvaged run covers. The runs are flushed intervals and open-interval
	// notes, which snapshot a thread's still-open interval (without them, a
	// thread parked in a long blocking event — main in Join, say — would
	// hold the whole prefix hostage behind its unflushed interval); sorted
	// by First, a sweep finds the first gap. A run that starts below K ends
	// below it, since the sweep passed it. Everything below K is fully
	// scheduled; per-event records (notify, datagram deliveries, network
	// entries) for events below K are present because they were appended to
	// the WAL at event time, before the coverage claiming them.
	k := sv.base
	for _, r := range sv.runs {
		if r.First > k {
			break
		}
		k = max(k, r.Last+1)
	}
	rep.FinalGC = k

	// The cut [base, K) rebuilds the schedule and datagram logs: the identity
	// header and base, the runs as ordinary intervals, the records keyed
	// inside the prefix, and the synthesized meta, which wins in
	// BuildScheduleIndex (last meta wins). Notes are not carried over: their
	// information now lives in the runs. Threads whose intervals were lost
	// can still be named by salvaged network and datagram records, and
	// logcheck validates those against the meta's thread count.
	out := [logCount]*Log{logSchedule: NewLog(), logDatagram: NewLog()}
	out[logSchedule].Append(sv.header)
	if sv.base > 0 {
		out[logSchedule].Append(&TruncationEntry{BaseGC: sv.base})
	}
	runs, dropped, err := cut{base: sv.base, end: k}.reduce(s, sv.runs, func(id uint8, e Entry) { out[id].Append(e) })
	if err != nil {
		return fmt.Errorf("tracelog: recover %s: %w", rep.Path, err)
	}
	rep.DroppedIntervals = len(sv.runs) - runs
	rep.DroppedSchedule, rep.DroppedDatagrams = dropped[logSchedule], dropped[logDatagram]
	out[logSchedule].Append(&VMMeta{VM: sv.header.VM, World: sv.header.World, Threads: uint32(max(threads, sv.threads)) + 1, FinalGC: k})
	s.Schedule, s.Datagram = out[logSchedule], out[logDatagram]
	return nil
}
