package tracelog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
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
// appended earlier in the file and therefore also survives. Repair then keeps
// the cut [base, K) of what survived, the cut truncation makes (truncate.go).
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

func (w *WALWriter) syncLocked() {
	if w.err != nil {
		return
	}
	if err := w.w.Flush(); err != nil {
		w.err = err
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
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("tracelog: recover %s: %w", path, err)
	}
	rep := &RecoveryReport{Path: path}
	if len(data) < len(WALMagic) || string(data[:len(WALMagic)]) != WALMagic {
		return nil, nil, fmt.Errorf("%w: %s", ErrNotWAL, path)
	}

	// Each good frame's payload is one record: it goes into its log the way
	// Append would have put it there, so a recovered log is a recorded log's
	// chunks over again.
	s := NewSet()
	logs := s.logs()
	sc := new(scratch)
	var threads ids.ThreadNum
	off := len(WALMagic)
	for off < len(data) {
		logID, payload, reason := readFrame(data[off:], sc)
		if reason != "" {
			rep.Truncated = true
			rep.Reason = reason
			rep.DiscardedBytes = int64(len(data) - off)
			break
		}
		logs[logID].appendRecord(payload)
		if id, ok := netEventID(sc.recs[payload[0]]); ok {
			threads = max(threads, id.Thread)
		}
		rep.Frames++
		off += walFrameHdrLen + len(payload)
	}
	rep.GoodBytes = int64(off)
	rep.ScheduleRecords = s.Schedule.Len()
	rep.NetworkRecords = s.Network.Len()
	rep.DatagramRecords = s.Datagram.Len()

	if err := repairSet(s, rep, threads); err != nil {
		return nil, rep, err
	}
	return s, rep, nil
}

// readFrame is the scan-side inverse of writeFrame, and the only code that
// reads a frame: it checks the frame at the head of b and returns its log id
// and payload, or the reason the scan must stop here. A frame is good when
// its header is whole, its log id and length are plausible, its payload is
// whole and matches the checksum, and the payload decodes as exactly one
// record of a kind that belongs in the named log — so a frame whose checksum
// survived a crash but whose body is garbage still truncates the scan. The
// kind-versus-log check is what covers the log-id byte: the checksum spans
// only the payload, so without it one flipped id bit files an intact record
// into the wrong log, where it makes the whole salvage unusable instead of
// costing only the tail.
func readFrame(b []byte, sc *scratch) (logID uint8, payload []byte, reason string) {
	if len(b) < walFrameHdrLen {
		return 0, nil, "torn frame header"
	}
	logID = b[0]
	plen := int(binary.LittleEndian.Uint32(b[1:5]))
	sum := binary.LittleEndian.Uint32(b[5:9])
	if logID >= logCount {
		return 0, nil, fmt.Sprintf("invalid log id %d", logID)
	}
	if plen > maxWALPayload {
		return 0, nil, fmt.Sprintf("implausible frame length %d", plen)
	}
	if len(b) < walFrameHdrLen+plen {
		return 0, nil, "torn frame payload"
	}
	payload = b[walFrameHdrLen : walFrameHdrLen+plen]
	if crc32.ChecksumIEEE(payload) != sum {
		return 0, nil, "frame checksum mismatch"
	}
	records := 0
	_, err := walk(payload, 0, true, sc, func(e Entry, _, _ int) error {
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
		return 0, nil, err.Error()
	case records == 0:
		return 0, nil, "empty frame payload"
	}
	return logID, payload, ""
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
