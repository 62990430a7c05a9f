package tracelog

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/ids"
)

// Log is a thread-safe, append-only stream of log records.
// A DJVM appends entries during the record phase; Bytes/SaveFile persist the
// stream and Parse/LoadSet reconstruct it for the replay phase.
//
// The stream is held as a list of chunks, and a byte that has been logged is
// written once to its chunk and at most once to the log's own file, and never
// changed while a walk may read it: Append encodes into the spare capacity of
// the last chunk (the open one), and a record that does not fit there seals
// that chunk and opens the next. A record is therefore always contiguous
// inside one chunk. Chunk capacities double from minChunk to maxChunk, so a
// VM that logs a few KB holds a few KB; a record larger than maxChunk gets a
// chunk of its own.
//
// A log may begin with a file extent: the first fileLen bytes of file, walked
// winSize bytes at a time, never held whole. A loaded log's extent is the
// file it was loaded from (LoadSet). A recording log makes its own once its
// sealed chunks hold more than a window, and from then on moves each sealed
// chunk there (spill) and opens the next in the array it has just written out,
// unless a walk copied the chunk list while that chunk was open (the walk
// rule): it holds one chunk, and a chunk a walk has seen is never rewritten.
type Log struct {
	mu      sync.Mutex
	file    *os.File
	fileLen int
	winSize int
	own     bool   // file is the log's own, made by spill
	wbuf    []byte // content's window: the extent's bytes from woff on
	woff    int
	chunks  [][]byte
	entries int
	// walks counts the walks that copied the chunk list, and openedAt is its
	// count when the open chunk opened: commit reuses the array of a spilled
	// chunk only if no walk can hold it.
	walks, openedAt int
	// kinds counts the records of each kind, for the indexes to size their
	// tables by.
	kinds [kindMax]int
	// enc is the log's reusable encoder: Append encodes straight into the
	// open chunk under mu, so the hot record path allocates nothing but
	// chunks.
	enc codec
	// wal, when set, receives a framed copy of every appended record tagged
	// with walID. Written under mu so the durable stream preserves append
	// order exactly.
	wal   *WALWriter
	walID uint8
}

// Chunk capacities: the first chunk of a log holds minChunk bytes, each next
// one twice the last, up to maxChunk. A loaded log reads window bytes a time.
const (
	minChunk = 4 << 10
	maxChunk = 1 << 20
	window   = 512 << 10
)

// NewLog returns an empty log.
func NewLog() *Log { return &Log{} }

// Append encodes and appends one entry. The record is complete when Append
// returns and the log keeps nothing of e: a []byte field of e may be the
// caller's own buffer.
func (l *Log) Append(e Entry) {
	l.mu.Lock()
	l.enc.buf = append(l.spare(), byte(e.Kind()))
	e.code(&l.enc)
	rec := l.commit(l.enc.buf)
	l.enc.buf = nil
	syncDue := l.wal != nil && l.wal.append(l.walID, rec)
	l.mu.Unlock()
	if syncDue {
		l.wal.Sync()
	}
}

// spare returns the open chunk's unused capacity as an empty slice. A record
// is encoded by appending to it: while the record fits it lands in place,
// right behind the chunk's last record, and once it does not, append moves
// what it holds — the bytes of this one record, nothing logged earlier — to
// an array of its own. Caller holds mu.
func (l *Log) spare() []byte {
	if n := len(l.chunks); n > 0 {
		return l.chunks[n-1][len(l.chunks[n-1]):]
	}
	return nil
}

// commit makes rec, one whole record appended to what spare returned, the
// log's next record and returns its bytes in the log. If rec fit the open
// chunk it is already in place. Otherwise that chunk is sealed as it stands,
// the sealed chunks may spill, and rec opens the next chunk: rec's own array
// when that is at least of the next capacity (a record that needs a chunk of
// its own is not copied again), or else a chunk of that capacity it is copied
// to — the array of the chunk just sealed if that spilled, has the capacity
// and no walk has copied the chunk list since it opened, else a fresh one.
// Caller holds mu.
func (l *Log) commit(rec []byte) []byte {
	l.entries++
	l.kinds[rec[0]]++ // a record starts with its kind
	next, free := minChunk, []byte(nil)
	if n := len(l.chunks); n > 0 {
		open := l.chunks[n-1]
		if len(rec) <= cap(open)-len(open) {
			l.chunks[n-1] = open[:len(open)+len(rec)]
			return rec
		}
		next = min(max(2*cap(open), minChunk), maxChunk)
		if l.spill(window) && cap(open) == next && l.openedAt == l.walks {
			free = open[:0]
		}
	}
	if cap(rec) < next {
		if free == nil {
			free = make([]byte, 0, next)
		}
		rec = append(free, rec...)
	}
	l.chunks, l.openedAt = append(l.chunks, rec), l.walks
	return rec
}

// spill writes the chunks, once they hold more than over bytes, to the end
// of the log's own file and drops them, first making the file, unlinked at
// once so that it ends with the process; it reports whether it wrote them
// all. Each chunk's bytes are in the file before fileLen covers them and
// fileLen before the chunk is dropped, so a walk that noted either still
// reads whole records. A loaded log, whose extent is not its own, and a log
// that cannot make or write its file keep their chunks. Caller holds mu, and
// every chunk is sealed: commit's, or the open one too once it is dropped.
func (l *Log) spill(over int) bool {
	if l.sizeLocked()-l.fileLen <= over || (l.file != nil && !l.own) {
		return false
	}
	if l.file == nil {
		f, err := os.CreateTemp("", "djvu-log-*")
		if err != nil {
			return false
		} else if os.Remove(f.Name()) != nil {
			f.Close()
			return false
		}
		l.file, l.winSize, l.own = f, window, true
	}
	for len(l.chunks) > 0 {
		if _, err := l.file.WriteAt(l.chunks[0], int64(l.fileLen)); err != nil {
			return false
		}
		l.fileLen += len(l.chunks[0])
		l.chunks = slices.Delete(l.chunks, 0, 1)
	}
	return true
}

// appendRecord appends one already-encoded record — what RecoverFile salvages
// from a WAL frame — the way Append places the records it encodes.
func (l *Log) appendRecord(rec []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.commit(append(l.spare(), rec...))
}

// Size reports the encoded size of the log in bytes. This is the "log size"
// quantity reported in the paper's Tables 1 and 2.
func (l *Log) Size() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sizeLocked()
}

func (l *Log) sizeLocked() int {
	n := l.fileLen
	for _, c := range l.chunks {
		n += len(c)
	}
	return n
}

// Len reports the number of entries appended.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.entries
}

// Count reports how many records of kind k the log holds.
func (l *Log) Count(k Kind) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.kinds[k]
}

// Bytes returns a copy of the encoded log, as far as its file still holds it.
func (l *Log) Bytes() []byte {
	var b bytes.Buffer
	l.writeTo(&b)
	return b.Bytes()
}

// Entries decodes and returns every record in append order. The entries alias
// the log's bytes: see walk.
func (l *Log) Entries() ([]Entry, error) {
	var out []Entry
	if err := l.walk(nil, func(e Entry, _, _ int) error {
		out = append(out, e)
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// Each decodes the log one record at a time in append order, invoking fn for
// each entry. It never materializes the full slice, nor reads more than a
// window of a file extent at once — the graph builder and djtrace stream
// multi-gigabyte logs through it. Each entry passed to fn is freshly
// allocated and aliases the log's bytes (see walk), or a window read for it
// alone; fn may retain it. A non-nil error from fn stops the walk as-is.
func (l *Log) Each(fn func(Entry) error) error {
	return l.walk(nil, func(e Entry, _, _ int) error { return fn(e) })
}

// walk runs the package's walk over the records the log holds when it is
// called, the file extent and then chunk after chunk; offsets, in its errors
// and to fn, are offsets in the whole stream. The extent and the chunks are
// read without the lock, which is sound because a logged byte is never
// changed: appends racing the walk only write past the lengths noted here, a
// spill only drops chunks from the log, not from the walk's copy, and the
// count of walks bumped here keeps commit from reusing a chunk copied here.
func (l *Log) walk(sc *scratch, fn func(e Entry, off, n int) error) error {
	l.mu.Lock()
	f, base, win := l.file, l.fileLen, l.winSize
	chunks := append([][]byte(nil), l.chunks...)
	l.walks++
	l.mu.Unlock()
	// A record a window cuts starts the next; one larger than it doubles it.
	for pos, buf := 0, []byte(nil); pos < base; {
		n := min(win, base-pos)
		if sc == nil || cap(buf) < n {
			buf = make([]byte, n)
		}
		used, err := readAt(f, buf[:n], pos)
		if err == nil {
			used, err = walk(buf[:n], pos, pos+n == base, sc, fn)
		}
		if err != nil {
			return err
		} else if used == 0 {
			win *= 2
		}
		pos += used
	}
	for _, c := range chunks {
		if _, err := walk(c, base, true, sc, fn); err != nil {
			return err
		}
		base += len(c)
	}
	return nil
}

// readAt is f.ReadAt, with the end of a file cut short under its log corrupt.
func readAt(f *os.File, p []byte, off int) (int, error) {
	n, err := f.ReadAt(p, int64(off))
	if err == io.EOF {
		err = fmt.Errorf("%w: the file ends at offset %d, inside the log", ErrCorrupt, off+n)
	}
	return n, err
}

// EachEntry is Each over a raw encoded stream: the one-chunk log.
func EachEntry(data []byte, fn func(Entry) error) error {
	return (&Log{chunks: [][]byte{data}}).Each(fn)
}

// scratch is what a walk reuses: one record per kind, decoded into again and
// again, and the codec that decodes them. One scratch serves any number of
// walks, so a scan that walks once per frame allocates nothing per frame;
// frame is where such a scan reads a frame too large to read in place
// (readFrame).
type scratch struct {
	recs  [kindMax]Entry
	c     codec
	frame []byte
}

// walk is the package's one decode loop: it decodes data one record at a time
// in append order and hands each to fn with its offset, counted from base
// (where data starts in its stream), and length. With sc nil every record,
// and the codec, is freshly allocated and fn may retain it. Otherwise the
// walk decodes with sc's codec into sc's records, so it allocates at most one
// record per kind, once per scratch; fn must copy what it keeps, bytes too.
// An error from fn stops the walk as-is; a record that does not decode fails
// with ErrCorrupt, naming its kind and the offset reached — or, unless data is
// last in its stream, ends the walk before it. walk returns how many bytes it
// consumed.
//
// Aliasing contract, for this and every function built on it (Parse,
// EachEntry, Log.Entries, Log.Each, the Build*Index functions): decoded
// entries alias the stream they were decoded from. A []byte field of an entry
// is a sub-slice of data with its capacity cut to its length — never a copy —
// so it is read-only, and it is valid for as long as data is left unchanged,
// which for a Log's chunks is forever: commit reuses only the array of a
// chunk that no walk has copied. Whoever hands such bytes to code that may
// write to them copies at that boundary: djsock and djgram into the
// application's read buffer (NetworkIndex.Content), BuildScheduleIndex into a
// checkpoint's State. Strings and decoded lists (Woken, Members) are fresh.
func walk(data []byte, base int, last bool, sc *scratch, fn func(Entry, int, int) error) (int, error) {
	var c *codec
	if sc != nil {
		c = &sc.c
		*c = codec{reading: true, buf: data}
	} else {
		c = &codec{reading: true, buf: data}
	}
	for !c.done() {
		start := c.off
		var k Kind
		raw(c, &k)
		var e Entry
		if sc != nil && k < kindMax {
			e = sc.recs[k]
		}
		if e == nil {
			var err error
			if e, err = newEntry(k); err != nil {
				return start, err
			}
			if sc != nil {
				sc.recs[k] = e
			}
		}
		e.code(c)
		if c.err != nil && !last {
			return start, nil
		} else if c.err != nil {
			return start, fmt.Errorf("%w: decoding %v record at offset %d", ErrCorrupt, k, base+c.off)
		}
		if err := fn(e, base+start, c.off-start); err != nil {
			return start, err
		}
	}
	return c.off, nil
}

// SaveFile writes the encoded log, straight from the log under its lock, to
// path.tmp, creating parent directories, and renames that over path: a failed
// save leaves the old file, and a log loaded from it keeps its bytes.
func (l *Log) SaveFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if os.IsNotExist(err) && os.MkdirAll(filepath.Dir(path), 0o755) == nil {
		f, err = os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	}
	if err == nil {
		err = l.writeTo(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(tmp, path)
		}
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("tracelog: save %s: %w", path, err)
	}
	return nil
}

// writeTo writes the stream to w: the file extent, then the chunks.
func (l *Log) writeTo(w io.Writer) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n, err := io.Copy(w, io.NewSectionReader(l.file, 0, int64(l.fileLen))); err != nil || n < int64(l.fileLen) {
		return cmp.Or(err, fmt.Errorf("%w: the file ends at offset %d, inside the log", ErrCorrupt, n))
	}
	for _, c := range l.chunks {
		if _, err := w.Write(c); err != nil {
			return err
		}
	}
	return nil
}

// content is NetworkIndex.Content. It reads the extent through the log's
// window, which replay, asking in about log order, moves forward.
func (l *Log) content(ev ids.NetworkEventID, row ContentRow, dst []byte) ([]byte, string, uint16, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fail := func(err error) ([]byte, string, uint16, error) {
		return nil, "", 0, fmt.Errorf("tracelog: %v record of event %v at offset %d: %w", row.kind, ev, row.Off, err)
	}
	off, n := int(row.Off), int(row.Len)
	var rec []byte
	if off >= l.fileLen {
		off -= l.fileLen
		for _, c := range l.chunks {
			if off < len(c) {
				rec = c[off:min(off+n, len(c))]
				break
			}
			off -= len(c)
		}
	} else if off >= l.woff && off+n <= l.woff+len(l.wbuf) {
		rec = l.wbuf[off-l.woff:][:n]
	} else {
		size := max(n, min(l.winSize, l.fileLen-off))
		l.wbuf = slices.Grow(l.wbuf[:0], size)[:size]
		got, err := readAt(l.file, l.wbuf, off)
		if l.wbuf, l.woff = l.wbuf[:got], off; got < n {
			return fail(err)
		}
		rec = l.wbuf[:n]
	}
	// Decoded by concrete type, so nothing escapes: a read allocates nothing.
	c := &codec{reading: true, buf: rec}
	var k Kind
	raw(c, &k)
	r, g := OpenReadEntry{}, OpenDatagramEntry{}
	switch {
	case k == row.kind && k == KindOpenRead:
		r.code(c)
	case k == row.kind && k == KindOpenDatagram:
		g.code(c)
		r.EventID, r.Data = g.EventID, g.Data
	default:
		c.fail()
	}
	if c.err != nil || c.off != len(rec) || r.EventID != ev || len(r.Data) != int(row.N) {
		return fail(corruptf("the log holds a %v record of event %v there", k, r.EventID))
	}
	return append(dst, r.Data...), g.SourceHost, g.SourcePort, nil
}

// Parse decodes an encoded log stream into its entries, which alias data (see
// walk).
func Parse(data []byte) ([]Entry, error) {
	return (&Log{chunks: [][]byte{data}}).Entries()
}

// The three logs of a set, in the order the WAL's frame tag numbers them.
const (
	logSchedule = iota
	logNetwork
	logDatagram
	logCount
)

// logNames names the three logs in errors, and (with ".log") on disk.
var logNames = [logCount]string{"schedule", "network", "datagram"}

// misplaced is the error for a known record found in a log it does not belong
// in.
func misplaced(k Kind, logID uint8) error {
	return corruptf("unexpected %v record in %s log", k, logNames[logID])
}

// Set bundles the three per-DJVM logs. The paper keeps a per-DJVM
// NetworkLogFile (§4.1.3) and RecordedDatagramLog (§4.2.2) next to the
// schedule log of the single-VM DejaVu core (§2.2); Set mirrors that layout.
type Set struct {
	// Schedule holds VMMeta, Interval, Notify and Checkpoint records.
	Schedule *Log
	// Network is the NetworkLogFile: stream-socket replay records plus all
	// open-world content records.
	Network *Log
	// Datagram is the RecordedDatagramLog.
	Datagram *Log

	// wal is the writer attached with AttachWAL, if any; snapshots read it.
	wal atomic.Pointer[WALWriter]
}

// NewSet returns an empty log set.
func NewSet() *Set {
	return &Set{Schedule: NewLog(), Network: NewLog(), Datagram: NewLog()}
}

// logs returns the set's three logs indexed by log id.
func (s *Set) logs() [logCount]*Log {
	return [logCount]*Log{s.Schedule, s.Network, s.Datagram}
}

// TotalSize is the total recorded bytes across the three logs — the paper's
// "log size" column ("the list of scheduling intervals for each thread and
// information related to network activity", §6).
func (s *Set) TotalSize() int {
	n := 0
	for _, l := range s.logs() {
		n += l.Size()
	}
	return n
}

// Save persists the three logs under dir as schedule.log, network.log and
// datagram.log.
func (s *Set) Save(dir string) error {
	for id, l := range s.logs() {
		if err := l.SaveFile(filepath.Join(dir, logNames[id]+".log")); err != nil {
			return err
		}
	}
	return nil
}

// Finish ends a recording: a log that has spilled writes its open chunk to
// its file too and holds no chunk; one that never spilled, or whose file
// fails the write, keeps its chunks.
func (s *Set) Finish() {
	for _, l := range s.logs() {
		l.mu.Lock()
		if l.own {
			l.spill(0)
		}
		l.mu.Unlock()
	}
}

// LoadSet opens the three logs saved by Save for replay. A file of more than
// one window is its log's extent, open until the set is dropped: it may be
// removed or replaced by a Save, but one changed in place reads as corrupt.
func LoadSet(dir string) (*Set, error) { return loadSet(dir, window) }

// loadSet is LoadSet through a window of win bytes. A set that fails to load
// closes the files it had opened.
func loadSet(dir string, win int) (*Set, error) {
	s := NewSet()
	for id, l := range s.logs() {
		name := logNames[id] + ".log"
		f, err := os.Open(filepath.Join(dir, name))
		if err == nil {
			if err = l.load(f, win); err != nil {
				err = fmt.Errorf("%s: %w", name, err)
			}
		}
		if err != nil {
			for _, l := range s.logs() {
				if l.file != nil {
					l.file.Close()
				}
			}
			return nil, fmt.Errorf("tracelog: load set: %w", err)
		}
	}
	return s, nil
}

// load makes l the log stored in f, keeping f as its extent or closing it.
func (l *Log) load(f *os.File, win int) error {
	fi, err := f.Stat()
	if err == nil && fi.Size() > int64(win) {
		l.file, l.fileLen, l.winSize = f, int(fi.Size()), win
		return l.countRecords()
	}
	if err == nil {
		buf := make([]byte, fi.Size())
		_, err = readAt(f, buf, 0)
		l.chunks = [][]byte{buf}
	}
	f.Close()
	if err != nil {
		return err
	}
	return l.countRecords()
}

// countRecords walks a loaded log, validating the framing and counting its
// records in all and per kind, so it reports the same Len() the recording
// Log did and its indexes are sized as the recording's would be.
func (l *Log) countRecords() error {
	return l.walk(new(scratch), func(e Entry, _, _ int) error {
		l.entries++
		l.kinds[e.Kind()]++
		return nil
	})
}
