// Package tracelog implements the persistent logs a DJVM produces during the
// record phase and consumes during the replay phase:
//
//   - the schedule log, holding the logical thread schedule (one
//     ⟨FirstCEvent, LastCEvent⟩ interval pair per logical schedule interval,
//     §2.2) and synchronization payloads (which waiter a notify woke);
//   - the NetworkLogFile, holding per-network-event replay information
//     (ServerSocketEntries, read sizes, bind ports, available counts, errors,
//     and — in the open world — full message contents, §4.1.3, §5);
//   - the RecordedDatagramLog, holding ⟨ReceiverGCounter, datagramId⟩ tuples
//     for every datagram delivered to the application (§4.2.2).
//
// All records are encoded with a compact varint-based binary codec so that log
// sizes reported by the benchmark harness are comparable in spirit to the
// paper's "two counter values per thousands of events" efficiency claim.
package tracelog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/ids"
)

// ErrCorrupt is returned when a log cannot be decoded.
var ErrCorrupt = errors.New("tracelog: corrupt log")

// enc is an append-only varint encoder over a byte slice.
type enc struct {
	buf []byte
}

func (e *enc) u64(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

func (e *enc) u32(v uint32) { e.u64(uint64(v)) }

func (e *enc) u16(v uint16) { e.u64(uint64(v)) }

func (e *enc) u8(v uint8) { e.buf = append(e.buf, v) }

func (e *enc) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

func (e *enc) bytes(b []byte) {
	e.u64(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

func (e *enc) str(s string) {
	e.u64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// dec is a sequential varint decoder over a byte slice. Decoding failures are
// sticky: once err is set every subsequent call returns zero values.
type dec struct {
	buf []byte
	off int
	err error
}

func (d *dec) fail() {
	if d.err == nil {
		d.err = ErrCorrupt
	}
}

func (d *dec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *dec) u32() uint32 {
	v := d.u64()
	if v > 0xffffffff {
		d.fail()
		return 0
	}
	return uint32(v)
}

// obj decodes an ObjectID. The largest one names no object: its stream
// number, ObjectStream, would wrap to the global stream's.
func (d *dec) obj() ids.ObjectID {
	v := d.u64()
	if v == math.MaxUint64 {
		d.fail()
	}
	return ids.ObjectID(v)
}

func (d *dec) u16() uint16 {
	v := d.u64()
	if v > 0xffff {
		d.fail()
		return 0
	}
	return uint16(v)
}

func (d *dec) u8() uint8 {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail()
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *dec) bool() bool { return d.u8() != 0 }

// bytes returns the next length-prefixed field as a sub-slice of the stream,
// capacity cut to its length: the decoder never copies a payload. See walk for
// the aliasing contract this puts on every decoded entry.
func (d *dec) bytes() []byte {
	n := d.u64()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail()
		return nil
	}
	end := d.off + int(n)
	b := d.buf[d.off:end:end]
	d.off = end
	return b
}

// decodeList decodes a length-prefixed list of at most 2²⁰ elements, each
// decoded by elem and taking at least minSize bytes. The list is sized by
// what the rest of the stream could hold, not by its length field, so a
// damaged length cannot make the decoder allocate more than the stream
// encodes; a list that runs out of stream fails where its elements do.
func decodeList[T any](d *dec, minSize int, elem func(*dec) T) []T {
	n := d.u64()
	if d.err != nil || n > 1<<20 {
		d.fail()
		return nil
	}
	out := make([]T, 0, min(n, uint64((len(d.buf)-d.off)/minSize)))
	for range n {
		v := elem(d)
		if d.err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

func (d *dec) str() string {
	return string(d.bytes())
}

func (d *dec) done() bool { return d.err != nil || d.off >= len(d.buf) }

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}
