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

// codec is the package's one statement of the record format. Each record
// type's code method lists the record's fields in wire order, each through one
// of the field helpers below. With reading unset, that list appends the fields
// to buf; with it set, the same list reads them back from buf at off. A
// record's encoder and its decoder are therefore one list and cannot disagree.
//
// The contract. Encoding writes every field, never fails, and never writes to
// the record. Decoding checks each field as it reads it, and fails with
// ErrCorrupt on:
//   - a value its field's type cannot hold (the u16 and u32 ranges);
//   - the one ObjectID that names no stream;
//   - a length or list that runs past the end of buf;
//   - a list longer than 2²⁰ elements.
//
// A failure is sticky: once err is set no later field is read, and the
// half-decoded record is walk's to discard. A decoded []byte aliases buf
// (see walk); strings never do, and lists are fresh.
type codec struct {
	reading bool
	buf     []byte
	off     int
	err     error
}

func (c *codec) fail() { c.err = ErrCorrupt }

func (c *codec) done() bool { return c.err != nil || c.off >= len(c.buf) }

// uvarint codes an integer field as a uvarint; an int64 travels as its bits.
// A value read that the field's type cannot hold is corrupt.
func uvarint[T ~uint16 | ~uint32 | ~uint64 | ~int64](c *codec, v *T) {
	if !c.reading {
		c.buf = binary.AppendUvarint(c.buf, uint64(*v))
		return
	}
	if c.err != nil {
		return
	}
	x, n := binary.Uvarint(c.buf[c.off:])
	if n <= 0 {
		c.fail()
		return
	}
	c.off += n
	if uint64(T(x)) != x {
		c.fail()
	}
	*v = T(x)
}

// raw codes a one-byte field as the byte itself.
func raw[T ~uint8](c *codec, v *T) {
	switch {
	case !c.reading:
		c.buf = append(c.buf, uint8(*v))
	case c.err == nil && c.off < len(c.buf):
		*v = T(c.buf[c.off])
		c.off++
	default:
		c.fail()
	}
}

// flag codes a bool as the byte 1 or 0; any other byte reads as true.
func (c *codec) flag(v *bool) {
	var b uint8
	if *v {
		b = 1
	}
	raw(c, &b)
	if c.reading {
		*v = b != 0
	}
}

// delta codes v as its distance from base, a field coded before it: a run is
// long, but the distance is what a varint compresses best.
func delta[T ~uint64](c *codec, v *T, base T) {
	d := *v - base
	uvarint(c, &d)
	if c.reading {
		*v = base + d
	}
}

// blob codes a length-prefixed byte field or string. A []byte read is a
// sub-slice of buf, capacity cut to its length: the codec never copies a
// payload (see walk for the aliasing contract this puts on every decoded
// entry), and a string read keeps the string a scratch record already holds.
func blob[T []byte | string](c *codec, v *T) {
	n := uint64(len(*v))
	uvarint(c, &n)
	if !c.reading {
		c.buf = append(c.buf, *v...)
		return
	}
	if c.err != nil || n > uint64(len(c.buf)-c.off) {
		c.fail()
		return
	}
	end := c.off + int(n)
	if s, ok := any(v).(*string); !ok || *s != string(c.buf[c.off:end]) {
		*v = T(c.buf[c.off:end:end])
	}
	c.off = end
}

// object codes an ObjectID. The largest one names no object: its stream
// number, ObjectStream, would wrap to the global stream's.
func (c *codec) object(v *ids.ObjectID) {
	uvarint(c, v)
	if c.reading && *v == math.MaxUint64 {
		c.fail()
	}
}

// event codes a network event id, connection a connection id.
func (c *codec) event(v *ids.NetworkEventID) {
	uvarint(c, &v.Thread)
	uvarint(c, &v.Event)
}

func (c *codec) connection(v *ids.ConnectionID) {
	uvarint(c, &v.VM)
	uvarint(c, &v.Thread)
	uvarint(c, &v.Event)
}

// list codes a length-prefixed list of at most 2²⁰ elements, each coded by
// elem and taking at least minSize bytes. A list read is fresh, and sized by
// what the rest of buf could hold, not by its length field, so a damaged
// length cannot make the decoder allocate more than the stream encodes; a
// list that runs out of stream fails where its elements do. Each element is
// read in place in the list: one read into a local that elem is handed would
// escape, an allocation per element.
func list[T any](c *codec, l *[]T, minSize int, elem func(*codec, *T)) {
	n := uint64(len(*l))
	uvarint(c, &n)
	if !c.reading {
		for i := range *l {
			elem(c, &(*l)[i])
		}
		return
	}
	if c.err != nil || n > 1<<20 {
		c.fail()
		return
	}
	out := make([]T, 0, min(n, uint64((len(c.buf)-c.off)/minSize)))
	for range n {
		var zero T
		out = append(out, zero)
		if elem(c, &out[len(out)-1]); c.err != nil {
			return
		}
	}
	*l = out
}

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}
