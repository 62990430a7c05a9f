package tracelog

import (
	"bytes"
	"cmp"
	"fmt"
	"iter"
	"maps"
	"slices"
	"sort"

	"repro/internal/ids"
)

// ScheduleIndex is the replay-side view of a schedule log: every order
// stream's schedule, and the VM-wide records — checkpoints in counter order
// among them.
type ScheduleIndex struct {
	Meta VMMeta
	// Streams holds the order streams' schedules in stream order. Streams[0]
	// is always the global counter's; an object's stream is present when the
	// log holds a record of it.
	Streams     []StreamSchedule
	Checkpoints []CheckpointEntry
	// Timestamps are the optional sampled wall-clock anchors, in append
	// (hence GC) order. Replay never consults them; the causal analyzer does.
	Timestamps []TimestampEntry

	// BaseGC is the checkpoint-anchored truncation base: 0 for an untruncated
	// log, otherwise the counter the compacted stream starts at. A truncated
	// set can only be replayed from a Resume point past the base.
	BaseGC ids.GCount
	// ChaosPlan is the embedded fault schedule of a chaos run, nil when the
	// recording ran without one.
	ChaosPlan *ChaosPlanEntry
	// GroupEpochs are the coordinated checkpoint stamps in append (hence
	// epoch) order. Empty outside group recording; replay never consults
	// them — the recovery-line solver and logcheck do.
	GroupEpochs []GroupEpochEntry

	// OrderMode is the order mode the log was recorded under. Logs without an
	// order-mode record (every global-mode and pre-sharding log) index as
	// OrderGlobal.
	OrderMode ids.OrderMode
}

// Stream returns stream id's schedule: an empty one when the log holds no
// record of it.
func (x *ScheduleIndex) Stream(id Stream) *StreamSchedule {
	i, ok := slices.BinarySearchFunc(x.Streams, id, func(s StreamSchedule, id Stream) int { return cmp.Compare(s.ID, id) })
	if !ok {
		return &StreamSchedule{ID: id}
	}
	return &x.Streams[i]
}

// The Build*Index functions walk the byte stream with one reused scratch
// record per kind and copy what they keep into the index structures: replay
// startup over a large log never materializes the intermediate []Entry slice
// that Parse builds.

// BuildScheduleIndex decodes a schedule log and indexes it for replay. A
// stream's runs keep their append order, which is execution order; they are
// validated to be non-overlapping and increasing per thread on the global
// stream and per stream on an object's.
func BuildScheduleIndex(l *Log) (*ScheduleIndex, error) {
	idx := &ScheduleIndex{}
	b := streamIndex{streams: make(map[Stream]*StreamSchedule), last: make(map[Stream]Interval)}
	b.stream(GlobalStream)
	sc := new(scratch)
	b.sizeRuns(l, sc)
	sawMeta := false
	err := l.walk(sc, func(e Entry, _, _ int) error {
		if ok, err := b.add(e); ok {
			return err
		}
		switch v := e.(type) {
		case *VMMeta:
			idx.Meta = *v
			sawMeta = true
		case *CheckpointEntry:
			idx.Checkpoints = append(idx.Checkpoints, *v)
			idx.Checkpoints[len(idx.Checkpoints)-1].State = bytes.Clone(v.State)
		case *OpenInterval:
			// Durability notes for crash recovery only; they carry no
			// schedule semantics, so replay skips them.
		case *TimestampEntry:
			// Optional wall-clock anchors; replay ignores them, analysis
			// reads them through the index.
			idx.Timestamps = append(idx.Timestamps, *v)
		case *OrderModeEntry:
			if v.Mode != ids.OrderGlobal && v.Mode != ids.OrderSharded {
				return corruptf("unknown order mode %d", uint8(v.Mode))
			}
			idx.OrderMode = v.Mode
		case *TruncationEntry:
			if v.BaseGC > idx.BaseGC {
				idx.BaseGC = v.BaseGC
			}
		case *ChaosPlanEntry:
			plan := *v
			plan.Spec = bytes.Clone(v.Spec)
			idx.ChaosPlan = &plan
		case *GroupEpochEntry:
			idx.GroupEpochs = append(idx.GroupEpochs, *v)
		default:
			return misplaced(e.Kind(), logSchedule)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if !sawMeta {
		return nil, corruptf("schedule log has no vm-meta record")
	}
	for _, id := range slices.Sorted(maps.Keys(b.streams)) {
		idx.Streams = append(idx.Streams, *b.streams[id])
	}
	sort.Slice(idx.Checkpoints, func(i, j int) bool {
		return idx.Checkpoints[i].GC < idx.Checkpoints[j].GC
	})
	return idx, nil
}

// NetworkIndex is the replay-side view of a NetworkLogFile. Closed-world
// replay entries and open-world content entries are keyed by the network
// event id ⟨threadNum, eventNum⟩, which the paper guarantees is identical
// across record and replay (§4.1.3). Every table replay reads per event keeps
// rows with no pointer, in which the event id lives only in the key.
type NetworkIndex struct {
	// ServerSockets maps an accept's networkEventId to the connectionId that
	// the matching record-phase connection carried.
	ServerSockets Table[ids.ConnectionID, connRow]
	Reads         Table[ReadEntry, readRow]
	Availables    Table[AvailableEntry, availableRow]
	Binds         Table[BindEntry, bindRow]
	Errs          Table[NetErrEntry, NetErrEntry]
	OpenConnects  Table[OpenConnectEntry, connectRow]
	OpenAccepts   Table[OpenAcceptEntry, acceptRow]
	OpenReads     Table[ContentRow, ContentRow]
	OpenWrites    Table[OpenWriteEntry, writeRow]
	OpenDatagrams Table[ContentRow, ContentRow]
	Envs          Table[EnvEntry, envRow]
	// NetSpans holds the optional causal-tracing annotations keyed by the
	// annotated event's id. Replay never consults them.
	NetSpans Table[NetSpanEntry, NetSpanEntry]
	log      *Log // the indexed log, where content rows point
}

// Content reads back ev's record at row and returns its payload appended to
// dst, and a datagram's source host and port. A record no longer of the row's
// kind and length, or not ev's, fails with ErrCorrupt.
func (idx *NetworkIndex) Content(ev ids.NetworkEventID, row ContentRow, dst []byte) ([]byte, string, uint16, error) {
	return idx.log.content(ev, row, dst)
}

// A ContentRow locates an open read's or datagram's record in the network log,
// whose file keeps the payload until Content copies it out. It has no pointer.
type ContentRow struct {
	Off  int64  // the record's offset in the log's stream
	Len  uint32 // the record's length
	N    uint32 // the payload's length
	EOF  bool   // an open read's: the read observed end of stream
	kind Kind
}

// Kind reports the kind of the record the row locates.
func (r *ContentRow) Kind() Kind { return r.kind }

// Table is an index's table of records keyed by network event id: one row
// per key, held sorted by ⟨thread, event⟩ and found by binary search. The
// key of every lookup is known in advance — replay asks for the event it is
// at — so nothing is hashed. A table is read-only once its builder returns.
//
// A table hands out entries V and keeps each as a row R: the entry itself,
// or a packed form in which the event id lives only in the key and a host or
// op name is its position in names, the index's list of each distinct name.
type Table[V any, R row[V]] struct {
	keys  []uint64 // packed ⟨thread, event⟩, ascending
	vals  []R
	names []string
}

// row is a table's stored form of its entries V.
type row[V any] interface {
	entry(ev ids.NetworkEventID, names []string) V
}

// packEvent packs an event id into one word that orders like ⟨thread, event⟩.
func packEvent(ev ids.NetworkEventID) uint64 { return uint64(ev.Thread)<<32 | uint64(ev.Event) }

func unpackEvent(k uint64) ids.NetworkEventID {
	return ids.NetworkEventID{Thread: ids.ThreadNum(k >> 32), Event: ids.EventNum(k)}
}

// newTable returns an empty table with room for n rows.
func newTable[V any, R row[V]](n int) Table[V, R] {
	return Table[V, R]{keys: make([]uint64, 0, n), vals: make([]R, 0, n)}
}

// Get returns the entry keyed ev and whether there is one.
func (t *Table[V, R]) Get(ev ids.NetworkEventID) (V, bool) {
	i, ok := slices.BinarySearch(t.keys, packEvent(ev))
	if !ok {
		var zero V
		return zero, false
	}
	return t.vals[i].entry(ev, t.names), true
}

// Len reports the number of rows.
func (t *Table[V, R]) Len() int { return len(t.keys) }

// All yields every entry in key order.
func (t *Table[V, R]) All() iter.Seq2[ids.NetworkEventID, V] {
	return func(yield func(ids.NetworkEventID, V) bool) {
		for i, k := range t.keys {
			if ev := unpackEvent(k); !yield(ev, t.vals[i].entry(ev, t.names)) {
				return
			}
		}
	}
}

// add appends a row during the build, in log order.
func (t *Table[V, R]) add(ev ids.NetworkEventID, r R) {
	t.keys = append(t.keys, packEvent(ev))
	t.vals = append(t.vals, r)
}

// sortRows puts the rows in key order, rows that share a key in log order.
// It radix-sorts the rows' positions, least significant byte of the key
// first and skipping the bytes every key shares (a log's threads and events
// are small numbers, so that is most of them), and then moves each row once,
// along the cycles of that permutation: the only scratch is eight bytes a
// row. (A table cannot reach 2³² rows: their values alone would outgrow
// memory.)
func (t *Table[V, R]) sortRows() {
	if slices.IsSorted(t.keys) {
		return
	}
	n := len(t.keys)
	scratch := make([]uint32, 2*n)
	perm, next := scratch[:n], scratch[n:]
	var differ uint64
	for i, k := range t.keys {
		perm[i] = uint32(i)
		differ |= k ^ t.keys[0]
	}
	for shift := 0; shift < 64; shift += 8 {
		if differ>>shift&0xff == 0 {
			continue
		}
		var at [256]int
		for _, p := range perm {
			at[t.keys[p]>>shift&0xff]++
		}
		sum := 0
		for b, c := range at {
			at[b], sum = sum, sum+c
		}
		for _, p := range perm {
			b := t.keys[p] >> shift & 0xff
			next[at[b]] = p
			at[b]++
		}
		perm, next = next, perm
	}
	// Position j takes the row at perm[j]; a placed position is marked by
	// perm[j] == j.
	for i := range perm {
		if perm[i] == uint32(i) {
			continue
		}
		k, v := t.keys[i], t.vals[i]
		for j := i; ; {
			src := int(perm[j])
			perm[j] = uint32(j)
			if src == i {
				t.keys[j], t.vals[j] = k, v
				break
			}
			t.keys[j], t.vals[j] = t.keys[src], t.vals[src]
			j = src
		}
	}
}

// The packed rows: no pointer, no event id, a name as its position in the
// table's names. The content tables, Errs, NetSpans and the datagram index
// keep their entries as they are.
type (
	connRow ids.ConnectionID
	readRow struct {
		n   uint32
		eof bool
	}
	availableRow uint32
	bindRow      uint16
	connectRow   struct {
		host          uint32
		local, remote uint16
	}
	acceptRow struct {
		host uint32
		port uint16
	}
	writeRow struct {
		sum uint64
		n   uint32
		fnv bool
	}
	envRow struct {
		value uint64
		op    uint32
	}
)

func (r connRow) entry(ids.NetworkEventID, []string) ids.ConnectionID { return ids.ConnectionID(r) }
func (r readRow) entry(ev ids.NetworkEventID, _ []string) ReadEntry   { return ReadEntry{ev, r.n, r.eof} }
func (r availableRow) entry(ev ids.NetworkEventID, _ []string) AvailableEntry {
	return AvailableEntry{ev, uint32(r)}
}
func (r bindRow) entry(ev ids.NetworkEventID, _ []string) BindEntry { return BindEntry{ev, uint16(r)} }
func (r connectRow) entry(ev ids.NetworkEventID, names []string) OpenConnectEntry {
	return OpenConnectEntry{ev, r.local, names[r.host], r.remote}
}
func (r acceptRow) entry(ev ids.NetworkEventID, names []string) OpenAcceptEntry {
	return OpenAcceptEntry{ev, names[r.host], r.port}
}
func (r writeRow) entry(ev ids.NetworkEventID, _ []string) OpenWriteEntry {
	return OpenWriteEntry{ev, r.n, r.sum, r.fnv}
}
func (r envRow) entry(ev ids.NetworkEventID, names []string) EnvEntry {
	return EnvEntry{ev, names[r.op], r.value}
}
func (r ContentRow) entry(ids.NetworkEventID, []string) ContentRow               { return r }
func (e NetErrEntry) entry(ids.NetworkEventID, []string) NetErrEntry             { return e }
func (e NetSpanEntry) entry(ids.NetworkEventID, []string) NetSpanEntry           { return e }
func (e DatagramRecvEntry) entry(ids.NetworkEventID, []string) DatagramRecvEntry { return e }

// unique sorts t and fails with a dupError if two rows share a key, naming
// the kind of the one logged later.
func unique[V any, R row[V], P interface {
	*V
	Kind() Kind
}](t *Table[V, R]) error {
	t.sortRows()
	for i := 1; i < len(t.keys); i++ {
		if t.keys[i] == t.keys[i-1] {
			e := t.vals[i].entry(unpackEvent(t.keys[i]), t.names)
			return dupError{P(&e).Kind()}
		}
	}
	return nil
}

// keepFirst sorts t and keeps, of the rows that share a key, the one logged
// first.
func (t *Table[V, R]) keepFirst() {
	t.sortRows()
	n := 0
	for i, k := range t.keys {
		if n > 0 && t.keys[n-1] == k {
			continue
		}
		t.keys[n], t.vals[n] = k, t.vals[i]
		n++
	}
	clear(t.vals[n:])
	t.keys, t.vals = t.keys[:n], t.vals[:n]
}

// dupError reports two log entries claiming the same event: a network event,
// or a critical event's notify or timed-wait resolution.
type dupError struct{ kind Kind }

func (e dupError) Error() string {
	event := "network event"
	if kindTable[e.kind].log == logSchedule {
		event = "critical event"
	}
	return fmt.Sprintf("tracelog: duplicate %v entry for one %s", e.kind, event)
}

// BuildNetworkIndex decodes a NetworkLogFile and indexes it for replay.
// Each table is sized from the log's count of its records and filled in one
// walk, each distinct host or op name kept once. A duplicate key is a
// corruption error except for ServerSocketEntries, whose lack of uniqueness
// the paper explicitly tolerates ("this lack of unique entries is not a
// problem", §4.1.3) — uniqueness of our extended connectionId makes
// duplicates impossible in practice, but the first entry wins to mirror the
// paper's semantics.
func BuildNetworkIndex(l *Log) (*NetworkIndex, error) {
	var names []string
	seen := map[string]uint32{}
	name := func(s string) uint32 {
		id, ok := seen[s]
		if !ok {
			id = uint32(len(names))
			seen[s], names = id, append(names, s)
		}
		return id
	}
	idx := &NetworkIndex{
		ServerSockets: newTable[ids.ConnectionID, connRow](l.Count(KindServerSocket)),
		Reads:         newTable[ReadEntry, readRow](l.Count(KindRead)),
		Availables:    newTable[AvailableEntry, availableRow](l.Count(KindAvailable)),
		Binds:         newTable[BindEntry, bindRow](l.Count(KindBind)),
		Errs:          newTable[NetErrEntry, NetErrEntry](l.Count(KindNetErr)),
		OpenConnects:  newTable[OpenConnectEntry, connectRow](l.Count(KindOpenConnect)),
		OpenAccepts:   newTable[OpenAcceptEntry, acceptRow](l.Count(KindOpenAccept)),
		OpenReads:     newTable[ContentRow, ContentRow](l.Count(KindOpenRead)),
		OpenWrites:    newTable[OpenWriteEntry, writeRow](l.Count(KindOpenWrite) + l.Count(KindOpenWriteWide)),
		OpenDatagrams: newTable[ContentRow, ContentRow](l.Count(KindOpenDatagram)),
		Envs:          newTable[EnvEntry, envRow](l.Count(KindEnv)),
		NetSpans:      newTable[NetSpanEntry, NetSpanEntry](l.Count(KindNetSpan)),
		log:           l,
	}
	err := l.walk(new(scratch), func(e Entry, off, n int) error {
		switch v := e.(type) {
		case *ServerSocketEntry:
			idx.ServerSockets.add(v.ServerID, connRow(v.ClientID))
		case *ReadEntry:
			idx.Reads.add(v.EventID, readRow{v.N, v.EOF})
		case *AvailableEntry:
			idx.Availables.add(v.EventID, availableRow(v.N))
		case *BindEntry:
			idx.Binds.add(v.EventID, bindRow(v.Port))
		case *NetErrEntry:
			idx.Errs.add(v.EventID, *v)
		case *OpenConnectEntry:
			idx.OpenConnects.add(v.EventID, connectRow{name(v.RemoteHost), v.LocalPort, v.RemotePort})
		case *OpenAcceptEntry:
			idx.OpenAccepts.add(v.EventID, acceptRow{name(v.RemoteHost), v.RemotePort})
		case *OpenReadEntry:
			idx.OpenReads.add(v.EventID, ContentRow{int64(off), uint32(n), uint32(len(v.Data)), v.EOF, KindOpenRead})
		case *OpenWriteEntry:
			// Both open-write kinds share the one table: which of two
			// records verifies an event's payload must never be a matter of
			// order.
			idx.OpenWrites.add(v.EventID, writeRow{v.Sum, v.Len, v.FNV})
		case *OpenDatagramEntry:
			idx.OpenDatagrams.add(v.EventID, ContentRow{int64(off), uint32(n), uint32(len(v.Data)), false, KindOpenDatagram})
		case *EnvEntry:
			idx.Envs.add(v.EventID, envRow{v.Value, name(v.Op)})
		case *NetSpanEntry:
			idx.NetSpans.add(v.EventID, *v)
		default:
			return misplaced(e.Kind(), logNetwork)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	idx.OpenConnects.names, idx.OpenAccepts.names, idx.Envs.names = names, names, names
	idx.ServerSockets.keepFirst()
	for _, err := range []error{
		unique(&idx.Reads),
		unique(&idx.Availables),
		unique(&idx.Binds),
		unique(&idx.Errs),
		unique(&idx.OpenConnects),
		unique(&idx.OpenAccepts),
		unique(&idx.OpenReads),
		unique(&idx.OpenWrites),
		unique(&idx.OpenDatagrams),
		unique(&idx.Envs),
		unique(&idx.NetSpans),
	} {
		if err != nil {
			return nil, err
		}
	}
	return idx, nil
}

// DatagramIndex is the replay-side view of a RecordedDatagramLog: the
// per-receive-event delivery record, plus how many times each datagram id was
// delivered to the application during the record phase. "A datagram entry
// that has been delivered multiple times during the record phase due to
// duplication is kept in the buffer until it is delivered to the same number
// of read requests as in the record phase" (§4.2.3).
type DatagramIndex struct {
	ByEvent    Table[DatagramRecvEntry, DatagramRecvEntry]
	Deliveries map[ids.DGNetworkEventID]int
}

// BuildDatagramIndex indexes the datagram log for replay.
func BuildDatagramIndex(l *Log) (*DatagramIndex, error) {
	idx := &DatagramIndex{
		ByEvent:    newTable[DatagramRecvEntry, DatagramRecvEntry](l.Count(KindDatagramRecv)),
		Deliveries: make(map[ids.DGNetworkEventID]int),
	}
	err := l.walk(new(scratch), func(e Entry, _, _ int) error {
		v, ok := e.(*DatagramRecvEntry)
		if !ok {
			return misplaced(e.Kind(), logDatagram)
		}
		idx.ByEvent.add(v.EventID, *v)
		idx.Deliveries[v.Datagram]++
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := unique(&idx.ByEvent); err != nil {
		return nil, err
	}
	return idx, nil
}

// SetIndex is one log set's three indexes.
type SetIndex struct {
	Schedule *ScheduleIndex
	Network  *NetworkIndex
	Datagram *DatagramIndex
}

// IndexSet builds the three indexes of one log set. An error names the log
// that failed: "schedule log: …", "network log: …" or "datagram log: …".
func IndexSet(s *Set) (*SetIndex, error) {
	sched, err := BuildScheduleIndex(s.Schedule)
	if err != nil {
		return nil, fmt.Errorf("schedule log: %w", err)
	}
	net, err := BuildNetworkIndex(s.Network)
	if err != nil {
		return nil, fmt.Errorf("network log: %w", err)
	}
	dg, err := BuildDatagramIndex(s.Datagram)
	if err != nil {
		return nil, fmt.Errorf("datagram log: %w", err)
	}
	return &SetIndex{Schedule: sched, Network: net, Datagram: dg}, nil
}

// VM is the id of the VM that recorded the set.
func (x *SetIndex) VM() ids.DJVMID { return x.Schedule.Meta.VM }

// MessageKind says how a cross-VM message was matched.
type MessageKind uint8

const (
	// MsgHandshake is a connect received by an accept: the accept's
	// ServerSocketEntry names the connect's connectionId (§4.1.3), and the
	// net-spans of the two events give their counters.
	MsgHandshake MessageKind = iota + 1
	// MsgStream is a stream write received by the first peer read whose
	// net-span overlaps the write's bytes. Later reads of the same bytes
	// follow the first by the reader's program order.
	MsgStream
	// MsgDatagram is a datagram delivery: the delivery record names the
	// sender's ⟨dJVMId, dJVMgc⟩ (§4.2.2) and needs no net-span.
	MsgDatagram
)

// End is one end of a message: a VM and the counter value of its event.
type End struct {
	VM ids.DJVMID
	GC ids.GCount
}

// Message is one cross-VM message, from the event that sent it to the event
// that received it.
type Message struct {
	Kind     MessageKind
	From, To End
}

// Unmatched counts what Messages found but could not match.
type Unmatched struct {
	// Handshakes counts accepts without their own accept net-span, or whose
	// connect is not in the world or has no connect net-span (a run recorded
	// without causal tracing has neither).
	Handshakes int
	// Writes counts write net-spans none of whose bytes a peer read net-span
	// covers (bytes still unread when the connection closed).
	Writes int
	// Datagrams counts deliveries whose sender is the receiving VM itself or
	// a VM the world does not include.
	Datagrams int
}

// Messages matches the cross-VM messages of a recorded world, given one
// index per VM in any order: connect→accept handshakes and the writes of
// connections by their connectionId, datagrams by their datagramId. A
// loopback connection's handshake is a message too; its bytes are not. The
// stream half needs the net-spans of a run recorded with causal tracing.
//
// The messages come out in one order, whatever the order of xs: handshakes,
// then stream writes, then datagrams. Handshakes and datagrams are ordered by
// receiving VM, then by the receiving event's id; stream writes by writing
// VM, then by connection id, then by offset.
func Messages(xs []*SetIndex) ([]Message, Unmatched) {
	xs = slices.SortedStableFunc(slices.Values(xs), func(a, b *SetIndex) int { return cmp.Compare(a.VM(), b.VM()) })
	byVM := make(map[ids.DJVMID]*SetIndex, len(xs))
	for _, x := range xs {
		byVM[x.VM()] = x
	}
	var msgs []Message
	var un Unmatched

	for _, x := range xs {
		for server, client := range x.Network.ServerSockets.All() {
			accept, okA := x.Network.NetSpans.Get(server)
			var connect NetSpanEntry
			okC := false
			if peer := byVM[client.VM]; peer != nil {
				connect, okC = peer.Network.NetSpans.Get(ids.NetworkEventID{Thread: client.Thread, Event: client.Event})
			}
			if !okA || !okC || accept.Op != NetOpAccept || connect.Op != NetOpConnect {
				un.Handshakes++
				continue
			}
			msgs = append(msgs, Message{MsgHandshake, End{client.VM, connect.GC}, End{x.VM(), accept.GC}})
		}
	}

	// A connection's writes, per writing VM, and its reads from every VM,
	// each in offset order; equal offsets keep VM order, then event order.
	type writer struct {
		vm   ids.DJVMID
		conn ids.ConnectionID
	}
	type read struct {
		vm   ids.DJVMID
		span NetSpanEntry
	}
	writes := make(map[writer][]NetSpanEntry)
	reads := make(map[ids.ConnectionID][]read)
	for _, x := range xs {
		for _, ns := range x.Network.NetSpans.All() {
			switch ns.Op {
			case NetOpWrite:
				w := writer{x.VM(), ns.Conn}
				writes[w] = append(writes[w], ns)
			case NetOpRead:
				reads[ns.Conn] = append(reads[ns.Conn], read{x.VM(), ns})
			}
		}
	}
	for _, rs := range reads {
		slices.SortStableFunc(rs, func(a, b read) int { return cmp.Compare(a.span.Offset, b.span.Offset) })
	}
	byWriter := func(a, b writer) int {
		return cmp.Or(cmp.Compare(a.vm, b.vm), cmp.Compare(a.conn.VM, b.conn.VM),
			cmp.Compare(a.conn.Thread, b.conn.Thread), cmp.Compare(a.conn.Event, b.conn.Event))
	}
	for _, w := range slices.SortedFunc(maps.Keys(writes), byWriter) {
		ws := writes[w]
		slices.SortStableFunc(ws, func(a, b NetSpanEntry) int { return cmp.Compare(a.Offset, b.Offset) })
		peer := slices.DeleteFunc(slices.Clone(reads[w.conn]), func(r read) bool { return r.vm == w.vm })
		ri := 0
		for _, s := range ws {
			end := s.Offset + uint64(s.Len)
			for ri < len(peer) && peer[ri].span.Offset+uint64(peer[ri].span.Len) <= s.Offset {
				ri++
			}
			if ri == len(peer) || peer[ri].span.Offset >= end {
				un.Writes++
				continue
			}
			msgs = append(msgs, Message{MsgStream, End{w.vm, s.GC}, End{peer[ri].vm, peer[ri].span.GC}})
		}
	}

	for _, x := range xs {
		for _, d := range x.Datagram.ByEvent.All() {
			if d.Datagram.VM == x.VM() || byVM[d.Datagram.VM] == nil {
				un.Datagrams++
				continue
			}
			msgs = append(msgs, Message{MsgDatagram, End{d.Datagram.VM, d.Datagram.GC}, End{x.VM(), d.ReceiverGC}})
		}
	}
	return msgs, un
}
