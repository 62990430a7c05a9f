package tracelog

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/bits"

	"repro/internal/ids"
)

// Kind discriminates the record types that may appear in a DJVM log stream.
type Kind uint8

const (
	kindInvalid Kind = iota

	// Schedule log records.

	// KindInterval is one logical schedule interval of one thread:
	// ⟨threadNum, FirstCEvent, LastCEvent⟩ (§2.2).
	KindInterval
	// KindNotify records, for a notify/notifyAll critical event identified by
	// its global counter value, which waiting threads were woken so the same
	// threads are woken during replay.
	KindNotify

	// NetworkLogFile records (closed world, §4.1.3).

	// KindServerSocket is a ServerSocketEntry ⟨serverId, clientId⟩ written at
	// each successful accept.
	KindServerSocket
	// KindRead records the number of bytes a stream-socket read returned.
	KindRead
	// KindAvailable records the result of an available() query.
	KindAvailable
	// KindBind records the local port assigned by a bind.
	KindBind
	// KindNetErr records an error thrown by a network event so that it can be
	// re-thrown during replay without re-executing the operation.
	KindNetErr

	// RecordedDatagramLog records (§4.2.2).

	// KindDatagramRecv is one ⟨ReceiverGCounter, datagramId⟩ tuple, extended
	// with the receiving thread/event for keyed lookup during replay.
	KindDatagramRecv

	// Open-world records (§5): full contents are logged and replay is served
	// entirely from the log.

	// KindOpenConnect records the observable result of a connect performed
	// against a non-DJVM peer: the local/remote endpoint the application saw.
	KindOpenConnect
	// KindOpenAccept records the observable result of an accept from a
	// non-DJVM peer.
	KindOpenAccept
	// KindOpenRead records the full data returned by a read from a non-DJVM
	// peer.
	KindOpenRead
	// KindOpenWrite records the length and FNV-1a checksum of data written to
	// a non-DJVM peer, letting replay detect divergence without storing or
	// re-sending the payload. Read-only since PR 19: logs recorded before it
	// carry these and still replay and verify; the recorder writes
	// KindOpenWriteWide.
	KindOpenWrite
	// KindOpenDatagram records the full contents and source of a datagram
	// received from a non-DJVM peer.
	KindOpenDatagram

	// KindVMMeta is the per-VM header record: DJVM id, world, mode bookkeeping.
	KindVMMeta
	// KindCheckpoint marks a checkpoint: global counter value plus opaque
	// application state (future-work extension, §8).
	KindCheckpoint

	// KindEnv records the value an environmental query (clock read, random
	// draw) returned during the record phase; replay serves the query from
	// the log (internal/djenv extension).
	KindEnv

	// KindTimedWait records how a timed wait resolved: whether its timer
	// fired (adding a self-removal check event to the schedule) and whether
	// the outcome was a timeout or a notification.
	KindTimedWait

	// KindOpenInterval is a WAL-only durability note: a snapshot of a
	// thread's still-open schedule interval, written periodically in record
	// mode so a thread parked in a long blocking event (e.g. main in Join)
	// does not hold the whole crash-recovery prefix hostage behind its
	// unflushed interval. Replay and the schedule index ignore these; only
	// torn-write recovery (repairSet) consumes them.
	KindOpenInterval

	// KindTimestamp is an optional wall-clock anchor in the schedule log:
	// ⟨GC, Wall⟩ meaning "the global counter had value GC when the wall clock
	// read Wall nanoseconds". Off by default; when enabled (core
	// EnableCausalTrace) one is emitted every 8 critical events, like the WAL's
	// open-interval notes. Replay ignores them; the causal analyzer uses them
	// to map counter values onto wall time (critical-path attribution,
	// Perfetto timelines).
	KindTimestamp

	// KindNetSpan is an optional causal annotation in the network log,
	// emitted alongside closed-world socket events when causal tracing is
	// enabled (core EnableCausalTrace): the event's networkEventId, its
	// global counter value, the operation, the connectionId it acted on, and
	// — for reads/writes — the connection's per-direction byte offset and
	// length. The base protocol deliberately records none of this (closed-
	// world writes log nothing at all, §4.1.3), which is exactly why
	// cross-VM happens-before edges cannot be reconstructed from the base
	// logs; net-span records supply the missing correlation. Replay ignores
	// them.
	KindNetSpan

	// Sharded-order records (core.Config.OrderMode == OrderSharded). The
	// schedule log of a sharded recording carries an order-mode marker, the
	// per-thread intervals of the events that still use the global counter
	// (network, environment, thread lifecycle, checkpoints), and the
	// per-object access-order records below.

	// KindOrderMode marks the order mode the schedule log was recorded under.
	// Global-mode logs omit it (absence means OrderGlobal), so every log
	// written before sharded ordering existed indexes unchanged.
	KindOrderMode
	// KindObjRun is one run of consecutive accesses to one registered shared
	// object by one thread: ⟨objectId, firstSeq, lastSeq, threadNum⟩ — the
	// per-object analogue of a logical schedule interval, run-length-
	// compressing the (objectID, accessSeq, threadNum) access tuples.
	KindObjRun
	// KindObjNotify records, for a sharded-mode notify identified by its
	// ⟨objectId, accessSeq⟩, which waiting threads were woken (the per-object
	// analogue of KindNotify).
	KindObjNotify
	// KindObjTimedWait records how a sharded-mode timed wait resolved, keyed
	// by the wait-enter event's ⟨objectId, accessSeq⟩ (the per-object
	// analogue of KindTimedWait).
	KindObjTimedWait

	// KindTruncation marks a checkpoint-anchored WAL truncation: every
	// schedule/network/datagram record below BaseGC was compacted away because
	// a durable checkpoint at BaseGC (retained in the stream) supersedes it.
	// Replay of a truncated set requires a Resume point at or after the base.
	KindTruncation

	// KindChaosPlan records the seeded fault schedule a chaos run executed
	// under (internal/chaos), so the run's trace carries its own fault plan
	// and a recovered log reproduces the identical schedule from the seed.
	// Replay ignores it: open-world replay reproduces fault effects from the
	// recorded error/content records, never by re-injecting faults.
	KindChaosPlan

	// KindGroupEpoch stamps one completed coordinated group checkpoint into
	// the schedule log (internal/recline): the epoch id, the stamping VM's
	// own anchor counter, and the full member list with each member's anchor.
	// Every member of the epoch carries an identical member list, so any
	// salvageable subset of a distributed log set names its own recovery
	// lines. Replay ignores the record (the stamp rides inside the same
	// critical event as its anchor checkpoint); only the recovery-line
	// solver, logcheck, and WAL compaction consume it.
	KindGroupEpoch

	// KindOpenWriteWide is KindOpenWrite with WideSum as its checksum: the
	// record of a write to a non-DJVM peer in every log recorded since PR 19.
	// Same three fields, same encoded size.
	KindOpenWriteWide

	// New kinds must be appended here, never inserted above: kind values are
	// part of the on-disk log format.
	kindMax
)

// kindTable is the one table of what a kind is: its name, the log its
// records belong in, and its zero record. The log is the one classification
// behind the index builders' misplaced-record error and the WAL scan's
// kind-versus-log check: records keyed by a network event id go to the
// network log, datagram deliveries to the datagram log, and everything else
// is schedule-log material. The zero record is what walk decodes a record of
// the kind into; a kind without one is unknown.
var kindTable = [kindMax]struct {
	name string
	log  uint8
	zero func() Entry
}{
	kindInvalid:       {name: "invalid"},
	KindInterval:      {"interval", logSchedule, func() Entry { return &Interval{} }},
	KindNotify:        {"notify", logSchedule, func() Entry { return &Notify{} }},
	KindServerSocket:  {"server-socket", logNetwork, func() Entry { return &ServerSocketEntry{} }},
	KindRead:          {"read", logNetwork, func() Entry { return &ReadEntry{} }},
	KindAvailable:     {"available", logNetwork, func() Entry { return &AvailableEntry{} }},
	KindBind:          {"bind", logNetwork, func() Entry { return &BindEntry{} }},
	KindNetErr:        {"net-err", logNetwork, func() Entry { return &NetErrEntry{} }},
	KindDatagramRecv:  {"datagram-recv", logDatagram, func() Entry { return &DatagramRecvEntry{} }},
	KindOpenConnect:   {"open-connect", logNetwork, func() Entry { return &OpenConnectEntry{} }},
	KindOpenAccept:    {"open-accept", logNetwork, func() Entry { return &OpenAcceptEntry{} }},
	KindOpenRead:      {"open-read", logNetwork, func() Entry { return &OpenReadEntry{} }},
	KindOpenWrite:     {"open-write", logNetwork, func() Entry { return &OpenWriteEntry{FNV: true} }},
	KindOpenDatagram:  {"open-datagram", logNetwork, func() Entry { return &OpenDatagramEntry{} }},
	KindVMMeta:        {"vm-meta", logSchedule, func() Entry { return &VMMeta{} }},
	KindCheckpoint:    {"checkpoint", logSchedule, func() Entry { return &CheckpointEntry{} }},
	KindEnv:           {"env", logNetwork, func() Entry { return &EnvEntry{} }},
	KindTimedWait:     {"timed-wait", logSchedule, func() Entry { return &TimedWaitEntry{} }},
	KindOpenInterval:  {"open-interval", logSchedule, func() Entry { return &OpenInterval{} }},
	KindTimestamp:     {"timestamp", logSchedule, func() Entry { return &TimestampEntry{} }},
	KindNetSpan:       {"net-span", logNetwork, func() Entry { return &NetSpanEntry{} }},
	KindOrderMode:     {"order-mode", logSchedule, func() Entry { return &OrderModeEntry{} }},
	KindObjRun:        {"obj-run", logSchedule, func() Entry { return &ObjRun{} }},
	KindObjNotify:     {"obj-notify", logSchedule, func() Entry { return &ObjNotify{} }},
	KindObjTimedWait:  {"obj-timed-wait", logSchedule, func() Entry { return &ObjTimedWait{} }},
	KindTruncation:    {"truncation", logSchedule, func() Entry { return &TruncationEntry{} }},
	KindChaosPlan:     {"chaos-plan", logSchedule, func() Entry { return &ChaosPlanEntry{} }},
	KindGroupEpoch:    {"group-epoch", logSchedule, func() Entry { return &GroupEpochEntry{} }},
	KindOpenWriteWide: {"open-write-wide", logNetwork, func() Entry { return &OpenWriteEntry{} }},
}

func (k Kind) String() string {
	if k < kindMax && kindTable[k].name != "" {
		return kindTable[k].name
	}
	return "kind(?)"
}

// newEntry allocates the zero Entry for a kind.
func newEntry(k Kind) (Entry, error) {
	if k < kindMax && kindTable[k].zero != nil {
		return kindTable[k].zero(), nil
	}
	return nil, corruptf("unknown record kind %d", k)
}

// Entry is one decoded log record.
type Entry interface {
	// Kind reports the record type.
	Kind() Kind
	// code appends the record's fields to c, or reads them back from it:
	// see codec.
	code(c *codec)
}

// Interval is a logical schedule interval LSI_i = ⟨FirstCEvent_i, LastCEvent_i⟩
// of thread Thread (§2.2). First and Last are global counter values; a
// one-event interval has First == Last.
type Interval struct {
	Thread ids.ThreadNum
	First  ids.GCount
	Last   ids.GCount
}

func (iv *Interval) Kind() Kind { return KindInterval }

func (iv *Interval) code(c *codec) {
	uvarint(c, &iv.Thread)
	uvarint(c, &iv.First)
	delta(c, &iv.Last, iv.First)
}

// OpenInterval is a periodic snapshot of the global stream's still-open run,
// appended to the WAL during record so crash recovery can credit coverage
// that no flushed Interval holds yet. An OpenInterval
// with a given (Thread, First) is always a prefix of the Interval eventually
// flushed with the same First, so recovery dedups by (Thread, First) keeping
// the largest Last. It carries no schedule semantics: BuildScheduleIndex and
// replay skip it. It has Interval's fields and Interval's layout.
type OpenInterval Interval

func (iv *OpenInterval) Kind() Kind { return KindOpenInterval }

func (iv *OpenInterval) code(c *codec) { (*Interval)(iv).code(c) }

// Notify records the set of threads woken by the notify/notifyAll critical
// event executed at global counter GC.
type Notify struct {
	GC    ids.GCount
	Woken []ids.ThreadNum
}

func (n *Notify) Kind() Kind { return KindNotify }

func (n *Notify) code(c *codec) {
	uvarint(c, &n.GC)
	list(c, &n.Woken, 1, uvarint[ids.ThreadNum])
}

// ServerSocketEntry is the tuple ⟨serverId, clientId⟩ logged at each
// successful accept (§4.1.3): ServerID is the networkEventId of the accept
// event and ClientID is the connectionId the client sent as the first meta
// data over the established connection.
type ServerSocketEntry struct {
	ServerID ids.NetworkEventID
	ClientID ids.ConnectionID
}

func (s *ServerSocketEntry) Kind() Kind { return KindServerSocket }

func (s *ServerSocketEntry) code(c *codec) {
	c.event(&s.ServerID)
	c.connection(&s.ClientID)
}

// ReadEntry records, for the read network event EventID, the number of bytes
// the record-phase read returned (numRecorded, §4.1.3).
type ReadEntry struct {
	EventID ids.NetworkEventID
	N       uint32
	EOF     bool // record-phase read hit end-of-stream
}

func (r *ReadEntry) Kind() Kind { return KindRead }

func (r *ReadEntry) code(c *codec) {
	c.event(&r.EventID)
	uvarint(c, &r.N)
	c.flag(&r.EOF)
}

// AvailableEntry records the byte count returned by an available() network
// query so that replay can block until the same number of bytes is available.
type AvailableEntry struct {
	EventID ids.NetworkEventID
	N       uint32
}

func (a *AvailableEntry) Kind() Kind { return KindAvailable }

func (a *AvailableEntry) code(c *codec) {
	c.event(&a.EventID)
	uvarint(c, &a.N)
}

// BindEntry records the local port a bind network event returned so replay can
// request the same port explicitly.
type BindEntry struct {
	EventID ids.NetworkEventID
	Port    uint16
}

func (b *BindEntry) Kind() Kind { return KindBind }

func (b *BindEntry) code(c *codec) {
	c.event(&b.EventID)
	uvarint(c, &b.Port)
}

// NetErrEntry records an error thrown by the network event EventID during the
// record phase; replay re-throws it without executing the operation (§4.1.3:
// "an exception thrown by a network event in the record phase is logged and
// re-thrown in the replay phase").
type NetErrEntry struct {
	EventID ids.NetworkEventID
	Op      string
	Msg     string
}

func (n *NetErrEntry) Kind() Kind { return KindNetErr }

func (n *NetErrEntry) code(c *codec) {
	c.event(&n.EventID)
	blob(c, &n.Op)
	blob(c, &n.Msg)
}

// DatagramRecvEntry is one RecordedDatagramLog tuple
// ⟨ReceiverGCounter, datagramId⟩ (§4.2.2), extended with the receiving
// thread/event id for keyed lookup during replay.
type DatagramRecvEntry struct {
	EventID    ids.NetworkEventID
	ReceiverGC ids.GCount
	Datagram   ids.DGNetworkEventID
}

func (g *DatagramRecvEntry) Kind() Kind { return KindDatagramRecv }

func (g *DatagramRecvEntry) code(c *codec) {
	c.event(&g.EventID)
	uvarint(c, &g.ReceiverGC)
	uvarint(c, &g.Datagram.VM)
	uvarint(c, &g.Datagram.GC)
}

// OpenConnectEntry records what the application observed from a connect
// against a non-DJVM peer: the endpoint addresses of the established
// connection. Replay constructs an equivalent logical connection without
// executing the operating-system-level connect (§5).
type OpenConnectEntry struct {
	EventID    ids.NetworkEventID
	LocalPort  uint16
	RemoteHost string
	RemotePort uint16
}

func (o *OpenConnectEntry) Kind() Kind { return KindOpenConnect }

func (o *OpenConnectEntry) code(c *codec) {
	c.event(&o.EventID)
	uvarint(c, &o.LocalPort)
	blob(c, &o.RemoteHost)
	uvarint(c, &o.RemotePort)
}

// OpenAcceptEntry records what the application observed from an accept of a
// connection from a non-DJVM peer.
type OpenAcceptEntry struct {
	EventID    ids.NetworkEventID
	RemoteHost string
	RemotePort uint16
}

func (o *OpenAcceptEntry) Kind() Kind { return KindOpenAccept }

func (o *OpenAcceptEntry) code(c *codec) {
	c.event(&o.EventID)
	blob(c, &o.RemoteHost)
	uvarint(c, &o.RemotePort)
}

// OpenReadEntry records the full data returned by a read from a non-DJVM peer
// so that replay can serve the read entirely from the log (§5).
type OpenReadEntry struct {
	EventID ids.NetworkEventID
	Data    []byte
	EOF     bool
}

func (o *OpenReadEntry) Kind() Kind { return KindOpenRead }

func (o *OpenReadEntry) code(c *codec) {
	c.event(&o.EventID)
	blob(c, &o.Data)
	c.flag(&o.EOF)
}

// OpenWriteEntry records the length and checksum of the data a write sent to
// a non-DJVM peer. During replay the message "need not be sent again" (§5);
// the checksum lets the replayer detect a diverged execution.
type OpenWriteEntry struct {
	EventID ids.NetworkEventID
	Len     uint32
	Sum     uint64
	// FNV marks a KindOpenWrite record, whose Sum is the payload's FNV-1a
	// hash: what logs recorded before PR 19 hold. Unset, the entry is a
	// KindOpenWriteWide record and Sum is WideSum of the payload — the only
	// form the recorder writes.
	FNV bool
}

func (o *OpenWriteEntry) Kind() Kind {
	if o.FNV {
		return KindOpenWrite
	}
	return KindOpenWriteWide
}

// code leaves FNV alone: the kind table's zero record sets it from the kind.
func (o *OpenWriteEntry) code(c *codec) {
	c.event(&o.EventID)
	uvarint(c, &o.Len)
	uvarint(c, &o.Sum)
}

// Verify checks a replayed open-world write against its record: nil when p is
// what the recorded execution wrote, otherwise how it differs — in length, or
// at equal lengths in checksum, under the algorithm the record's kind names.
func (o *OpenWriteEntry) Verify(p []byte) error {
	if o.Len != uint32(len(p)) {
		return fmt.Errorf("length differs: recorded %d bytes, replayed %d", o.Len, len(p))
	}
	var sum uint64
	if o.FNV {
		h := fnv.New64a()
		h.Write(p)
		sum = h.Sum64()
	} else {
		sum = WideSum(p)
	}
	if sum != o.Sum {
		return fmt.Errorf("%v checksum differs: recorded %#016x, replayed %#016x", o.Kind(), o.Sum, sum)
	}
	return nil
}

// WideSum is the checksum a KindOpenWriteWide record holds of a write's
// payload: 64 bits, eight bytes per step. The length seeds the state; each
// step xors in one little-endian word (at the end, one byte), rotates, and
// multiplies by an odd constant — a bijection of the state, so two payloads
// of one length that differ in a single word never collide — and a final
// avalanche (murmur3's) spreads every state bit over the sum. The loads are
// fixed little-endian: the same number on every architecture, pinned by
// TestWideSumVectors, because it is part of the log format.
func WideSum(p []byte) uint64 {
	const m = 0x9e3779b97f4a7c15
	h := (uint64(len(p)) + 1) * m
	for ; len(p) >= 8; p = p[8:] {
		h = bits.RotateLeft64(h^binary.LittleEndian.Uint64(p), 29) * m
	}
	for _, b := range p {
		h = bits.RotateLeft64(h^uint64(b), 29) * m
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// OpenDatagramEntry records the full contents and source address of a
// datagram received from a non-DJVM peer.
type OpenDatagramEntry struct {
	EventID    ids.NetworkEventID
	SourceHost string
	SourcePort uint16
	Data       []byte
}

func (o *OpenDatagramEntry) Kind() Kind { return KindOpenDatagram }

func (o *OpenDatagramEntry) code(c *codec) {
	c.event(&o.EventID)
	blob(c, &o.SourceHost)
	uvarint(c, &o.SourcePort)
	blob(c, &o.Data)
}

// EnvEntry records the value returned by an environmental query — a clock
// read or random draw — so replay can serve the same value (djenv
// extension; the same full-recording discipline as open-world input, §5).
type EnvEntry struct {
	EventID ids.NetworkEventID
	Op      string
	Value   uint64
}

func (e *EnvEntry) Kind() Kind { return KindEnv }

func (e *EnvEntry) code(c *codec) {
	c.event(&e.EventID)
	blob(c, &e.Op)
	uvarint(c, &e.Value)
}

// VMMeta is the per-VM header record: the DJVM identity assigned during the
// record phase (reused during replay, §4.1.3) and the world configuration.
type VMMeta struct {
	VM      ids.DJVMID
	World   ids.World
	Threads uint32     // number of threads created during the record phase
	FinalGC ids.GCount // final global counter value
}

func (m *VMMeta) Kind() Kind { return KindVMMeta }

func (m *VMMeta) code(c *codec) {
	uvarint(c, &m.VM)
	raw(c, &m.World)
	uvarint(c, &m.Threads)
	uvarint(c, &m.FinalGC)
}

// CheckpointEntry marks a consistent local checkpoint: the global counter at
// which it was taken, the VM bookkeeping needed to resume identity assignment
// (next thread number, the checkpointing thread's network event number), and
// opaque application state captured by a user-provided checkpointer (§8
// future work, implemented in internal/checkpoint).
type CheckpointEntry struct {
	GC           ids.GCount
	NextThread   uint32
	TakerThread  ids.ThreadNum
	MainEventNum ids.EventNum
	State        []byte
}

func (cp *CheckpointEntry) Kind() Kind { return KindCheckpoint }

func (cp *CheckpointEntry) code(c *codec) {
	uvarint(c, &cp.GC)
	uvarint(c, &cp.NextThread)
	uvarint(c, &cp.TakerThread)
	uvarint(c, &cp.MainEventNum)
	blob(c, &cp.State)
}

// TimedWaitEntry records the resolution of a timed wait whose wait-enter
// critical event executed at counter GC. Check reports whether the timer
// fired, adding a self-removal check critical event to the waiting thread's
// schedule; TimedOut reports whether that check found the thread still in
// the wait set (timeout) or already notified (the notify won the race).
type TimedWaitEntry struct {
	GC       ids.GCount
	Check    bool
	TimedOut bool
}

func (w *TimedWaitEntry) Kind() Kind { return KindTimedWait }

func (w *TimedWaitEntry) code(c *codec) {
	uvarint(c, &w.GC)
	c.flag(&w.Check)
	c.flag(&w.TimedOut)
}

// TimestampEntry anchors a global-counter value to the recorder's wall clock:
// "the counter had value GC when the clock read Wall nanoseconds". Stamps are
// sampled (every N critical events, plus anchors at enable time and at VM
// close), so between anchors the GC→wall mapping is interpolated. Replay
// skips these records entirely.
type TimestampEntry struct {
	GC   ids.GCount
	Wall int64 // unix nanoseconds
}

func (ts *TimestampEntry) Kind() Kind { return KindTimestamp }

func (ts *TimestampEntry) code(c *codec) {
	uvarint(c, &ts.GC)
	uvarint(c, &ts.Wall)
}

// Network span operations recorded by NetSpanEntry.
const (
	NetOpConnect uint8 = iota + 1
	NetOpAccept
	NetOpRead
	NetOpWrite
)

// NetOpName returns a stable human-readable name for a NetSpanEntry op.
func NetOpName(op uint8) string {
	switch op {
	case NetOpConnect:
		return "connect"
	case NetOpAccept:
		return "accept"
	case NetOpRead:
		return "read"
	case NetOpWrite:
		return "write"
	default:
		return "net-op?"
	}
}

// NetSpanEntry annotates one closed-world socket event with the correlation
// data the base protocol omits: which connection the event acted on, the
// global counter value the event committed at, and — for data transfer — the
// half-open application-byte range [Offset, Offset+Len) of the connection's
// stream in that direction. Offsets count application bytes only (the
// connectionId meta frame bypasses the socket layer), so a writer's offsets
// and the peer reader's offsets describe the same stream and align exactly.
type NetSpanEntry struct {
	EventID ids.NetworkEventID
	GC      ids.GCount
	Op      uint8
	Conn    ids.ConnectionID
	Offset  uint64 // first app-stream byte covered; 0 for connect/accept
	Len     uint32 // bytes transferred; 0 for connect/accept
}

func (ns *NetSpanEntry) Kind() Kind { return KindNetSpan }

func (ns *NetSpanEntry) code(c *codec) {
	c.event(&ns.EventID)
	uvarint(c, &ns.GC)
	raw(c, &ns.Op)
	c.connection(&ns.Conn)
	uvarint(c, &ns.Offset)
	uvarint(c, &ns.Len)
}

// OrderModeEntry marks the order mode the schedule log was recorded under. A
// sharded-mode recorder writes one as the first schedule record; global-mode
// logs (including all pre-sharding logs) carry none, and the index treats
// absence as OrderGlobal.
type OrderModeEntry struct {
	Mode ids.OrderMode
}

func (o *OrderModeEntry) Kind() Kind { return KindOrderMode }

func (o *OrderModeEntry) code(c *codec) { raw(c, &o.Mode) }

// ObjRun is one run of consecutive accesses to the registered shared object
// Obj by thread Thread: the accesses with per-object sequence numbers First
// through Last inclusive. Because an object's accessSeq ticks once per access,
// the runs of one object always partition [0, finalSeq] exactly — the same
// shape as schedule intervals partitioning [0, FinalGC).
type ObjRun struct {
	Obj    ids.ObjectID
	Thread ids.ThreadNum
	First  ids.AccessSeq
	Last   ids.AccessSeq
}

func (r *ObjRun) Kind() Kind { return KindObjRun }

func (r *ObjRun) code(c *codec) {
	c.object(&r.Obj)
	uvarint(c, &r.Thread)
	uvarint(c, &r.First)
	delta(c, &r.Last, r.First)
}

// ObjNotify records the set of threads woken by a sharded-mode notify /
// notifyAll: the notify executed as access Seq of object Obj.
type ObjNotify struct {
	Obj   ids.ObjectID
	Seq   ids.AccessSeq
	Woken []ids.ThreadNum
}

func (n *ObjNotify) Kind() Kind { return KindObjNotify }

func (n *ObjNotify) code(c *codec) {
	c.object(&n.Obj)
	uvarint(c, &n.Seq)
	list(c, &n.Woken, 1, uvarint[ids.ThreadNum])
}

// ObjTimedWait records the resolution of a sharded-mode timed wait whose
// wait-enter event executed as access Seq of object Obj. Check and TimedOut
// mean what they mean on TimedWaitEntry.
type ObjTimedWait struct {
	Obj      ids.ObjectID
	Seq      ids.AccessSeq
	Check    bool
	TimedOut bool
}

func (w *ObjTimedWait) Kind() Kind { return KindObjTimedWait }

func (w *ObjTimedWait) code(c *codec) {
	c.object(&w.Obj)
	uvarint(c, &w.Seq)
	c.flag(&w.Check)
	c.flag(&w.TimedOut)
}

// TruncationEntry marks a checkpoint-anchored WAL truncation: the stream it
// opens covers only counters at or after BaseGC, because a durable checkpoint
// taken at exactly BaseGC (kept in the stream) captures everything earlier.
// Schedule intervals straddling the base are clipped at truncation time, so
// interval coverage of a truncated stream partitions [BaseGC, FinalGC)
// exactly. Replay of a truncated set requires a Resume point whose counter is
// past the base; there is no longer a recorded prefix to replay from zero.
type TruncationEntry struct {
	BaseGC ids.GCount
}

func (tr *TruncationEntry) Kind() Kind { return KindTruncation }

func (tr *TruncationEntry) code(c *codec) { uvarint(c, &tr.BaseGC) }

// ChaosPlanEntry embeds a chaos run's seeded fault schedule in its own trace:
// Seed is the generator seed and Spec is the chaos package's deterministic
// binary encoding of the full action list. The record is pure metadata —
// replay never consults it (recorded error and content records already
// reproduce every fault effect) — but it makes a chaos run self-describing:
// the schedule that disturbed a recovered log travels with the log.
type ChaosPlanEntry struct {
	Seed uint64
	Spec []byte
}

func (cp *ChaosPlanEntry) Kind() Kind { return KindChaosPlan }

func (cp *ChaosPlanEntry) code(c *codec) {
	uvarint(c, &cp.Seed)
	blob(c, &cp.Spec)
}

// GroupMember is one participant of a coordinated group checkpoint: the
// member's DJVM id and the counter value of its anchor checkpoint.
type GroupMember struct {
	VM       ids.DJVMID
	AnchorGC ids.GCount
}

// GroupEpochEntry records one completed coordinated checkpoint epoch. GC is
// the stamping VM's own anchor counter (the checkpoint event the stamp rides
// in), duplicated out of Members so WAL compaction and torn-write recovery can
// clip the record without knowing which VM's log they are rewriting. Members
// is the full recovery line, sorted by VM id and identical across every
// member's stamp of the same epoch.
type GroupEpochEntry struct {
	Epoch   uint64
	GC      ids.GCount
	Members []GroupMember
}

func (g *GroupEpochEntry) Kind() Kind { return KindGroupEpoch }

func (g *GroupEpochEntry) code(c *codec) {
	uvarint(c, &g.Epoch)
	uvarint(c, &g.GC)
	list(c, &g.Members, 2, func(c *codec, m *GroupMember) {
		uvarint(c, &m.VM)
		uvarint(c, &m.AnchorGC)
	})
}
