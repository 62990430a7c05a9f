// Package djgram implements the DJVM record/replay layer for datagram (UDP)
// and multicast sockets — §4.2 of the paper.
//
// During the record phase the sender DJVM intercepts each application
// datagram and appends the DGnetworkEventId of the send event —
// ⟨dJVMId, dJVMgc⟩ — to the end of its data segment; the receiver strips the
// meta data before delivery and logs each delivered datagram into the
// RecordedDatagramLog as ⟨ReceiverGCounter, datagramId⟩ (§4.2.2). When the
// meta data pushes a datagram past the maximum datagram size, the sender
// splits it in two (front/rear), and the receiver recombines the halves
// (§4.2.2).
//
// During the replay phase datagrams travel over the pseudo-reliable rudp
// layer (§4.2.3, footnote 3): delivery becomes reliable but possibly out of
// order, and the receiver re-establishes the recorded delivery order — with
// recorded duplications, and dropping datagrams that were recorded as lost —
// from the RecordedDatagramLog.
//
// Multicast sockets extend the same mechanism from point-to-single-point to
// point-to-multiple-points (§4.2).
package djgram

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/netevent"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/rudp"
)

// ErrDiverged is wrapped by errors returned when replayed datagram activity
// departs from the recorded execution; ReplayedError re-throws an error
// recorded during the record phase. Both are the network-event skeleton's,
// under the names this package has always exported.
var ErrDiverged = netevent.ErrDiverged

type ReplayedError = netevent.ReplayedError

// ErrTooLarge is returned when an application datagram cannot fit the
// network's datagram budget even after a two-way split.
var ErrTooLarge = errors.New("djgram: application datagram too large")

// Datagram meta-data trailer: 4-byte sender VM id, 8-byte sender global
// counter, 1 portion flag.
const (
	metaTrailerLen = 13

	portionWhole byte = 0
	portionFront byte = 1
	portionRear  byte = 2
)

// rudpReserve is headroom left for the rudp frame header so that replay-phase
// frames still fit the network's datagram ceiling. The budget is applied in
// both phases so split decisions are identical.
const rudpReserve = 16

// Env binds one DJVM to a host for datagram traffic.
type Env struct {
	vm   *core.VM
	net  *netsim.Network
	host string

	// ReplayCloseFlush bounds how long a replay-phase Close waits for
	// unacknowledged datagrams before abandoning them (a datagram recorded
	// as lost is acknowledged by the peer's rudp but never delivered to its
	// application; one recorded while the peer had already gone never gets
	// acknowledged at all). Zero means 250ms.
	ReplayCloseFlush time.Duration
}

// NewEnv creates the datagram environment for vm on the named host.
func NewEnv(vm *core.VM, net *netsim.Network, host string) *Env {
	return &Env{vm: vm, net: net, host: host}
}

// VM returns the environment's DJVM.
func (e *Env) VM() *core.VM { return e.vm }

// payloadBudget is the largest application payload sendable without a split.
func (e *Env) payloadBudget() int {
	return e.net.MaxDatagram() - metaTrailerLen - rudpReserve
}

// DatagramSocket is the DJVM wrapper of a UDP (or multicast) socket.
type DatagramSocket struct {
	env  *Env
	addr netsim.Addr

	sock *netsim.DatagramSocket // record / passthrough / closed replay
	rc   *rudp.Conn             // replay only
	// openReplay marks a socket replaying in the open world: all events are
	// served from the log, no network is touched.
	openReplay bool

	// mu guards reasm and pool against concurrent record-phase receivers.
	mu sync.Mutex
	// reasm holds halves of split datagrams awaiting their counterpart,
	// keyed by datagram id (§4.2.2).
	reasm map[ids.DGNetworkEventID]*partial
	// pool buffers, during replay, datagrams that arrived before the receive
	// event expecting them, with their remaining recorded delivery counts
	// (§4.2.3).
	pool map[ids.DGNetworkEventID]*pooled
}

type partial struct {
	front, rear []byte
	haveFront   bool
	haveRear    bool
}

type pooled struct {
	data      []byte
	source    netsim.Addr
	remaining int
}

// Bind creates a datagram socket bound to port on the VM's host (port 0
// picks an ephemeral port; the result is recorded and re-bound in replay).
// One network critical event, the bind event.
func (e *Env) Bind(t *core.Thread, port uint16) (*DatagramSocket, error) {
	var s *netsim.DatagramSocket
	port, err := netevent.Bind(t, obs.KindDatagram, "bind", port, func(p uint16) (_ uint16, err error) {
		if s, err = e.net.DatagramBind(e.host, p); err != nil {
			return 0, err
		}
		return s.Addr().Port, nil
	})
	if err != nil {
		return nil, err
	}
	ds := e.newSocket(netsim.Addr{Host: e.host, Port: port}, s)
	if e.vm.Mode() != ids.Replay {
		return ds, nil
	}
	if s == nil {
		ds.openReplay = true // the open world's replay binds nothing (§5)
		return ds, nil
	}
	// Replay datagrams travel over the reliable layer, whose retry budget
	// keeps replay from retransmitting forever at a peer that crashed;
	// abandoned destinations surface in the VM's fault counters.
	ds.rc = rudp.New(s, rudp.Config{
		OnUnreachable: func(netsim.Addr) { e.vm.Metrics().IncPeerUnreachable() },
		OnRetransmit:  e.vm.Metrics().IncRudpRetransmit,
		OnBackoffCap:  e.vm.Metrics().IncRudpBackoffCap,
	})
	return ds, nil
}

func (e *Env) newSocket(addr netsim.Addr, s *netsim.DatagramSocket) *DatagramSocket {
	return &DatagramSocket{
		env:   e,
		addr:  addr,
		sock:  s,
		reasm: make(map[ids.DGNetworkEventID]*partial),
		pool:  make(map[ids.DGNetworkEventID]*pooled),
	}
}

// Addr reports the socket's bound address.
func (ds *DatagramSocket) Addr() netsim.Addr { return ds.addr }

// JoinGroup subscribes the socket to a multicast group. The membership
// change is a critical event so that group deliveries started before/after
// it replay consistently.
func (ds *DatagramSocket) JoinGroup(t *core.Thread, group string) error {
	if ds.env.vm.Mode() == ids.Passthrough {
		return ds.sock.JoinGroup(group)
	}
	return netevent.Begin(t, obs.KindDatagram, "joingroup").Do(nil, func(ids.GCount) error {
		if ds.sock == nil {
			return nil // open-world replay: there is no socket
		}
		return ds.sock.JoinGroup(group)
	})
}

// Close releases the socket (§4.2.1). In replay it first waits, boundedly,
// for outstanding reliable deliveries to be acknowledged.
func (ds *DatagramSocket) Close(t *core.Thread) error {
	e := ds.env
	if e.vm.Mode() == ids.Passthrough {
		return ds.sock.Close()
	}
	if ds.rc != nil {
		// Bounded flush outside the critical section: peers acknowledge at
		// the rudp layer even for datagrams their application ignores, so
		// this normally drains fast; a peer that already closed leaves
		// permanently unacknowledged datagrams behind, hence the bound.
		limit := e.ReplayCloseFlush
		if limit <= 0 {
			limit = 250 * time.Millisecond
		}
		deadline := time.Now().Add(limit)
		for ds.rc.Outstanding() > 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	return netevent.Begin(t, obs.KindDatagram, "close").Do(nil, func(ids.GCount) error {
		switch {
		case ds.rc != nil:
			return ds.rc.Close()
		case ds.sock != nil:
			return ds.sock.Close()
		}
		return nil
	})
}

// encodeTrailer appends the DGnetworkEventId trailer to payload.
func encodeTrailer(payload []byte, id ids.DGNetworkEventID, portion byte) []byte {
	out := make([]byte, len(payload)+metaTrailerLen)
	copy(out, payload)
	tr := out[len(payload):]
	binary.BigEndian.PutUint32(tr[0:4], uint32(id.VM))
	binary.BigEndian.PutUint64(tr[4:12], uint64(id.GC))
	tr[12] = portion
	return out
}

// decodeTrailer splits a wire datagram into payload and trailer fields.
func decodeTrailer(frame []byte) (payload []byte, id ids.DGNetworkEventID, portion byte, err error) {
	if len(frame) < metaTrailerLen {
		return nil, ids.DGNetworkEventID{}, 0, fmt.Errorf("djgram: frame of %d bytes has no meta trailer", len(frame))
	}
	tr := frame[len(frame)-metaTrailerLen:]
	id.VM = ids.DJVMID(binary.BigEndian.Uint32(tr[0:4]))
	id.GC = ids.GCount(binary.BigEndian.Uint64(tr[4:12]))
	portion = tr[12]
	if portion > portionRear {
		return nil, ids.DGNetworkEventID{}, 0, fmt.Errorf("djgram: bad portion flag %d", portion)
	}
	return frame[:len(frame)-metaTrailerLen], id, portion, nil
}
