// Package djsock implements the DJVM record/replay layer for stream (TCP)
// sockets — §4.1 of the paper — over the netsim substrate, plus the
// open/mixed-world handling of §5.
//
// Each Java stream-socket call (accept, bind, create, listen, connect, close,
// available, read, write) maps to a network event; every network event is a
// critical event of the owning DJVM. Blocking calls (connect, accept, read,
// available) execute outside the GC-critical section and are marked on
// completion, letting threads operating on different sockets proceed in
// parallel with minimal perturbation (§4.1.3 "marking strategy").
//
// Closed-world connections are made deterministic by the connectionId
// protocol: the connecting client sends its connectionId as the very first
// (meta) data over the established connection; the accepting server logs a
// ServerSocketEntry ⟨serverId, clientId⟩ and, during replay, matches each
// accept event to the connection carrying the recorded connectionId,
// buffering out-of-order arrivals in a connection pool (§4.1.3, Figure 2).
package djsock

import (
	"encoding/binary"
	"sync"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/netevent"
	"repro/internal/netsim"
	"repro/internal/tracelog"
)

// ErrDiverged is wrapped by errors returned when a replaying execution's
// network activity departs from the recorded one; ReplayedError is a recorded
// error re-thrown during replay (§4.1.3). Both are the network-event
// skeleton's, under the names this package has always exported.
var ErrDiverged = netevent.ErrDiverged

type ReplayedError = netevent.ReplayedError

// Env binds one DJVM to a host on a simulated network. All sockets of the VM
// are created through its Env.
type Env struct {
	vm   *core.VM
	net  *netsim.Network
	host string

	// DisableFDLocks turns off the per-socket FD-critical sections of
	// Figure 3 for the ablation benchmark. With them off, overlapping
	// reads/writes on one socket from multiple threads are not replayable;
	// the ablation workloads use disjoint sockets.
	DisableFDLocks bool
}

// NewEnv creates the socket environment for vm on the named simulated host.
func NewEnv(vm *core.VM, net *netsim.Network, host string) *Env {
	return &Env{vm: vm, net: net, host: host}
}

// VM returns the environment's DJVM.
func (e *Env) VM() *core.VM { return e.vm }

// Network returns the underlying simulated network.
func (e *Env) Network() *netsim.Network { return e.net }

// Host returns the VM's host name.
func (e *Env) Host() string { return e.host }

// closedSchemeTo reports whether traffic with the given peer host uses the
// closed-world scheme (meta-data exchange, §4) rather than full-content
// recording (§5): always in the closed world, never in the open world, and
// per the configured DJVM peer set in the mixed world.
func (e *Env) closedSchemeTo(peerHost string) bool {
	return e.vm.IsDJVMPeer(peerHost)
}

// connection meta data: the connectionId sent by the client as the first
// data over every closed-world connection, as a fixed 12-byte frame.
const metaLen = 12

func encodeMeta(id ids.ConnectionID) []byte {
	buf := make([]byte, metaLen)
	binary.BigEndian.PutUint32(buf[0:4], uint32(id.VM))
	binary.BigEndian.PutUint32(buf[4:8], uint32(id.Thread))
	binary.BigEndian.PutUint32(buf[8:12], uint32(id.Event))
	return buf
}

func decodeMeta(buf []byte) ids.ConnectionID {
	return ids.ConnectionID{
		VM:     ids.DJVMID(binary.BigEndian.Uint32(buf[0:4])),
		Thread: ids.ThreadNum(binary.BigEndian.Uint32(buf[4:8])),
		Event:  ids.EventNum(binary.BigEndian.Uint32(buf[8:12])),
	}
}

// readFull reads exactly len(p) bytes from s, looping over partial reads.
func readFull(s *netsim.Stream, p []byte) error {
	for got := 0; got < len(p); {
		n, err := s.Read(p[got:])
		if err != nil {
			return err
		}
		got += n
	}
	return nil
}

// logNetSpan appends a causal-tracing annotation for a closed-world socket
// event: the connection it acted on, its counter value, and (for data
// transfer) the application-stream byte range. Called from inside the event's
// mark — the GC-critical section — so spans land in the network log in
// counter order and the causal-trace flag needs no atomics. No-op unless
// EnableCausalTrace was called (record mode).
func (e *Env) logNetSpan(eventID ids.NetworkEventID, gc ids.GCount, op uint8, conn ids.ConnectionID, off uint64, n int) {
	if !e.vm.CausalTraceLocked() {
		return
	}
	e.vm.Logs().Network.Append(&tracelog.NetSpanEntry{
		EventID: eventID,
		GC:      gc,
		Op:      op,
		Conn:    conn,
		Offset:  off,
		Len:     uint32(n),
	})
}

// fdLock is one per-socket, per-direction FD-critical section (Figure 3).
// It serializes record-phase operations on one socket so that the order in
// which events are marked (and thus replayed) matches the order in which
// they consumed or produced stream bytes, while operations on different
// sockets proceed in parallel.
//
// The lock is held only during the record phase: during replay the global
// counter already totally orders the VM's critical events, so same-socket
// operations cannot overlap — and holding an FD lock across the replay turn
// wait would deadlock (a thread could take the lock while the thread owning
// the earlier turn blocks on it).
type fdLock struct {
	mu       sync.Mutex
	disabled bool
}

func (l *fdLock) enter(mode ids.Mode) {
	if mode == ids.Record && !l.disabled {
		l.mu.Lock()
	}
}

func (l *fdLock) leave(mode ids.Mode) {
	if mode == ids.Record && !l.disabled {
		l.mu.Unlock()
	}
}
