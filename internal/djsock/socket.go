package djsock

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/tracelog"
)

// Socket is the DJVM wrapper of a connected stream socket (java.net.Socket
// plus its input/output streams). Reads, writes, available queries and close
// are network critical events subject to the record/replay discipline of
// §4.1.3.
type Socket struct {
	env *Env
	// stream is the live connection; nil for an open-world replay socket,
	// which is served entirely from the log.
	stream *netsim.Stream
	// peerDJVM selects the closed-world scheme (true) or full-content
	// open-world recording (false) for this connection's events.
	peerDJVM bool

	local, remote netsim.Addr

	// connID is the closed-world connection's identity (the client's
	// connectionId meta frame) — shared by both endpoints of the connection,
	// zero for open-world sockets. rdOff/wrOff count application bytes
	// consumed/produced on this end; the meta frame bypasses Read/Write, so
	// a writer's offsets and the peer reader's offsets describe the same
	// stream positions. Both are only touched inside record-phase marks
	// (under the GC-critical section) and only feed net-span emission.
	connID       ids.ConnectionID
	rdOff, wrOff uint64

	rdLock, wrLock fdLock // Figure 3 FD-critical sections
}

func newSocket(e *Env, s *netsim.Stream, peerDJVM bool, connID ids.ConnectionID) *Socket {
	return &Socket{
		env:      e,
		stream:   s,
		peerDJVM: peerDJVM,
		connID:   connID,
		local:    s.LocalAddr(),
		remote:   s.RemoteAddr(),
		rdLock:   fdLock{disabled: e.DisableFDLocks},
		wrLock:   fdLock{disabled: e.DisableFDLocks},
	}
}

// newOpenReplaySocket builds a socket whose peer is not present during
// replay: every event is served from the NetworkLogFile (§5).
func newOpenReplaySocket(e *Env, local, remote netsim.Addr) *Socket {
	return &Socket{env: e, peerDJVM: false, local: local, remote: remote}
}

// Connect establishes a connection from the VM's host to addr — the
// Socket() constructor of §4.1.1. It is a blocking network critical event:
// the OS-level connect proceeds outside the GC-critical section, the
// connectionId is sent as the connection's first meta data (closed scheme),
// and the event is marked on completion (§4.1.3).
func (e *Env) Connect(t *core.Thread, addr netsim.Addr) (*Socket, error) {
	if e.vm.Mode() == ids.Passthrough {
		s, err := e.dial(addr)
		if err != nil {
			return nil, err
		}
		return newSocket(e, s, true, ids.ConnectionID{}), nil
	}

	eventNum := t.NextEventNum()
	eventID := t.EventID(eventNum)
	t.CountNetworkEvent()
	connID := ids.ConnectionID{VM: e.vm.ID(), Thread: t.Num(), Event: eventNum}
	closedSc := e.closedSchemeTo(addr.Host)

	if e.vm.Mode() == ids.Record {
		var (
			s   *netsim.Stream
			err error
		)
		t.BlockingKind(obs.KindSocket, func() {
			s, err = e.dial(addr)
		}, func(gc ids.GCount) {
			if err == nil && closedSc {
				// The connectionId is sent via a low-level write before the
				// constructor returns, guaranteeing it is the first data on the
				// connection (§4.1.3). Like every send it goes out inside the
				// GC-critical section: the peer's accept completes on reading
				// it, so nothing that depends on that accept can be marked
				// with a smaller counter of this VM than the connect itself —
				// sent from op, before the mark, it could, and the recording
				// would deadlock every replay.
				_, err = s.Write(encodeMeta(connID))
			}
			switch {
			case err != nil:
				e.logNetErr(eventID, "connect", err)
			case !closedSc:
				local, remote := s.LocalAddr(), s.RemoteAddr()
				e.vm.Logs().Network.Append(&tracelog.OpenConnectEntry{
					EventID:    eventID,
					LocalPort:  local.Port,
					RemoteHost: remote.Host,
					RemotePort: remote.Port,
				})
			default:
				e.logNetSpan(eventID, gc, tracelog.NetOpConnect, connID, 0, 0)
			}
		})
		if err != nil {
			return nil, err
		}
		return newSocket(e, s, closedSc, connID), nil
	}

	// Replay.
	if rerr, ok := e.replayErr(eventID); ok {
		t.CriticalKind(obs.KindSocket, func(ids.GCount) {})
		return nil, rerr
	}
	if entry, ok := e.vm.NetworkIndex().OpenConnects[eventID]; ok {
		// Non-DJVM peer: the OS-level connect is not executed; the results
		// are retrieved from the log (§5).
		t.CriticalKind(obs.KindSocket, func(ids.GCount) {})
		return newOpenReplaySocket(e,
			netsim.Addr{Host: e.host, Port: entry.LocalPort},
			netsim.Addr{Host: entry.RemoteHost, Port: entry.RemotePort},
		), nil
	}
	if !closedSc {
		return nil, divergef("connect event %v to non-DJVM peer %v has no recorded result", eventID, addr)
	}
	var (
		s   *netsim.Stream
		err error
	)
	t.BlockingKind(obs.KindSocket, func() {
		s, err = e.dial(addr)
		if err != nil {
			err = divergef("connect %v: %v", addr, err)
			return
		}
		if _, werr := s.Write(encodeMeta(connID)); werr != nil {
			err = divergef("connect %v: sending meta data: %v", addr, werr)
		}
	}, func(ids.GCount) {})
	if err != nil {
		return nil, err
	}
	return newSocket(e, s, true, connID), nil
}

// LocalAddr reports the socket's local endpoint.
func (s *Socket) LocalAddr() netsim.Addr { return s.local }

// RemoteAddr reports the socket's remote endpoint.
func (s *Socket) RemoteAddr() netsim.Addr { return s.remote }

// Read reads up to len(p) bytes — SocketInputStream.read. It may return
// fewer bytes than requested; the byte count is the recorded quantity that
// replay reproduces exactly, blocking until the recorded number of bytes is
// available and never consuming more (§4.1.3 "Replaying read", Figure 3).
func (s *Socket) Read(t *core.Thread, p []byte) (int, error) {
	e := s.env
	if e.vm.Mode() == ids.Passthrough {
		return s.stream.Read(p)
	}

	eventID := t.EventID(t.NextEventNum())
	t.CountNetworkEvent()

	s.rdLock.enter(e.vm.Mode())
	defer s.rdLock.leave(e.vm.Mode())

	if e.vm.Mode() == ids.Record {
		var (
			n   int
			err error
		)
		t.BlockingKind(obs.KindSocket, func() {
			n, err = s.stream.Read(p)
		}, func(gc ids.GCount) {
			switch {
			case err == io.EOF:
				s.logRead(eventID, nil, true)
			case err != nil:
				e.logNetErr(eventID, "read", err)
			default:
				s.logRead(eventID, p[:n], false)
				s.spanData(eventID, gc, tracelog.NetOpRead, n)
			}
		})
		return n, err
	}

	// Replay.
	if rerr, ok := e.replayErr(eventID); ok {
		t.CriticalKind(obs.KindSocket, func(ids.GCount) {})
		return 0, rerr
	}
	if s.stream == nil || !s.peerDJVM {
		// Open scheme: the read is performed with the recorded data, not
		// with the real network (§5). No blocking is possible, so this is a
		// plain critical event.
		entry, ok := e.vm.NetworkIndex().OpenReads[eventID]
		if !ok {
			return 0, divergef("read event %v has no recorded data", eventID)
		}
		if len(entry.Data) > len(p) {
			return 0, divergef("read event %v recorded %d bytes but buffer holds %d",
				eventID, len(entry.Data), len(p))
		}
		t.CriticalKind(obs.KindSocket, func(ids.GCount) {})
		n := copy(p, entry.Data)
		if entry.EOF {
			return 0, io.EOF
		}
		return n, nil
	}

	entry, ok := e.vm.NetworkIndex().Reads[eventID]
	if !ok {
		return 0, divergef("read event %v has no recorded byte count", eventID)
	}
	if int(entry.N) > len(p) {
		return 0, divergef("read event %v recorded %d bytes but buffer holds %d",
			eventID, entry.N, len(p))
	}
	var err error
	t.BlockingKind(obs.KindSocket, func() {
		if entry.EOF {
			// The record-phase read observed end of stream; wait for it.
			var n int
			n, err = s.stream.Read(p[:0:0])
			if err == nil || n != 0 {
				err = divergef("read event %v recorded EOF but stream has data", eventID)
			} else if err == io.EOF {
				err = nil
			}
			return
		}
		// Read exactly the recorded number of bytes: block until they are
		// available, never consume more (Figure 3).
		err = readFull(s.stream, p[:entry.N])
	}, func(ids.GCount) {})
	if err != nil {
		return 0, err
	}
	if entry.EOF {
		return 0, io.EOF
	}
	return int(entry.N), nil
}

// ReadTimeout is Read with an SO_TIMEOUT-style deadline. A record-phase
// timeout is logged as the read's outcome and re-thrown during replay
// without re-arming the deadline; a record-phase success replays exactly
// like a plain read (the recorded byte count, however long it takes the
// replayed peer to produce it).
func (s *Socket) ReadTimeout(t *core.Thread, p []byte, d time.Duration) (int, error) {
	e := s.env
	if e.vm.Mode() == ids.Passthrough {
		n, err := s.stream.ReadTimeout(p, d)
		return n, mapTimeout(err)
	}
	if e.vm.Mode() == ids.Replay {
		// Success and failure outcomes both replay through the plain-read
		// paths (ReadEntry / NetErrEntry lookups).
		return s.Read(t, p)
	}

	eventID := t.EventID(t.NextEventNum())
	t.CountNetworkEvent()
	s.rdLock.enter(e.vm.Mode())
	defer s.rdLock.leave(e.vm.Mode())

	var (
		n   int
		err error
	)
	t.BlockingKind(obs.KindSocket, func() {
		n, err = s.stream.ReadTimeout(p, d)
		err = mapTimeout(err)
	}, func(gc ids.GCount) {
		switch {
		case err == io.EOF:
			s.logRead(eventID, nil, true)
		case err != nil:
			e.logNetErr(eventID, "read", err)
		default:
			s.logRead(eventID, p[:n], false)
			s.spanData(eventID, gc, tracelog.NetOpRead, n)
		}
	})
	return n, err
}

// spanData emits the causal net-span for one successful closed-world data
// transfer and advances the direction's application-byte offset. Runs inside
// the event's mark (GC-critical section), so per-socket offset updates are
// serialized in the order the bytes were actually consumed/produced.
func (s *Socket) spanData(eventID ids.NetworkEventID, gc ids.GCount, op uint8, n int) {
	if !s.peerDJVM || n <= 0 {
		return
	}
	off := &s.rdOff
	if op == tracelog.NetOpWrite {
		off = &s.wrOff
	}
	s.env.logNetSpan(eventID, gc, op, s.connID, *off, n)
	*off += uint64(n)
}

// logRead logs a record-phase read's observable result: in the closed scheme
// only the byte count (the bytes will flow again during replay); in the open
// scheme the full contents, since the peer will not be there to resend them
// (§5). This difference is exactly why open-world logs grow with message
// volume while closed-world logs do not (§6).
func (s *Socket) logRead(eventID ids.NetworkEventID, data []byte, eof bool) {
	if s.peerDJVM {
		s.env.vm.Logs().Network.Append(&tracelog.ReadEntry{
			EventID: eventID,
			N:       uint32(len(data)),
			EOF:     eof,
		})
		return
	}
	s.env.vm.Logs().Network.Append(&tracelog.OpenReadEntry{
		EventID: eventID,
		Data:    data,
		EOF:     eof,
	})
}

// Write sends p — SocketOutputStream.write. Write is non-blocking and is
// handled by placing it within the GC-critical section, like a shared
// variable update; the per-socket FD-critical section keeps overlapping
// writes by multiple threads replayable while letting threads on different
// sockets proceed in parallel (§4.1.3 "Replaying write", Figure 3).
func (s *Socket) Write(t *core.Thread, p []byte) (int, error) {
	e := s.env
	if e.vm.Mode() == ids.Passthrough {
		return s.stream.Write(p)
	}

	eventID := t.EventID(t.NextEventNum())
	t.CountNetworkEvent()

	s.wrLock.enter(e.vm.Mode())
	defer s.wrLock.leave(e.vm.Mode())

	if e.vm.Mode() == ids.Record {
		var (
			n   int
			err error
			sum uint64
		)
		if !s.peerDJVM {
			// p is the caller's for the whole call: its checksum is taken
			// out here, not under the VM's lock.
			sum = tracelog.WideSum(p)
		}
		t.CriticalKind(obs.KindSocket, func(gc ids.GCount) {
			n, err = s.stream.Write(p)
			switch {
			case err != nil:
				e.logNetErr(eventID, "write", err)
			case !s.peerDJVM:
				e.vm.Logs().Network.Append(&tracelog.OpenWriteEntry{
					EventID: eventID,
					Len:     uint32(len(p)),
					Sum:     sum,
				})
			default:
				s.spanData(eventID, gc, tracelog.NetOpWrite, n)
			}
		})
		return n, err
	}

	// Replay.
	if rerr, ok := e.replayErr(eventID); ok {
		t.CriticalKind(obs.KindSocket, func(ids.GCount) {})
		return 0, rerr
	}
	if s.stream == nil || !s.peerDJVM {
		// Open scheme: "any message sent to a non-DJVM thread during the
		// record phase need not be sent again during the replay phase" (§5).
		// Verify the replayed execution produced the same message.
		entry, ok := e.vm.NetworkIndex().OpenWrites[eventID]
		if !ok {
			return 0, divergef("write event %v has no recorded entry", eventID)
		}
		t.CriticalKind(obs.KindSocket, func(ids.GCount) {})
		if err := entry.Verify(p); err != nil {
			return 0, divergef("write event %v payload differs from record: %v", eventID, err)
		}
		return len(p), nil
	}
	var (
		n   int
		err error
	)
	t.CriticalKind(obs.KindSocket, func(ids.GCount) {
		n, err = s.stream.Write(p)
	})
	if err != nil {
		return n, divergef("write event %v failed during replay: %v", eventID, err)
	}
	return n, nil
}

// Available reports the number of bytes readable without blocking. The
// record phase executes it before the GC-critical section and records the
// result; the replay phase blocks until the recorded number of bytes is
// available and returns exactly that number (§4.1.3 "Replaying available and
// bind").
func (s *Socket) Available(t *core.Thread) (int, error) {
	e := s.env
	if e.vm.Mode() == ids.Passthrough {
		return s.stream.Available(), nil
	}

	eventID := t.EventID(t.NextEventNum())
	t.CountNetworkEvent()

	if e.vm.Mode() == ids.Record {
		var n int
		t.BlockingKind(obs.KindSocket, func() {
			n = s.stream.Available()
		}, func(ids.GCount) {
			e.vm.Logs().Network.Append(&tracelog.AvailableEntry{
				EventID: eventID,
				N:       uint32(n),
			})
		})
		return n, nil
	}

	// Replay.
	if rerr, ok := e.replayErr(eventID); ok {
		t.CriticalKind(obs.KindSocket, func(ids.GCount) {})
		return 0, rerr
	}
	entry, ok := e.vm.NetworkIndex().Availables[eventID]
	if !ok {
		return 0, divergef("available event %v has no recorded count", eventID)
	}
	if s.stream == nil || !s.peerDJVM {
		t.CriticalKind(obs.KindSocket, func(ids.GCount) {})
		return int(entry.N), nil
	}
	var got int
	t.BlockingKind(obs.KindSocket, func() {
		got = s.stream.WaitAvailable(int(entry.N))
	}, func(ids.GCount) {})
	if got < int(entry.N) {
		return 0, divergef("available event %v: stream ended with %d bytes, recorded %d",
			eventID, got, entry.N)
	}
	return int(entry.N), nil
}

// CloseWrite half-closes the connection (Socket.shutdownOutput): the peer
// observes end of stream after draining, while this side keeps reading.
// A non-blocking critical event like close.
func (s *Socket) CloseWrite(t *core.Thread) error {
	e := s.env
	if e.vm.Mode() == ids.Passthrough {
		return s.stream.ShutdownWrite()
	}
	eventID := t.EventID(t.NextEventNum())
	t.CountNetworkEvent()
	if rerr, ok := replayErrIfReplaying(e, eventID); ok {
		t.CriticalKind(obs.KindSocket, func(ids.GCount) {})
		return rerr
	}
	var err error
	t.CriticalKind(obs.KindSocket, func(ids.GCount) {
		if s.stream != nil {
			err = s.stream.ShutdownWrite()
		}
		if err != nil && e.vm.Mode() == ids.Record {
			e.logNetErr(eventID, "closewrite", err)
		}
	})
	return err
}

// Close shuts the connection down. Like create and listen, it is recorded
// simply by enclosing it in the GC-critical section (§4.1.3 "Other stream
// socket events").
func (s *Socket) Close(t *core.Thread) error {
	e := s.env
	if e.vm.Mode() == ids.Passthrough {
		return s.stream.Close()
	}
	eventID := t.EventID(t.NextEventNum())
	t.CountNetworkEvent()
	if rerr, ok := replayErrIfReplaying(e, eventID); ok {
		t.CriticalKind(obs.KindSocket, func(ids.GCount) {})
		return rerr
	}
	var err error
	t.CriticalKind(obs.KindSocket, func(ids.GCount) {
		if s.stream != nil {
			err = s.stream.Close()
		}
		if err != nil && e.vm.Mode() == ids.Record {
			e.logNetErr(eventID, "close", err)
		}
	})
	return err
}

// Bound adapts the socket to io.ReadWriteCloser for one thread, so standard
// library helpers (bufio, io.Copy, encoding/...) can drive it.
func (s *Socket) Bound(t *core.Thread) io.ReadWriteCloser {
	return &boundSocket{s: s, t: t}
}

type boundSocket struct {
	s *Socket
	t *core.Thread
}

func (b *boundSocket) Read(p []byte) (int, error)  { return b.s.Read(b.t, p) }
func (b *boundSocket) Write(p []byte) (int, error) { return b.s.Write(b.t, p) }
func (b *boundSocket) Close() error                { return b.s.Close(b.t) }

// ReadFull reads exactly len(p) bytes, looping over partial reads. Each
// underlying read is its own network critical event, exactly as a Java
// DataInputStream.readFully would issue repeated read() calls.
func (s *Socket) ReadFull(t *core.Thread, p []byte) error {
	for got := 0; got < len(p); {
		n, err := s.Read(t, p[got:])
		if err != nil {
			return fmt.Errorf("djsock: short read %d/%d: %w", got, len(p), err)
		}
		got += n
	}
	return nil
}
