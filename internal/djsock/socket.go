package djsock

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/netevent"
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

	ev := netevent.Begin(t, obs.KindSocket, "connect")
	connID := ids.ConnectionID{VM: e.vm.ID(), Thread: t.Num(), Event: ev.ID.Event}
	closedSc := e.closedSchemeTo(addr.Host)

	var s *netsim.Stream
	dial := func() (err error) {
		s, err = e.dial(addr)
		return err
	}
	mark := func(gc ids.GCount) error {
		if !closedSc {
			local, remote := s.LocalAddr(), s.RemoteAddr()
			e.vm.Logs().Network.Append(&tracelog.OpenConnectEntry{
				EventID:    ev.ID,
				LocalPort:  local.Port,
				RemoteHost: remote.Host,
				RemotePort: remote.Port,
			})
			return nil
		}
		// The connectionId is sent via a low-level write before the
		// constructor returns, guaranteeing it is the first data on the
		// connection (§4.1.3). Like every send it goes out inside the
		// GC-critical section: the peer's accept completes on reading it, so
		// nothing that depends on that accept can be marked with a smaller
		// counter of this VM than the connect itself — sent from dial, before
		// the mark, it could, and the recording would deadlock every replay.
		if _, err := s.Write(encodeMeta(connID)); err != nil {
			return err
		}
		e.logNetSpan(ev.ID, gc, tracelog.NetOpConnect, connID, 0, 0)
		return nil
	}
	if ev.Recording() {
		if err := ev.Record(dial, mark); err != nil {
			return nil, err
		}
		return newSocket(e, s, closedSc, connID), nil
	}
	// A non-DJVM peer is not there during replay: the OS-level connect is
	// not executed, its results are retrieved from the log (§5).
	entry, open := e.vm.NetworkIndex().OpenConnects.Get(ev.ID)
	if err := ev.Replay(open || closedSc, open, dial, mark); err != nil {
		return nil, err
	}
	if open {
		return newOpenReplaySocket(e,
			netsim.Addr{Host: e.host, Port: entry.LocalPort},
			netsim.Addr{Host: entry.RemoteHost, Port: entry.RemotePort},
		), nil
	}
	return newSocket(e, s, true, connID), nil
}

// LocalAddr reports the socket's local endpoint.
func (s *Socket) LocalAddr() netsim.Addr { return s.local }

// RemoteAddr reports the socket's remote endpoint.
func (s *Socket) RemoteAddr() netsim.Addr { return s.remote }

// noDeadline is the timeout of the plain blocking calls: netsim's *Timeout
// operations take a negative duration to mean none.
const noDeadline time.Duration = -1

// Read reads up to len(p) bytes — SocketInputStream.read. It may return
// fewer bytes than requested; the byte count is the recorded quantity that
// replay reproduces exactly, blocking until the recorded number of bytes is
// available and never consuming more (§4.1.3 "Replaying read", Figure 3).
func (s *Socket) Read(t *core.Thread, p []byte) (int, error) {
	return s.ReadTimeout(t, p, noDeadline)
}

// ReadTimeout is Read with an SO_TIMEOUT-style deadline (a negative d means
// none). A record-phase timeout is logged as the read's outcome and re-thrown
// during replay without re-arming the deadline; a record-phase success
// replays exactly like a plain read (the recorded byte count, however long it
// takes the replayed peer to produce it).
func (s *Socket) ReadTimeout(t *core.Thread, p []byte, d time.Duration) (int, error) {
	e := s.env
	if e.vm.Mode() == ids.Passthrough {
		n, err := s.stream.ReadTimeout(p, d)
		return n, mapTimeout(err)
	}

	ev := netevent.Begin(t, obs.KindSocket, "read")
	s.rdLock.enter(e.vm.Mode())
	defer s.rdLock.leave(e.vm.Mode())

	var (
		n   int
		eof bool
		row tracelog.ContentRow // open scheme, replay: where the recorded bytes are
		err error
	)
	if ev.Recording() {
		err = ev.Record(func() (err error) {
			n, err = s.stream.ReadTimeout(p, d)
			if eof = err == io.EOF; eof {
				return nil // end of stream is a result, not a failure
			}
			return mapTimeout(err)
		}, func(gc ids.GCount) error {
			s.logRead(ev.ID, p[:n], eof)
			s.spanData(ev.ID, gc, tracelog.NetOpRead, n)
			return nil
		})
	} else {
		// The recorded result is a byte count in the closed scheme — the
		// bytes flow again — and the bytes themselves in the open scheme,
		// where the read is performed with the recorded data, not with the
		// real network, and cannot block (§5).
		var ok bool
		if s.peerDJVM {
			var r tracelog.ReadEntry
			r, ok = e.vm.NetworkIndex().Reads.Get(ev.ID)
			n, eof = int(r.N), r.EOF
		} else {
			row, ok = e.vm.NetworkIndex().OpenReads.Get(ev.ID)
			n, eof = int(row.N), row.EOF
		}
		if n > len(p) {
			return 0, netevent.Divergef("read event %v recorded %d bytes but buffer holds %d", ev.ID, n, len(p))
		}
		err = ev.Replay(ok, !s.peerDJVM, func() error {
			if !eof {
				// Read exactly the recorded number of bytes: block until
				// they are available, never consume more (Figure 3).
				return readFull(s.stream, p[:n])
			}
			// The record-phase read observed end of stream; wait for it.
			_, err := s.stream.Read(p[:0:0])
			switch err {
			case io.EOF:
				return nil
			case nil:
				return netevent.Divergef("read event %v recorded EOF but stream has data", ev.ID)
			}
			return err
		}, nil)
	}
	switch {
	case err != nil:
		return 0, err
	case eof:
		return 0, io.EOF
	}
	if !s.peerDJVM && !ev.Recording() {
		// The recorded bytes leave the log here, into the application's
		// buffer, which holds n of them.
		if _, _, _, err := e.vm.NetworkIndex().Content(ev.ID, row, p[:0]); err != nil {
			return 0, fmt.Errorf("%w: %w", ErrDiverged, err)
		}
	}
	return n, nil
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
// sockets proceed in parallel (§4.1.3 "Replaying write", Figure 3). A
// closed-scheme write logs nothing: replay sends the bytes again.
func (s *Socket) Write(t *core.Thread, p []byte) (int, error) {
	e := s.env
	if e.vm.Mode() == ids.Passthrough {
		return s.stream.Write(p)
	}

	ev := netevent.Begin(t, obs.KindSocket, "write")
	s.wrLock.enter(e.vm.Mode())
	defer s.wrLock.leave(e.vm.Mode())

	if !s.peerDJVM {
		err := ev.OpenWrite(p, func() error {
			_, err := s.stream.Write(p)
			return err
		})
		if err != nil {
			return 0, err
		}
		return len(p), nil
	}
	var n int
	err := ev.Do(nil, func(gc ids.GCount) (err error) {
		if n, err = s.stream.Write(p); err == nil {
			s.spanData(ev.ID, gc, tracelog.NetOpWrite, n)
		}
		return err
	})
	return n, err
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

	ev := netevent.Begin(t, obs.KindSocket, "available")
	if ev.Recording() {
		var n int
		err := ev.Record(func() error {
			n = s.stream.Available()
			return nil
		}, func(ids.GCount) error {
			e.vm.Logs().Network.Append(&tracelog.AvailableEntry{EventID: ev.ID, N: uint32(n)})
			return nil
		})
		return n, err
	}
	entry, ok := e.vm.NetworkIndex().Availables.Get(ev.ID)
	n := int(entry.N)
	err := ev.Replay(ok, !s.peerDJVM, func() error {
		if got := s.stream.WaitAvailable(n); got < n {
			return netevent.Divergef("available event %v: stream ended with %d bytes, recorded %d", ev.ID, got, n)
		}
		return nil
	}, nil)
	if err != nil {
		return 0, err
	}
	return n, nil
}

// CloseWrite half-closes the connection (Socket.shutdownOutput): the peer
// observes end of stream after draining, while this side keeps reading.
// A non-blocking critical event like close.
func (s *Socket) CloseWrite(t *core.Thread) error {
	return s.shut(t, "closewrite", (*netsim.Stream).ShutdownWrite)
}

// Close shuts the connection down. Like create and listen, it is recorded
// simply by enclosing it in the GC-critical section (§4.1.3 "Other stream
// socket events").
func (s *Socket) Close(t *core.Thread) error {
	return s.shut(t, "close", (*netsim.Stream).Close)
}

func (s *Socket) shut(t *core.Thread, op string, shut func(*netsim.Stream) error) error {
	if s.env.vm.Mode() == ids.Passthrough {
		return shut(s.stream)
	}
	return netevent.Begin(t, obs.KindSocket, op).Do(nil, func(ids.GCount) error {
		if s.stream == nil {
			return nil // open-world replay socket: there is no connection
		}
		return shut(s.stream)
	})
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
