package djsock

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/netevent"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/tracelog"
)

// ServerSocket is the DJVM wrapper of a listening socket (java.net
// ServerSocket). Creating one maps the Java-side create/bind/listen sequence
// to a single listen network event whose observable result — the bound local
// port — is recorded and re-established during replay (§4.1.3 "Replaying
// available and bind").
type ServerSocket struct {
	env  *Env
	l    *netsim.Listener // nil for an open-world replay server socket
	port uint16

	// pool buffers connections that arrived out of order during replay until
	// the accept event expecting them executes (§4.1.3 "connection pool").
	pool map[ids.ConnectionID]*netsim.Stream
}

// Listen creates a server socket bound to port on the VM's host (port 0
// picks an ephemeral port — whose identity is recorded, so replay binds to
// the same port). It is one network critical event, the bind event.
func (e *Env) Listen(t *core.Thread, port uint16) (*ServerSocket, error) {
	var l *netsim.Listener
	port, err := netevent.Bind(t, obs.KindSocket, "listen", port, func(p uint16) (_ uint16, err error) {
		if l, err = e.net.Listen(e.host, p); err != nil {
			return 0, err
		}
		return l.Addr().Port, nil
	})
	if err != nil {
		return nil, err
	}
	return &ServerSocket{env: e, l: l, port: port}, nil
}

// Port reports the server socket's bound local port.
func (s *ServerSocket) Port() uint16 { return s.port }

// Backlog reports how many established connections are waiting to be
// accepted (0 for an open-world replay server socket).
func (s *ServerSocket) Backlog() int {
	if s.l == nil {
		return 0
	}
	return s.l.Backlog()
}

// Accept waits for and returns the next connection.
//
// Record phase (closed scheme): the OS-level accept proceeds outside the
// GC-critical section; the server then receives the client's connectionId as
// the connection's first meta data, logs the ServerSocketEntry
// ⟨serverId, clientId⟩, and marks the event (§4.1.3).
//
// Replay phase (closed scheme): the accept's networkEventId selects the
// recorded connectionId from the NetworkLogFile; the connection pool is
// consulted first, and newly arriving connections are buffered there until
// the one carrying the matching connectionId arrives (§4.1.3, Figure 2).
//
// Open scheme (non-DJVM peer): the remote endpoint is recorded at accept
// time; replay synthesizes the connection entirely from the log (§5).
func (s *ServerSocket) Accept(t *core.Thread) (*Socket, error) {
	return s.AcceptTimeout(t, noDeadline)
}

// AcceptTimeout is Accept with an SO_TIMEOUT-style deadline (a negative d
// means none). A record-phase timeout is an error outcome like any other —
// logged and re-thrown during replay without waiting out the deadline
// (timeouts are elided, so replay runs faster than real time). A record-phase
// success replays through the regular connection-pool path.
//
// Note that whether a timeout or a connection wins the race is itself
// nondeterministic; the recorded outcome is what replays, which is exactly
// the §4.1.2 "variable network delays" discipline applied to the deadline.
func (s *ServerSocket) AcceptTimeout(t *core.Thread, d time.Duration) (*Socket, error) {
	e := s.env
	if e.vm.Mode() == ids.Passthrough {
		conn, err := s.l.AcceptTimeout(d)
		if err != nil {
			return nil, mapTimeout(err)
		}
		return newSocket(e, conn, true, ids.ConnectionID{}), nil
	}

	ev := netevent.Begin(t, obs.KindSocket, "accept")
	var (
		conn     *netsim.Stream
		clientID ids.ConnectionID
	)
	if ev.Recording() {
		var closedSc bool
		err := ev.Record(func() (err error) {
			if conn, err = s.l.AcceptTimeout(d); err != nil {
				return mapTimeout(err)
			}
			if closedSc = e.closedSchemeTo(conn.RemoteAddr().Host); closedSc {
				clientID, err = readMeta(conn)
			}
			return err
		}, func(gc ids.GCount) error {
			if closedSc {
				e.vm.Logs().Network.Append(&tracelog.ServerSocketEntry{ServerID: ev.ID, ClientID: clientID})
				e.logNetSpan(ev.ID, gc, tracelog.NetOpAccept, clientID, 0, 0)
				return nil
			}
			remote := conn.RemoteAddr()
			e.vm.Logs().Network.Append(&tracelog.OpenAcceptEntry{
				EventID:    ev.ID,
				RemoteHost: remote.Host,
				RemotePort: remote.Port,
			})
			return nil
		})
		if err != nil {
			return nil, err
		}
		return newSocket(e, conn, closedSc, clientID), nil
	}

	// Replay. The record-phase peer was either not a DJVM — the connection
	// is synthesized from the log, with no network activity (§5) — or sent
	// the connectionId this accept now waits for.
	idx := e.vm.NetworkIndex()
	peer, open := idx.OpenAccepts.Get(ev.ID)
	clientID, closedSc := idx.ServerSockets.Get(ev.ID)
	err := ev.Replay(open || closedSc, open, func() (err error) {
		conn, err = s.awaitConn(clientID)
		return err
	}, nil)
	if err != nil {
		return nil, err
	}
	if open {
		return newOpenReplaySocket(e,
			netsim.Addr{Host: e.host, Port: s.port},
			netsim.Addr{Host: peer.RemoteHost, Port: peer.RemotePort},
		), nil
	}
	return newSocket(e, conn, true, clientID), nil
}

// readMeta receives the client's connectionId, the first data over a
// closed-world connection.
func readMeta(conn *netsim.Stream) (ids.ConnectionID, error) {
	var meta [metaLen]byte
	if err := readFull(conn, meta[:]); err != nil {
		return ids.ConnectionID{}, fmt.Errorf("accept: reading connection meta data: %w", err)
	}
	return decodeMeta(meta[:]), nil
}

// awaitConn returns the connection that carries the connectionId want, from
// the pool or off the backlog, buffering every other arrival for the accept
// event that recorded it.
func (s *ServerSocket) awaitConn(want ids.ConnectionID) (*netsim.Stream, error) {
	if s.pool == nil {
		s.pool = make(map[ids.ConnectionID]*netsim.Stream)
	}
	if c, hit := s.pool[want]; hit {
		delete(s.pool, want)
		return c, nil
	}
	for {
		c, err := s.l.Accept()
		if err != nil {
			return nil, netevent.Divergef("accept waiting for %v: %v", want, err)
		}
		id, err := readMeta(c)
		if err != nil {
			return nil, netevent.Divergef("accept waiting for %v: %v", want, err)
		}
		if id == want {
			return c, nil
		}
		s.pool[id] = c
	}
}

// Close shuts the server socket down. It is a non-blocking network critical
// event handled like a shared-variable update (§4.1.3 "Other stream socket
// events").
func (s *ServerSocket) Close(t *core.Thread) error {
	if s.env.vm.Mode() == ids.Passthrough {
		return s.l.Close()
	}
	return netevent.Begin(t, obs.KindSocket, "close").Do(nil, func(ids.GCount) error {
		if s.l == nil {
			return nil // open-world replay server socket: nothing is bound
		}
		return s.l.Close()
	})
}
