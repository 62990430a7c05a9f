package netsim

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Listener is the simulator's ServerSocket: it owns a port and a backlog of
// established-but-not-yet-accepted connections. As with kernel TCP, a
// client's connect completes when the connection enters the backlog, not when
// the server application calls Accept — which is exactly what makes the
// accept/connect pairing nondeterministic under variable network delay
// (Figure 1 of the paper).
type Listener struct {
	net  *Network
	addr Addr

	mu      sync.Mutex
	cond    *sync.Cond
	backlog []*Stream
	closed  bool
}

// Listen binds a listener to port on the named host and starts accepting
// connection requests into its backlog. Port 0 picks an ephemeral port.
func (n *Network) Listen(hostName string, port uint16) (*Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.checkHostUpLocked(hostName); err != nil {
		return nil, err
	}
	h := n.hostLocked(hostName)
	p, err := n.allocPortLocked(h, port)
	if err != nil {
		return nil, err
	}
	l := &Listener{net: n, addr: Addr{Host: hostName, Port: p}}
	l.cond = sync.NewCond(&l.mu)
	h.listeners[p] = l
	return l, nil
}

// Addr reports the listener's bound address.
func (l *Listener) Addr() Addr { return l.addr }

// Accept blocks until a connection is available in the backlog and returns
// its server-side stream.
func (l *Listener) Accept() (*Stream, error) { return l.AcceptTimeout(noDeadline) }

// AcceptTimeout is Accept with an SO_TIMEOUT-style deadline: it returns
// ErrTimeout if no connection becomes available within d. A negative d means
// no deadline.
func (l *Listener) AcceptTimeout(d time.Duration) (*Stream, error) {
	to := arm(d, &l.mu, l.cond)
	defer to.stop()
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.backlog) == 0 && !l.closed && !to.expired() {
		l.cond.Wait()
	}
	if len(l.backlog) == 0 {
		if l.closed {
			return nil, fmt.Errorf("accept %v: %w", l.addr, ErrClosed)
		}
		return nil, fmt.Errorf("accept %v: %w", l.addr, ErrTimeout)
	}
	s := l.backlog[0]
	l.backlog = l.backlog[1:]
	return s, nil
}

// noDeadline is the timeout of the plain blocking calls.
const noDeadline time.Duration = -1

// timeout is the SO_TIMEOUT of one blocking call that waits on a condition
// variable; the zero value is "no deadline".
type timeout struct {
	end   time.Time
	timer *time.Timer
}

// arm starts d running for a call that waits on cond under mu: when it runs
// out, every waiter on cond is woken to look. A negative d arms nothing.
func arm(d time.Duration, mu *sync.Mutex, cond *sync.Cond) timeout {
	if d < 0 {
		return timeout{}
	}
	return timeout{end: time.Now().Add(d), timer: time.AfterFunc(d, func() {
		mu.Lock()
		cond.Broadcast()
		mu.Unlock()
	})}
}

func (t timeout) expired() bool { return t.timer != nil && !time.Now().Before(t.end) }

func (t timeout) stop() {
	if t.timer != nil {
		t.timer.Stop()
	}
}

// Backlog reports how many established connections are waiting to be
// accepted.
func (l *Listener) Backlog() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.backlog)
}

// Close shuts the listener down. Pending and future Accepts fail; connections
// already in the backlog are reset.
func (l *Listener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	pending := l.backlog
	l.backlog = nil
	l.cond.Broadcast()
	l.mu.Unlock()

	l.net.mu.Lock()
	if h := l.net.hosts[l.addr.Host]; h != nil && h.listeners[l.addr.Port] == l {
		delete(h.listeners, l.addr.Port)
	}
	l.net.mu.Unlock()

	for _, s := range pending {
		s.Close()
	}
	return nil
}

// Stream is one direction-pair endpoint of an established stream connection:
// the simulator's Socket. Writes are fragmented into segments, each delayed
// independently by chaos, and reassembled strictly in order on the receive
// side, mimicking TCP's reliable in-order bytestream over a jittery path.
type Stream struct {
	net    *Network
	local  Addr
	remote Addr

	// in guards the receive side.
	in struct {
		mu      sync.Mutex
		cond    *sync.Cond
		buf     []byte
		pending map[uint64][]byte // out-of-order segments keyed by sequence
		fin     map[uint64]bool   // which pending segment is the fin marker
		next    uint64            // next sequence number to admit into buf
		eof     bool              // fin admitted: buf drains to EOF
		closed  bool              // local close: reads fail immediately
		reset   bool              // connection reset by a crash: reads fail with ErrReset
	}

	// out guards the send side.
	out struct {
		mu     sync.Mutex
		seq    uint64
		closed bool
		reset  bool // connection reset by a crash: writes fail with ErrReset
	}

	peer *Stream
}

func newStreamPair(n *Network, clientAddr, serverAddr Addr) (client, server *Stream) {
	client = &Stream{net: n, local: clientAddr, remote: serverAddr}
	server = &Stream{net: n, local: serverAddr, remote: clientAddr}
	client.peer, server.peer = server, client
	client.in.cond = sync.NewCond(&client.in.mu)
	server.in.cond = sync.NewCond(&server.in.mu)
	client.in.pending = make(map[uint64][]byte)
	server.in.pending = make(map[uint64][]byte)
	client.in.fin = make(map[uint64]bool)
	server.in.fin = make(map[uint64]bool)
	return client, server
}

// Connect establishes a stream connection from the named host to addr,
// blocking — like the Socket() constructor (§4.1.1) — until the connection is
// established by the server side (enters the listener backlog) or refused.
func (n *Network) Connect(hostName string, addr Addr) (*Stream, error) {
	n.mu.Lock()
	if err := n.checkHostUpLocked(hostName); err != nil {
		n.mu.Unlock()
		return nil, err
	}
	clientHost := n.hostLocked(hostName)
	clientPort, err := n.allocPortLocked(clientHost, 0)
	if err != nil {
		n.mu.Unlock()
		return nil, err
	}
	clientHost.streams[clientPort]++
	n.mu.Unlock()

	clientAddr := Addr{Host: hostName, Port: clientPort}
	done := make(chan error, 1)
	var client *Stream

	n.after(n.delay(n.chaos.ConnectDelayMax), func() {
		n.mu.Lock()
		// A SYN across a partition cut blackholes: the caller sees a
		// timeout rather than a refusal, matching real TCP's behavior when
		// the target is unreachable rather than down.
		if n.blockedLocked(hostName, addr.Host) {
			n.mu.Unlock()
			time.Sleep(connectTimeout)
			done <- fmt.Errorf("connect %v: %w", addr, ErrTimeout)
			return
		}
		h := n.hosts[addr.Host]
		var l *Listener
		if h != nil {
			l = h.listeners[addr.Port]
		}
		n.mu.Unlock()
		if l == nil {
			done <- fmt.Errorf("connect %v: %w", addr, ErrRefused)
			return
		}
		c, s := newStreamPair(n, clientAddr, l.addr)
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			done <- fmt.Errorf("connect %v: %w", addr, ErrRefused)
			return
		}
		l.backlog = append(l.backlog, s)
		l.cond.Broadcast()
		l.mu.Unlock()
		n.mu.Lock()
		n.registerStreamsLocked(c, s)
		n.mu.Unlock()
		client = c
		done <- nil
	})

	if err := <-done; err != nil {
		n.mu.Lock()
		if clientHost.streams[clientPort]--; clientHost.streams[clientPort] <= 0 {
			delete(clientHost.streams, clientPort)
		}
		n.mu.Unlock()
		return nil, err
	}
	return client, nil
}

// LocalAddr reports the stream's local endpoint.
func (s *Stream) LocalAddr() Addr { return s.local }

// RemoteAddr reports the stream's remote endpoint.
func (s *Stream) RemoteAddr() Addr { return s.remote }

// Write queues p for delivery to the peer. It never blocks on the receiver
// (the simulated send buffer is unbounded, like a TCP socket buffer large
// enough for the workload — see DESIGN.md). The data is fragmented per chaos
// configuration; segments arrive after independent delays but are admitted to
// the peer's receive buffer strictly in sequence order.
func (s *Stream) Write(p []byte) (int, error) {
	s.out.mu.Lock()
	if s.out.reset {
		s.out.mu.Unlock()
		return 0, fmt.Errorf("write %v: %w", s.local, ErrReset)
	}
	if s.out.closed {
		s.out.mu.Unlock()
		return 0, fmt.Errorf("write %v: %w", s.local, ErrClosed)
	}
	// Fragment while holding out.mu so concurrent writers get disjoint,
	// ordered sequence ranges.
	type seg struct {
		seq  uint64
		data []byte
	}
	var segs []seg
	maxSeg := s.net.chaos.MaxSegment
	rest := p
	for len(rest) > 0 || len(p) == 0 {
		take := len(rest)
		if maxSeg > 0 && take > 0 {
			take = s.net.randN(maxSeg)
			if take > len(rest) {
				take = len(rest)
			}
		}
		data := make([]byte, take)
		copy(data, rest[:take])
		rest = rest[take:]
		segs = append(segs, seg{seq: s.out.seq, data: data})
		s.out.seq++
		if len(p) == 0 {
			break
		}
	}
	s.out.mu.Unlock()

	for _, sg := range segs {
		sg := sg
		s.net.after(s.net.delay(s.net.chaos.DeliverDelayMax), func() {
			s.net.deliverSegment(s, sg.seq, sg.data, false)
		})
	}
	return len(p), nil
}

// admit inserts a segment into the receive side, releasing any consecutive
// run of pending segments into the buffer.
func (s *Stream) admit(seq uint64, data []byte, fin bool) {
	in := &s.in
	in.mu.Lock()
	defer in.mu.Unlock()
	in.pending[seq] = data
	if fin {
		in.fin[seq] = true
	}
	advanced := false
	for {
		d, ok := in.pending[in.next]
		if !ok {
			break
		}
		delete(in.pending, in.next)
		if in.fin[in.next] {
			delete(in.fin, in.next)
			in.eof = true
		} else {
			in.buf = append(in.buf, d...)
		}
		in.next++
		advanced = true
	}
	if advanced {
		in.cond.Broadcast()
	}
}

// Read blocks until at least one byte is available, end of stream, or local
// close, then returns up to len(p) bytes. Like SocketInputStream.read, it may
// return fewer bytes than requested (§4.1.2 "variable message sizes").
func (s *Stream) Read(p []byte) (int, error) { return s.ReadTimeout(p, noDeadline) }

// Available reports the number of bytes that can be read without blocking
// (§4.1.1 available()).
func (s *Stream) Available() int {
	s.in.mu.Lock()
	defer s.in.mu.Unlock()
	return len(s.in.buf)
}

// ReadTimeout is Read with an SO_TIMEOUT-style deadline: it returns
// ErrTimeout if no byte becomes available within d. A negative d means no
// deadline.
func (s *Stream) ReadTimeout(p []byte, d time.Duration) (int, error) {
	in := &s.in
	to := arm(d, &in.mu, in.cond)
	defer to.stop()
	in.mu.Lock()
	defer in.mu.Unlock()
	for len(in.buf) == 0 && !in.eof && !in.closed && !in.reset && !to.expired() {
		in.cond.Wait()
	}
	if in.reset {
		return 0, fmt.Errorf("read %v: %w", s.local, ErrReset)
	}
	if in.closed {
		return 0, fmt.Errorf("read %v: %w", s.local, ErrClosed)
	}
	if len(in.buf) == 0 {
		if in.eof {
			return 0, io.EOF
		}
		return 0, fmt.Errorf("read %v: %w", s.local, ErrTimeout)
	}
	n := copy(p, in.buf)
	in.buf = in.buf[n:]
	return n, nil
}

// WaitAvailable blocks until at least n bytes are buffered, end of stream, or
// local close, and returns the buffered byte count. The replay phase uses it
// to hold an available() event "until the recorded number of bytes are
// available on the stream socket" (§4.1.3).
func (s *Stream) WaitAvailable(n int) int {
	in := &s.in
	in.mu.Lock()
	defer in.mu.Unlock()
	for len(in.buf) < n && !in.eof && !in.closed && !in.reset {
		in.cond.Wait()
	}
	return len(in.buf)
}

// ShutdownWrite half-closes the stream (Socket.shutdownOutput): no further
// local writes are accepted and the peer, after draining in-flight data,
// observes end of stream; local reads continue to work. Idempotent.
func (s *Stream) ShutdownWrite() error {
	s.out.mu.Lock()
	if s.out.closed {
		s.out.mu.Unlock()
		return nil
	}
	s.out.closed = true
	finSeq := s.out.seq
	s.out.seq++
	s.out.mu.Unlock()

	s.net.after(s.net.delay(s.net.chaos.DeliverDelayMax), func() {
		s.net.deliverSegment(s, finSeq, nil, true)
	})
	return nil
}

// Close shuts down both directions: local reads fail, local writes fail, and
// the peer — after draining in-flight data — observes end of stream.
func (s *Stream) Close() error {
	s.ShutdownWrite()

	s.in.mu.Lock()
	alreadyClosed := s.in.closed
	s.in.closed = true
	s.in.cond.Broadcast()
	s.in.mu.Unlock()
	if alreadyClosed {
		return nil
	}

	s.net.mu.Lock()
	delete(s.net.streams, s)
	if h := s.net.hosts[s.local.Host]; h != nil {
		if h.streams[s.local.Port]--; h.streams[s.local.Port] <= 0 {
			delete(h.streams, s.local.Port)
		}
	}
	s.net.mu.Unlock()
	return nil
}
