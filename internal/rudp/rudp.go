// Package rudp implements the pseudo-reliable UDP layer the paper's replay
// phase depends on: "If no reliable UDP is available, a pseudo-reliable UDP
// can be implemented as part of the sender and the receiver DJVMs by storing
// sent and received datagrams and exchanging acknowledgment and negative-
// acknowledgment messages between the DJVMs" (§4.2.3, footnote 3).
//
// A Conn wraps a netsim.DatagramSocket. Outgoing datagrams carry a sequence
// number and are retransmitted — with exponential backoff, up to a bounded
// retry budget — until acknowledged; incoming datagrams are acknowledged and
// de-duplicated, then handed to the application. Delivery is reliable but
// possibly out of order — exactly the guarantee the paper's replay mechanism
// requires, which then re-establishes the recorded order itself from the
// RecordedDatagramLog. A destination that exhausts the retry budget (because
// its DJVM crashed or a partition cut it off) is declared unreachable:
// its datagrams are abandoned and further sends to it fail fast with
// ErrPeerUnreachable, so replay against a dead peer terminates instead of
// retransmitting forever.
package rudp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/netsim"
)

// ErrClosed is returned by operations on a closed connection.
var ErrClosed = errors.New("rudp: connection closed")

// ErrPeerUnreachable is returned when a datagram exhausts its retry budget
// without being acknowledged — the destination has crashed, is partitioned
// away, or is dropping everything. Once a destination is declared unreachable,
// further sends to it fail fast with the same error.
var ErrPeerUnreachable = errors.New("rudp: peer unreachable")

// Header layout: 1 kind byte, 8-byte big-endian sequence number.
const (
	kindData byte = 0xD1
	kindAck  byte = 0xA7

	headerLen = 1 + 8
)

// The retransmission timing, fixed for every connection. An unacknowledged
// datagram is resent after retransmitInterval; each resend multiplies its wait
// by backoffFactor, up to maxBackoff times the base interval, plus up to a
// quarter of jitter. After maxRetries resends its destination is declared
// unreachable: the budget spans about 511 base intervals (one second at
// 2 ms), generous against the simulator's sub-millisecond chaos delays and
// finite against a crashed peer. The retransmitter scans every half interval.
const (
	retransmitInterval = 2 * time.Millisecond
	maxRetries         = 12
	backoffFactor      = 2
	maxBackoff         = 64
)

// Config holds a connection's jitter seed and the hooks that feed the obs
// fault counters.
type Config struct {
	// JitterSeed seeds the per-connection jitter source that desynchronizes
	// retransmission bursts from concurrent senders. Zero derives a seed from
	// the clock.
	JitterSeed int64
	// OnUnreachable, when set, is called once for each datagram abandoned
	// after maxRetries, outside the connection's lock.
	OnUnreachable func(dest netsim.Addr)
	// OnRetransmit, when set, is called once per retransmission, outside the
	// connection's lock.
	OnRetransmit func()
	// OnBackoffCap, when set, is called once for each datagram whose backed-off
	// retransmit interval first reaches its cap — a persistent-loss signal
	// one step before the destination is declared unreachable. Called outside
	// the connection's lock.
	OnBackoffCap func()

	// interval, when set, replaces retransmitInterval as the base interval
	// the tick and the backoff cap derive from, so tests run in milliseconds.
	interval time.Duration
}

type outstanding struct {
	dest     netsim.Addr
	frame    []byte
	tries    int
	interval time.Duration
	nextTry  time.Time
	capped   bool // backoff reached its cap (reported once)
}

type dedupKey struct {
	src netsim.Addr
	seq uint64
}

// Conn is a reliable datagram endpoint over an unreliable simulated socket.
type Conn struct {
	sock *netsim.DatagramSocket
	cfg  Config

	mu       sync.Mutex
	cond     *sync.Cond
	rng      *rand.Rand // jitter source; guarded by mu
	nextSeq  uint64
	unacked  map[uint64]*outstanding
	seen     map[dedupKey]bool
	deliverq []netsim.Packet
	failed   map[netsim.Addr]bool // destinations declared unreachable
	closed   bool
	recvErr  error

	stopTicker chan struct{}
	done       sync.WaitGroup

	// Stats are updated atomically under mu and exposed for the benchmark
	// harness's rudp ablation.
	stats Stats
}

// Stats counts the traffic a connection generated.
type Stats struct {
	DataSent      uint64 // first transmissions
	Retransmits   uint64
	AcksSent      uint64
	DupsDiscarded uint64
	Delivered     uint64
	Abandoned     uint64 // datagrams given up after maxRetries
}

// New wraps sock in a reliable connection and starts its receive and
// retransmission loops. The Conn owns the socket from this point: closing the
// Conn closes the socket.
func New(sock *netsim.DatagramSocket, cfg Config) *Conn {
	if cfg.interval <= 0 {
		cfg.interval = retransmitInterval
	}
	seed := cfg.JitterSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	c := &Conn{
		sock:       sock,
		cfg:        cfg,
		rng:        rand.New(rand.NewSource(seed)),
		unacked:    make(map[uint64]*outstanding),
		seen:       make(map[dedupKey]bool),
		failed:     make(map[netsim.Addr]bool),
		stopTicker: make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	c.done.Add(2)
	go c.receiveLoop()
	go c.retransmitLoop()
	return c
}

// Addr reports the underlying socket's bound address.
func (c *Conn) Addr() netsim.Addr { return c.sock.Addr() }

// frame builds a DATA frame for seq+payload.
func frame(kind byte, seq uint64, payload []byte) []byte {
	f := make([]byte, headerLen+len(payload))
	f[0] = kind
	binary.BigEndian.PutUint64(f[1:9], seq)
	copy(f[headerLen:], payload)
	return f
}

// SendTo transmits data reliably to addr. If addr names a multicast group the
// send fans out into one reliable unicast per current group member. The call
// registers the datagram for retransmission and returns after the first
// transmission attempt.
func (c *Conn) SendTo(network *netsim.Network, addr netsim.Addr, data []byte) error {
	targets := []netsim.Addr{addr}
	if members := network.GroupMembers(addr.Host, addr.Port); len(members) > 0 {
		targets = members
	}
	for _, t := range targets {
		if err := c.sendOne(t, data); err != nil {
			return err
		}
	}
	return nil
}

func (c *Conn) sendOne(dest netsim.Addr, data []byte) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	if c.failed[dest] {
		// The destination already exhausted a retry budget: fail fast rather
		// than queueing more datagrams destined to be abandoned.
		c.mu.Unlock()
		return fmt.Errorf("rudp: send %v: %w", dest, ErrPeerUnreachable)
	}
	seq := c.nextSeq
	c.nextSeq++
	f := frame(kindData, seq, data)
	c.unacked[seq] = &outstanding{
		dest:     dest,
		frame:    f,
		interval: c.cfg.interval,
		nextTry:  time.Now().Add(c.cfg.interval),
	}
	c.stats.DataSent++
	c.mu.Unlock()

	if err := c.sock.SendTo(dest, f); err != nil {
		return fmt.Errorf("rudp: %w", err)
	}
	return nil
}

// Receive blocks until an application datagram is available and returns it.
// Datagrams are delivered exactly once per sender sequence number, in arrival
// order (which may differ from send order).
func (c *Conn) Receive() (netsim.Packet, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.deliverq) == 0 && !c.closed && c.recvErr == nil {
		c.cond.Wait()
	}
	if len(c.deliverq) > 0 {
		p := c.deliverq[0]
		c.deliverq = c.deliverq[1:]
		return p, nil
	}
	if c.recvErr != nil {
		return netsim.Packet{}, c.recvErr
	}
	return netsim.Packet{}, ErrClosed
}

// Outstanding reports how many datagrams remain unacknowledged.
func (c *Conn) Outstanding() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.unacked)
}

// Stats returns a snapshot of the connection's traffic counters.
func (c *Conn) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Flush blocks until every sent datagram has been acknowledged, abandoned, or
// the connection closes. It returns ErrPeerUnreachable (wrapped) if any
// datagram was abandoned after exhausting its retry budget — the bounded
// replacement for a retransmit loop that would otherwise spin forever against
// a crashed peer.
func (c *Conn) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.unacked) > 0 && !c.closed {
		c.cond.Wait()
	}
	if c.stats.Abandoned > 0 {
		return fmt.Errorf("rudp: %d datagram(s) abandoned after %d retries: %w",
			c.stats.Abandoned, maxRetries, ErrPeerUnreachable)
	}
	return nil
}

// Unreachable reports whether dest has been declared unreachable on this
// connection.
func (c *Conn) Unreachable(dest netsim.Addr) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failed[dest]
}

func (c *Conn) receiveLoop() {
	defer c.done.Done()
	for {
		pkt, err := c.sock.Receive()
		if err != nil {
			c.mu.Lock()
			if !c.closed {
				c.recvErr = fmt.Errorf("rudp: %w", err)
			}
			c.cond.Broadcast()
			c.mu.Unlock()
			return
		}
		if len(pkt.Data) < headerLen {
			continue // not an rudp frame; drop
		}
		kind := pkt.Data[0]
		seq := binary.BigEndian.Uint64(pkt.Data[1:9])
		switch kind {
		case kindAck:
			c.mu.Lock()
			delete(c.unacked, seq)
			if len(c.unacked) == 0 {
				c.cond.Broadcast() // wake Flush
			}
			c.mu.Unlock()
		case kindData:
			// Acknowledge every copy, duplicates included: the original ACK
			// may have been lost.
			ack := frame(kindAck, seq, nil)
			_ = c.sock.SendTo(pkt.Source, ack)
			c.mu.Lock()
			c.stats.AcksSent++
			key := dedupKey{src: pkt.Source, seq: seq}
			if c.seen[key] {
				c.stats.DupsDiscarded++
				c.mu.Unlock()
				continue
			}
			c.seen[key] = true
			c.stats.Delivered++
			payload := make([]byte, len(pkt.Data)-headerLen)
			copy(payload, pkt.Data[headerLen:])
			c.deliverq = append(c.deliverq, netsim.Packet{Data: payload, Source: pkt.Source})
			c.cond.Broadcast()
			c.mu.Unlock()
		}
	}
}

func (c *Conn) retransmitLoop() {
	defer c.done.Done()
	ticker := time.NewTicker(c.cfg.interval / 2)
	maxInterval := maxBackoff * c.cfg.interval
	defer ticker.Stop()
	for {
		select {
		case <-c.stopTicker:
			return
		case <-ticker.C:
		}
		now := time.Now()
		c.mu.Lock()
		var capped int
		var resend, dead []*outstanding
		for seq, o := range c.unacked {
			if now.Before(o.nextTry) {
				continue
			}
			if o.tries >= maxRetries {
				// Retry budget exhausted: abandon the datagram and declare
				// the destination unreachable so future sends fail fast.
				delete(c.unacked, seq)
				c.failed[o.dest] = true
				c.stats.Abandoned++
				dead = append(dead, o)
				continue
			}
			o.tries++
			// Exponential backoff with jitter: a dead peer costs O(log) traffic
			// in the budget window, and concurrent senders decorrelate.
			o.interval *= backoffFactor
			if o.interval >= maxInterval {
				o.interval = maxInterval
				if !o.capped {
					o.capped = true
					capped++
				}
			}
			jitter := time.Duration(c.rng.Int63n(int64(o.interval)/4 + 1))
			o.nextTry = now.Add(o.interval + jitter)
			resend = append(resend, o)
			c.stats.Retransmits++
		}
		if len(dead) > 0 {
			c.cond.Broadcast() // wake Flush: abandoned datagrams left unacked
		}
		c.mu.Unlock()
		for _, o := range resend {
			_ = c.sock.SendTo(o.dest, o.frame)
		}
		if c.cfg.OnRetransmit != nil {
			for range resend {
				c.cfg.OnRetransmit()
			}
		}
		if c.cfg.OnBackoffCap != nil {
			for ; capped > 0; capped-- {
				c.cfg.OnBackoffCap()
			}
		}
		if c.cfg.OnUnreachable != nil {
			for _, o := range dead {
				c.cfg.OnUnreachable(o.dest)
			}
		}
	}
}

// Close stops the loops and closes the underlying socket. Unacknowledged
// datagrams are abandoned.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
	close(c.stopTicker)
	err := c.sock.Close()
	c.done.Wait()
	return err
}
