package netsim

import (
	"fmt"
	"sync"
)

// Packet is one received datagram: its payload plus the source address.
type Packet struct {
	Data   []byte
	Source Addr
}

// DatagramSocket is the simulator's UDP socket. Datagrams sent through it may
// be lost, duplicated, or delivered out of order, per the network's chaos
// configuration (§4.2: "The packets, called datagrams, can arrive out of
// order, duplicated, or some may not arrive at all").
type DatagramSocket struct {
	net  *Network
	addr Addr

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []Packet
	closed bool
	groups []string
}

// DatagramBind creates a datagram socket bound to port on the named host.
// Port 0 picks an ephemeral port.
func (n *Network) DatagramBind(hostName string, port uint16) (*DatagramSocket, error) {
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
	ds := &DatagramSocket{net: n, addr: Addr{Host: hostName, Port: p}}
	ds.cond = sync.NewCond(&ds.mu)
	h.dsocks[p] = ds
	return ds, nil
}

// Addr reports the socket's bound address.
func (ds *DatagramSocket) Addr() Addr { return ds.addr }

// SendTo sends one datagram to addr. If addr.Host names a multicast group the
// datagram is delivered to every member socket bound to addr.Port, each copy
// subject to independent chaos (loss, duplication, reordering, delay).
func (ds *DatagramSocket) SendTo(addr Addr, data []byte) error {
	ds.mu.Lock()
	if ds.closed {
		ds.mu.Unlock()
		return fmt.Errorf("send %v: %w", ds.addr, ErrClosed)
	}
	ds.mu.Unlock()

	n := ds.net
	if len(data) > n.maxDatagram {
		return fmt.Errorf("send %v: %d bytes: %w", addr, len(data), ErrTooLarge)
	}

	n.mu.Lock()
	members, isGroup := n.groups[addr.Host]
	var targets []*DatagramSocket
	if isGroup {
		// Sending to a multicast group is valid even when no member is
		// currently joined (the datagram simply reaches nobody).
		for m := range members {
			if m.addr.Port == addr.Port {
				targets = append(targets, m)
			}
		}
	} else {
		if n.crashed[addr.Host] {
			// A datagram to a crashed host blackholes: the sender sees
			// success, as with real UDP to a dead machine.
			n.mu.Unlock()
			return nil
		}
		h := n.hosts[addr.Host]
		if h == nil {
			n.mu.Unlock()
			return fmt.Errorf("send %v: %w", addr, ErrNoHost)
		}
		if t := h.dsocks[addr.Port]; t != nil {
			targets = append(targets, t)
		}
		// A datagram to a host with no socket on that port vanishes, as with
		// real UDP (an ICMP unreachable the sender never sees).
	}
	n.mu.Unlock()

	payload := make([]byte, len(data))
	copy(payload, data)
	for _, t := range targets {
		ds.launch(t, payload)
	}
	return nil
}

// launch applies chaos and the fault plan to one datagram copy headed for t.
func (ds *DatagramSocket) launch(t *DatagramSocket, payload []byte) {
	n := ds.net
	if n.chance(n.chaos.LossRate) {
		return
	}
	if rate := n.linkLossRate(ds.addr.Host, t.addr.Host); rate > 0 && n.chance(rate) {
		n.mu.Lock()
		n.faults.DroppedByLinkLoss++
		n.mu.Unlock()
		return
	}
	copies := 1
	if n.chance(n.chaos.DupRate) {
		copies = 2
	}
	for i := 0; i < copies; i++ {
		d := n.delay(n.chaos.DeliverDelayMax)
		if n.chance(n.chaos.ReorderRate) {
			d += n.delay(n.chaos.DeliverDelayMax)
		}
		n.after(d, func() {
			// The partition check happens at arrival time, so a cut drops
			// exactly the datagrams whose delivery would have crossed it
			// while it stood — UDP offers no recovery after Heal.
			n.mu.Lock()
			if n.blockedLocked(ds.addr.Host, t.addr.Host) {
				n.faults.DroppedByPartition++
				n.mu.Unlock()
				return
			}
			n.mu.Unlock()
			t.mu.Lock()
			if !t.closed {
				t.queue = append(t.queue, Packet{Data: payload, Source: ds.addr})
				t.cond.Broadcast()
			}
			t.mu.Unlock()
		})
	}
}

// Receive blocks until a datagram arrives and returns it (§4.2.1 receive()).
func (ds *DatagramSocket) Receive() (Packet, error) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	for len(ds.queue) == 0 && !ds.closed {
		ds.cond.Wait()
	}
	if ds.closed {
		return Packet{}, fmt.Errorf("receive %v: %w", ds.addr, ErrClosed)
	}
	p := ds.queue[0]
	ds.queue = ds.queue[1:]
	return p, nil
}

// TryReceive returns the next datagram without blocking; ok is false when the
// queue is empty.
func (ds *DatagramSocket) TryReceive() (Packet, bool, error) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.closed {
		return Packet{}, false, fmt.Errorf("receive %v: %w", ds.addr, ErrClosed)
	}
	if len(ds.queue) == 0 {
		return Packet{}, false, nil
	}
	p := ds.queue[0]
	ds.queue = ds.queue[1:]
	return p, true, nil
}

// Pending reports the number of queued datagrams.
func (ds *DatagramSocket) Pending() int {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return len(ds.queue)
}

// JoinGroup subscribes the socket to a multicast group name. Datagrams sent
// to Addr{Host: group, Port: ds.Addr().Port} are delivered to this socket
// (§4.2: multicast sockets as a point-to-multiple-points extension of UDP).
func (ds *DatagramSocket) JoinGroup(group string) error {
	ds.mu.Lock()
	if ds.closed {
		ds.mu.Unlock()
		return fmt.Errorf("join %s: %w", group, ErrClosed)
	}
	ds.groups = append(ds.groups, group)
	ds.mu.Unlock()

	n := ds.net
	n.mu.Lock()
	if n.groups[group] == nil {
		n.groups[group] = make(map[*DatagramSocket]bool)
	}
	n.groups[group][ds] = true
	n.mu.Unlock()
	return nil
}

// LeaveGroup unsubscribes the socket from a multicast group. The group name
// itself remains known to the network (sends to it stay valid no-ops), as a
// multicast address outlives its members.
func (ds *DatagramSocket) LeaveGroup(group string) {
	n := ds.net
	n.mu.Lock()
	if m := n.groups[group]; m != nil {
		delete(m, ds)
	}
	n.mu.Unlock()
}

// IsGroup reports whether host currently names a multicast group with at
// least one member.
func (n *Network) IsGroup(host string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.groups[host]) > 0
}

// GroupMembers reports the addresses of every socket joined to group and
// bound to port. The replay-phase reliable-multicast layer uses it to fan a
// group send out into per-member reliable unicasts (DESIGN.md S4); a real
// deployment would learn membership from IGMP state.
func (n *Network) GroupMembers(group string, port uint16) []Addr {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []Addr
	for m := range n.groups[group] {
		if m.addr.Port == port {
			out = append(out, m.addr)
		}
	}
	return out
}

// Close releases the socket's port and group memberships; blocked and future
// Receives fail (§4.2.1 close()).
func (ds *DatagramSocket) Close() error {
	ds.mu.Lock()
	if ds.closed {
		ds.mu.Unlock()
		return nil
	}
	ds.closed = true
	groups := ds.groups
	ds.cond.Broadcast()
	ds.mu.Unlock()

	n := ds.net
	n.mu.Lock()
	if h := n.hosts[ds.addr.Host]; h != nil && h.dsocks[ds.addr.Port] == ds {
		delete(h.dsocks, ds.addr.Port)
	}
	n.mu.Unlock()
	for _, g := range groups {
		ds.LeaveGroup(g)
	}
	return nil
}
