package netsim

import (
	"fmt"
	"time"
)

// Fault plan: deterministic failure injection layered over the simulator.
//
// Three fault families compose freely with the chaos configuration:
//
//   - CrashHost kills a host mid-run: its listeners and datagram sockets
//     close, its established streams reset on BOTH ends (the peer's next
//     read or write fails with ErrReset, like a TCP RST after a crash), and
//     datagrams addressed to it blackhole silently, exactly as UDP to a dead
//     machine would.
//   - Partition/Heal splits the network into non-communicating sides.
//     Stream segments sent across the cut are parked and delivered when the
//     partition heals — TCP retransmits until connectivity returns — while
//     datagrams crossing the cut are dropped, as UDP offers no recovery.
//     Connects across the cut time out (the SYN blackholes).
//   - SetLinkLoss imposes an additional directional loss rate on one
//     host-to-host link, drawn from the network's seeded chaos source so
//     experiments stay reproducible.
//
// All fault decisions that involve randomness draw from the same seeded rng
// as the chaos configuration: two runs with equal seeds and equal fault
// plans make equal drop decisions.

// linkKey identifies a directed host-to-host link.
type linkKey struct{ from, to string }

// pairKey normalizes an unordered host pair (partitions are symmetric).
func pairKey(a, b string) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{from: a, to: b}
}

// heldSegment is one stream segment parked at a partition cut, waiting for
// Heal to release it.
type heldSegment struct {
	s    *Stream
	seq  uint64
	data []byte
	fin  bool
}

// FaultStats counts fault-plan activity on a network.
type FaultStats struct {
	// HostCrashes is the number of CrashHost calls that killed a live host.
	HostCrashes int
	// StreamResets is the number of stream connections reset by crashes.
	StreamResets int
	// PartitionedPairs is the number of host pairs currently cut.
	PartitionedPairs int
	// HeldSegments is the number of stream segments currently parked at a
	// partition cut, awaiting Heal.
	HeldSegments int
	// DroppedByPartition counts datagrams dropped at a partition cut.
	DroppedByPartition uint64
	// DroppedByLinkLoss counts datagrams dropped by per-link loss rates.
	DroppedByLinkLoss uint64
}

// CrashHost kills the named host: every listener and datagram socket on it
// closes, every established stream with an endpoint on it is reset on both
// ends (peer operations fail with ErrReset), and the host stops existing for
// future traffic — datagrams to it vanish, connects to it are refused, and
// new sockets cannot be created on it. Crashing an unknown or already
// crashed host is a no-op. The crash is permanent for the run, mirroring the
// fail-stop model the recovery layer is built for.
func (n *Network) CrashHost(name string) {
	n.mu.Lock()
	if n.crashed[name] {
		n.mu.Unlock()
		return
	}
	n.crashed[name] = true
	n.faults.HostCrashes++
	h := n.hosts[name]
	var listeners []*Listener
	var dsocks []*DatagramSocket
	if h != nil {
		for _, l := range h.listeners {
			listeners = append(listeners, l)
		}
		for _, d := range h.dsocks {
			dsocks = append(dsocks, d)
		}
	}
	var resets []*Stream
	for s := range n.streams {
		if s.local.Host == name {
			resets = append(resets, s)
		}
	}
	for _, s := range resets {
		delete(n.streams, s)
		delete(n.streams, s.peer)
		n.faults.StreamResets++
	}
	n.mu.Unlock()

	// Close and reset outside n.mu: Listener.Close and Stream teardown take
	// the network lock themselves.
	for _, l := range listeners {
		l.Close()
	}
	for _, d := range dsocks {
		d.Close()
	}
	for _, s := range resets {
		s.resetPair()
	}
}

// Crashed reports whether the named host has been crashed.
func (n *Network) Crashed(name string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.crashed[name]
}

// PartitionID is the handle Partition returns; HealPartition(id) removes that
// one partition's cuts while any overlapping partitions keep theirs.
type PartitionID int

// Partition cuts every link between a host on side a and a host on side b:
// stream segments crossing the cut are parked until the cut heals, datagrams
// crossing it are dropped, and connects across it time out. Hosts named on
// neither side are unaffected. Partitions accumulate and may overlap: each
// pair's cut is refcounted, so a link cut by two live partitions stays cut
// until both heal. The returned handle names this partition for
// HealPartition.
func (n *Network) Partition(a, b []string) PartitionID {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nextPart++
	id := n.nextPart
	var pairs []linkKey
	for _, x := range a {
		for _, y := range b {
			if x == y {
				continue
			}
			k := pairKey(x, y)
			n.blocked[k]++
			pairs = append(pairs, k)
		}
	}
	n.partitions[id] = pairs
	n.faults.PartitionedPairs = len(n.blocked)
	return id
}

// HealPartition removes the cuts the identified partition installed. Pairs
// still cut by another live partition stay cut; parked stream segments whose
// link is now open are redelivered (each with a fresh chaos delivery delay, as
// a retransmission would see). Healing an unknown or already healed partition
// is a no-op.
func (n *Network) HealPartition(id PartitionID) {
	n.mu.Lock()
	pairs, ok := n.partitions[id]
	if !ok {
		n.mu.Unlock()
		return
	}
	delete(n.partitions, id)
	for _, k := range pairs {
		if n.blocked[k]--; n.blocked[k] <= 0 {
			delete(n.blocked, k)
		}
	}
	held := n.releasableHeldLocked()
	n.faults.PartitionedPairs = len(n.blocked)
	n.mu.Unlock()

	n.redeliver(held)
}

// Heal removes every partition cut and redelivers the stream segments parked
// at the cuts (each with a fresh chaos delivery delay, as a retransmission
// would see). Datagrams dropped during the partition stay lost.
func (n *Network) Heal() {
	n.mu.Lock()
	held := n.heldSegs
	n.heldSegs = nil
	n.blocked = make(map[linkKey]int)
	n.partitions = make(map[PartitionID][]linkKey)
	n.faults.PartitionedPairs = 0
	n.faults.HeldSegments = 0
	n.mu.Unlock()

	n.redeliver(held)
}

// releasableHeldLocked removes and returns the parked segments whose link is
// no longer cut, leaving the rest parked. Caller holds n.mu.
func (n *Network) releasableHeldLocked() []heldSegment {
	var freed []heldSegment
	kept := n.heldSegs[:0]
	for _, hs := range n.heldSegs {
		if n.blockedLocked(hs.s.local.Host, hs.s.remote.Host) {
			kept = append(kept, hs)
		} else {
			freed = append(freed, hs)
		}
	}
	n.heldSegs = kept
	n.faults.HeldSegments = len(n.heldSegs)
	return freed
}

// redeliver re-injects released segments through the delivery path; a segment
// whose link was cut again in the meantime simply re-parks.
func (n *Network) redeliver(held []heldSegment) {
	for _, hs := range held {
		hs := hs
		n.after(n.delay(n.chaos.DeliverDelayMax), func() {
			n.deliverSegment(hs.s, hs.seq, hs.data, hs.fin)
		})
	}
}

// Partitioned reports whether traffic between the two hosts is currently cut.
func (n *Network) Partitioned(a, b string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.blocked[pairKey(a, b)] > 0
}

// SetLinkLoss imposes an additional loss probability on datagrams sent from
// one host to another (directional; streams are unaffected — TCP recovers
// from loss). Rate 0 clears the link's extra loss.
func (n *Network) SetLinkLoss(from, to string, rate float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	k := linkKey{from: from, to: to}
	if rate <= 0 {
		delete(n.linkLoss, k)
		return
	}
	n.linkLoss[k] = rate
}

// FaultStats reports the network's fault-plan counters.
func (n *Network) FaultStats() FaultStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.faults
}

// blockedLocked reports whether the a↔b link is cut. Caller holds n.mu.
func (n *Network) blockedLocked(a, b string) bool {
	if len(n.blocked) == 0 {
		return false
	}
	return n.blocked[pairKey(a, b)] > 0
}

// linkLossRate reports the extra loss probability on the from→to link.
func (n *Network) linkLossRate(from, to string) float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.linkLoss) == 0 {
		return 0
	}
	return n.linkLoss[linkKey{from: from, to: to}]
}

// checkHostUp rejects socket creation on a crashed host. Caller holds n.mu.
func (n *Network) checkHostUpLocked(name string) error {
	if n.crashed[name] {
		return fmt.Errorf("%w: host %s crashed", ErrNoHost, name)
	}
	return nil
}

// registerStreamsLocked adds both endpoints of an established connection to
// the crash registry. Caller holds n.mu.
func (n *Network) registerStreamsLocked(a, b *Stream) {
	n.streams[a] = true
	n.streams[b] = true
}

// deliverSegment admits one stream segment to the peer unless the link is
// currently partitioned, in which case the segment parks until Heal (TCP
// retransmits across an outage; no data is lost, only delayed).
func (n *Network) deliverSegment(s *Stream, seq uint64, data []byte, fin bool) {
	n.mu.Lock()
	if n.blockedLocked(s.local.Host, s.remote.Host) {
		n.heldSegs = append(n.heldSegs, heldSegment{s: s, seq: seq, data: data, fin: fin})
		n.faults.HeldSegments = len(n.heldSegs)
		n.mu.Unlock()
		return
	}
	n.mu.Unlock()
	s.peer.admit(seq, data, fin)
}

// resetPair marks both endpoints of a connection reset: pending and future
// reads and writes on either end fail with ErrReset, and waiters wake. The
// receive buffers are discarded, as a TCP RST discards undelivered data.
func (s *Stream) resetPair() {
	for _, e := range [2]*Stream{s, s.peer} {
		e.in.mu.Lock()
		e.in.reset = true
		e.in.buf = nil
		e.in.cond.Broadcast()
		e.in.mu.Unlock()
		e.out.mu.Lock()
		e.out.reset = true
		e.out.mu.Unlock()
	}
}

// connectTimeout is how long a connect across a partition cut waits before
// failing with ErrTimeout — the simulator's stand-in for a SYN retry budget.
const connectTimeout = 50 * time.Millisecond
