// Package netsim is an in-memory network simulator with Java-socket-shaped
// semantics. It stands in for the kernel TCP/UDP stack underneath the DJVM
// socket layer (see DESIGN.md §1): it reproduces every observable source of
// network nondeterminism the paper's replay protocols exist to tame —
//
//   - variable connection-establishment delays, so concurrent connects reach
//     a server's backlog in varying orders (Figure 1);
//   - stream delivery in arbitrary fragments, so reads return variable byte
//     counts (§4.1.2 "variable message sizes");
//   - nondeterministic ephemeral port allocation and available() counts
//     (§4.1.2 "network queries");
//   - unreliable datagram delivery: loss, duplication and reordering (§4.2).
//
// A Network is driven by real goroutines racing on the Go scheduler plus a
// seeded chaos source, so record-phase runs are genuinely nondeterministic
// while experiments remain configurable.
package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Common error conditions, analogous to the exceptions of the Java socket API.
var (
	// ErrClosed is returned by operations on a closed socket.
	ErrClosed = errors.New("netsim: socket closed")
	// ErrRefused is returned by a connect with no listener at the target.
	ErrRefused = errors.New("netsim: connection refused")
	// ErrPortInUse is returned when binding to an occupied port.
	ErrPortInUse = errors.New("netsim: port in use")
	// ErrTooLarge is returned when a datagram exceeds the network's maximum
	// datagram size.
	ErrTooLarge = errors.New("netsim: datagram too large")
	// ErrNoHost is returned when sending to an unknown host.
	ErrNoHost = errors.New("netsim: no such host")
	// ErrTimeout is returned by the *Timeout operation variants when the
	// deadline passes first — java.net.SocketTimeoutException.
	ErrTimeout = errors.New("netsim: timed out")
	// ErrReset is returned by operations on a stream whose connection was
	// reset because a fault plan crashed one of its endpoints —
	// java.net.SocketException("Connection reset").
	ErrReset = errors.New("netsim: connection reset")
)

// Addr is a network endpoint: a symbolic host name plus a port.
type Addr struct {
	Host string
	Port uint16
}

func (a Addr) String() string { return fmt.Sprintf("%s:%d", a.Host, a.Port) }

// Chaos configures the nondeterminism the simulator injects. The zero value
// is a perfectly calm network: zero delays, fully reliable delivery, and
// sequential ephemeral ports.
type Chaos struct {
	// ConnectDelayMax bounds the random delay, drawn from [0, max], before a
	// connection request reaches the server's backlog.
	ConnectDelayMax time.Duration
	// DeliverDelayMax bounds the random delay, drawn from [0, max], applied
	// to each stream segment and each datagram.
	DeliverDelayMax time.Duration
	// MaxSegment, when > 0, fragments stream writes into random segments of
	// at most this many bytes, making partial reads likely.
	MaxSegment int
	// LossRate is the probability a datagram is silently dropped.
	LossRate float64
	// DupRate is the probability a datagram is delivered twice.
	DupRate float64
	// ReorderRate is the probability a datagram receives an extra delay of up
	// to DeliverDelayMax, letting later sends overtake it.
	ReorderRate float64
	// RandomEphemeral draws ephemeral ports randomly instead of sequentially,
	// making bind results nondeterministic across runs.
	RandomEphemeral bool
}

// Config configures a Network.
type Config struct {
	// Chaos is the injected nondeterminism profile.
	Chaos Chaos
	// Seed seeds the chaos source. Two networks with equal seeds draw equal
	// chaos decisions (scheduling races still differ).
	Seed int64
	// MaxDatagram is the largest datagram accepted by SendTo, standing in for
	// the UDP payload ceiling the paper cites ("usually limited by 32K",
	// §4.2.2). Zero means 32 KiB.
	MaxDatagram int
}

// DefaultMaxDatagram is the datagram size cap used when Config.MaxDatagram is
// zero.
const DefaultMaxDatagram = 32 << 10

// Network is one simulated network: a set of hosts, their listeners and
// datagram sockets, multicast groups, and a chaos source.
type Network struct {
	mu          sync.Mutex
	rng         *rand.Rand
	chaos       Chaos
	maxDatagram int
	hosts       map[string]*host
	groups      map[string]map[*DatagramSocket]bool

	// Fault-plan state (see faults.go): crashed hosts, partition cuts,
	// per-link loss rates, stream segments parked at a cut, the registry of
	// established streams a crash must reset, and activity counters.
	crashed    map[string]bool
	blocked    map[linkKey]int // refcount: how many live partitions cut the pair
	partitions map[PartitionID][]linkKey
	nextPart   PartitionID
	linkLoss   map[linkKey]float64
	heldSegs   []heldSegment
	streams    map[*Stream]bool
	faults     FaultStats

	wg sync.WaitGroup // tracks in-flight deliveries for Quiesce
}

type host struct {
	name      string
	listeners map[uint16]*Listener
	dsocks    map[uint16]*DatagramSocket
	streams   map[uint16]int // stream refcount per local port
	nextPort  uint16
}

// NewNetwork creates a network with the given configuration.
func NewNetwork(cfg Config) *Network {
	maxDG := cfg.MaxDatagram
	if maxDG <= 0 {
		maxDG = DefaultMaxDatagram
	}
	return &Network{
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		chaos:       cfg.Chaos,
		maxDatagram: maxDG,
		hosts:       make(map[string]*host),
		groups:      make(map[string]map[*DatagramSocket]bool),
		crashed:     make(map[string]bool),
		blocked:     make(map[linkKey]int),
		partitions:  make(map[PartitionID][]linkKey),
		linkLoss:    make(map[linkKey]float64),
		streams:     make(map[*Stream]bool),
	}
}

// MaxDatagram reports the largest datagram SendTo accepts.
func (n *Network) MaxDatagram() int { return n.maxDatagram }

// host returns (creating if needed) the named host. Caller holds n.mu.
func (n *Network) hostLocked(name string) *host {
	h := n.hosts[name]
	if h == nil {
		h = &host{
			name:      name,
			listeners: make(map[uint16]*Listener),
			dsocks:    make(map[uint16]*DatagramSocket),
			streams:   make(map[uint16]int),
			nextPort:  49152,
		}
		n.hosts[name] = h
	}
	return h
}

// allocPortLocked returns a free port on h: the requested port if nonzero, or
// an ephemeral one. Caller holds n.mu.
func (n *Network) allocPortLocked(h *host, port uint16) (uint16, error) {
	inUse := func(p uint16) bool {
		return h.listeners[p] != nil || h.dsocks[p] != nil || h.streams[p] > 0
	}
	if port != 0 {
		if inUse(port) {
			return 0, fmt.Errorf("%w: %s:%d", ErrPortInUse, h.name, port)
		}
		return port, nil
	}
	if n.chaos.RandomEphemeral {
		for tries := 0; tries < 1<<16; tries++ {
			p := uint16(49152 + n.rng.Intn(16384))
			if !inUse(p) {
				return p, nil
			}
		}
		return 0, fmt.Errorf("%w: %s: ephemeral range exhausted", ErrPortInUse, h.name)
	}
	for tries := 0; tries < 1<<16; tries++ {
		p := h.nextPort
		h.nextPort++
		if h.nextPort == 0 {
			h.nextPort = 49152
		}
		if p >= 49152 && !inUse(p) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("%w: %s: ephemeral range exhausted", ErrPortInUse, h.name)
}

// delay draws a random duration in [0,max].
func (n *Network) delay(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	n.mu.Lock()
	d := time.Duration(n.rng.Int63n(int64(max) + 1))
	n.mu.Unlock()
	return d
}

// chance draws a biased coin.
func (n *Network) chance(p float64) bool {
	if p <= 0 {
		return false
	}
	n.mu.Lock()
	v := n.rng.Float64()
	n.mu.Unlock()
	return v < p
}

// randN draws a uniform int in [1,max].
func (n *Network) randN(max int) int {
	if max <= 1 {
		return 1
	}
	n.mu.Lock()
	v := 1 + n.rng.Intn(max)
	n.mu.Unlock()
	return v
}

// after schedules f to run once the given delay elapses. Zero delay still
// runs f asynchronously so callers never execute delivery inline while
// holding their own locks.
func (n *Network) after(d time.Duration, f func()) {
	n.wg.Add(1)
	run := func() {
		defer n.wg.Done()
		f()
	}
	if d <= 0 {
		go run()
		return
	}
	time.AfterFunc(d, run)
}

// Quiesce blocks until every scheduled delivery has executed. Tests use it to
// make "all in-flight traffic has landed" a checkable state.
func (n *Network) Quiesce() {
	n.wg.Wait()
}
