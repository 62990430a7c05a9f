// Package dejavu is the public API of this repository: a Go implementation
// of DJVM — the distributed DejaVu system of "Deterministic Replay of
// Distributed Java Applications" (Konuru, Srinivasan, Choi; IPPS 2000).
//
// A dejavu.Node is one DJVM instance: a runtime that can Record an execution
// of a multithreaded, distributed application — capturing its logical thread
// schedule and network interactions — and later Replay it deterministically,
// reproducing every shared-variable interleaving, monitor handoff,
// connection pairing, partial read, and datagram delivery.
//
// Application code runs on Node threads and uses the node's primitives for
// everything nondeterministic:
//
//   - Shared variables (SharedInt, SharedVar) — shared-memory critical events;
//   - Monitors (Enter/Exit/Wait/Notify) — synchronization critical events;
//   - Stream sockets (Listen/Connect, Socket) — the TCP network events of §4.1;
//   - Datagram sockets (BindDatagram, DatagramSocket) — the UDP/multicast
//     events of §4.2.
//
// Deployment worlds (§1, §5): in a ClosedWorld every component runs on a
// Node and replay re-executes network exchanges cooperatively; in an
// OpenWorld only this component does, and all its inbound traffic is recorded
// in full so replay needs no network at all; a MixedWorld blends the two
// per peer.
//
// Minimal record/replay round trip:
//
//	net := dejavu.NewNetwork(dejavu.NetworkConfig{})
//	rec, _ := dejavu.NewNode(dejavu.Config{ID: 1, Mode: dejavu.Record, Network: net, Host: "a"})
//	rec.Start(app)
//	rec.Wait()
//	rec.Close()
//
//	rep, _ := dejavu.NewNode(dejavu.Config{ID: 1, Mode: dejavu.Replay, Network: dejavu.NewNetwork(dejavu.NetworkConfig{}),
//		Host: "a", ReplayLogs: rec.Logs()})
//	rep.Start(app) // identical execution
//	rep.Wait()
package dejavu

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/djenv"
	"repro/internal/djgram"
	"repro/internal/djrpc"
	"repro/internal/djsock"
	"repro/internal/ids"
	"repro/internal/netevent"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/rudp"
	"repro/internal/tracelog"
)

// Re-exported identity and configuration types.
type (
	// DJVMID is the unique identity of one DJVM instance.
	DJVMID = ids.DJVMID
	// ThreadNum is a thread's creation-order number within its node.
	ThreadNum = ids.ThreadNum
	// Mode selects record, replay, or passthrough execution.
	Mode = ids.Mode
	// World selects the closed/open/mixed-world network scheme.
	World = ids.World
	// OrderMode selects how a node orders critical events: one global
	// counter (OrderGlobal) or one counter per registered object
	// (OrderSharded). See Config.OrderMode.
	OrderMode = ids.OrderMode

	// Thread is one application thread of a node.
	Thread = core.Thread
	// Monitor provides Java-monitor mutual exclusion and wait/notify.
	Monitor = core.Monitor
	// Barrier is a replayable cyclic barrier.
	Barrier = core.Barrier
	// SharedInt is a shared integer whose accesses are critical events.
	SharedInt = core.SharedInt
	// SharedVar is a shared variable of any type whose accesses are critical
	// events.
	SharedVar[T any] = core.SharedVar[T]
	// ResumePoint identifies where a checkpoint-resumed replay picks up.
	ResumePoint = core.ResumePoint

	// Snapshot is a consistent point-in-time view of a node's metrics:
	// critical events by kind, network events, log volume per file, replay
	// progress, and latency histograms. See Node.Snapshot.
	Snapshot = obs.Snapshot
	// DivergenceError is thrown when a replayed execution departs from the
	// recorded one.
	DivergenceError = core.DivergenceError
	// ReplayedError is a network operation's record-phase failure, re-thrown
	// by the same operation during replay without executing it: Op names the
	// operation, Msg is the recorded error text.
	ReplayedError = netevent.ReplayedError

	// Addr is a simulated network endpoint.
	Addr = netsim.Addr
	// Chaos configures the simulated network's nondeterminism.
	Chaos = netsim.Chaos
	// NetworkConfig configures a simulated network.
	NetworkConfig = netsim.Config
	// Network is an in-memory network shared by a set of nodes.
	Network = netsim.Network

	// ServerSocket listens for stream connections (java.net.ServerSocket).
	ServerSocket = djsock.ServerSocket
	// Socket is a connected stream socket (java.net.Socket).
	Socket = djsock.Socket
	// DatagramSocket is a UDP/multicast socket (java.net.DatagramSocket).
	DatagramSocket = djgram.DatagramSocket
	// EnvSource serves recorded/replayed environmental values (clock,
	// randomness) — the djenv extension.
	EnvSource = djenv.Source

	// RPCServer dispatches replayable remote calls (the djrpc layer).
	RPCServer = djrpc.Server
	// RPCClient issues replayable remote calls.
	RPCClient = djrpc.Client
	// RemoteError is an application-level RPC error.
	RemoteError = djrpc.RemoteError

	// Logs is the per-node set of record-phase logs.
	Logs = tracelog.Set
	// CheckpointSnapshot is one recorded checkpoint.
	CheckpointSnapshot = checkpoint.Snapshot

	// WALOptions tunes a node's durable write-ahead trace log (sync cadence).
	WALOptions = tracelog.WALOptions
	// RecoveryReport describes what Recover salvaged from a crashed node's
	// write-ahead log.
	RecoveryReport = tracelog.RecoveryReport
	// TruncateStats reports what one WAL truncation kept and dropped.
	TruncateStats = tracelog.TruncateStats
)

// Socket-layer errors surfaced through the facade.
var (
	// ErrTimeout is the uniform SO_TIMEOUT expiry error of the socket layer.
	ErrTimeout = djsock.ErrTimeout
	// ErrDiverged is wrapped by the error a stream or datagram operation
	// returns when the replaying execution's network activity departs from
	// the recorded one — an operation the record phase never performed, a
	// buffer too small for the recorded bytes, a different message sent.
	ErrDiverged = netevent.ErrDiverged
	// ErrReset is wrapped by the error a recorded stream read or write
	// returns once the peer's host crashed (Network.CrashHost), like a TCP
	// RST. The replay of that operation touches no network: it re-throws
	// the recorded failure as a *ReplayedError carrying its message, which
	// matches neither ErrReset nor ErrDiverged under errors.Is.
	ErrReset = netsim.ErrReset
	// ErrPeerUnreachable is wrapped, together with ErrDiverged, by the error
	// a closed-world replay's datagram send returns once the reliable-UDP
	// layer has spent its retry budget on the peer (a crashed or partitioned
	// host) and given it up. A recording sends datagrams unacknowledged and
	// never returns it.
	ErrPeerUnreachable = rudp.ErrPeerUnreachable
)

// Execution modes.
const (
	// Record captures the logical thread schedule and network interactions
	// while the application runs.
	Record = ids.Record
	// Replay reproduces a recorded execution by enforcing the recorded
	// schedule and network interactions.
	Replay = ids.Replay
	// Passthrough runs with no recording or enforcement — the plain-JVM
	// baseline used for overhead measurements.
	Passthrough = ids.Passthrough
)

// Order modes.
const (
	// OrderGlobal is the paper's scheme: one global counter totally orders
	// every critical event of the node. The default.
	OrderGlobal = ids.OrderGlobal
	// OrderSharded records a per-object access order for registered shared
	// objects instead, so threads touching disjoint objects record and
	// replay concurrently. See Config.OrderMode and Node.RegisterObjects.
	OrderSharded = ids.OrderSharded
)

// World configurations.
const (
	// ClosedWorld: every component of the application runs on a DJVM node.
	ClosedWorld = ids.ClosedWorld
	// OpenWorld: only this component runs on a DJVM node.
	OpenWorld = ids.OpenWorld
	// MixedWorld: the peers listed in Config.DJVMPeers run DJVM nodes,
	// others do not.
	MixedWorld = ids.MixedWorld
)

// NewNetwork creates a simulated network for a set of nodes.
func NewNetwork(cfg NetworkConfig) *Network { return netsim.NewNetwork(cfg) }

// NewMonitor creates an unlocked monitor.
func NewMonitor() *Monitor { return core.NewMonitor() }

// NewBarrier creates a cyclic barrier for the given number of parties.
func NewBarrier(parties int) *Barrier { return core.NewBarrier(parties) }

// Config configures one node.
type Config struct {
	// ID is the node's DJVM identity; a replay node must reuse the identity
	// recorded by its record-phase counterpart.
	ID DJVMID
	// Mode selects Record, Replay, or Passthrough.
	Mode Mode
	// World selects ClosedWorld, OpenWorld, or MixedWorld.
	World World
	// DJVMPeers lists, for MixedWorld, the simulated hosts that run DJVM
	// nodes.
	DJVMPeers []string
	// Network is the simulated network the node attaches to.
	Network *Network
	// Host is the node's simulated host name.
	Host string
	// ReplayLogs supplies the record-phase logs in Replay mode.
	ReplayLogs *Logs
	// Resume, optionally, starts replay from a checkpoint.
	Resume *ResumePoint
	// RecordJitter, when > 0, yields the processor with probability
	// 1/RecordJitter after record-mode critical events, emulating preemptive
	// timeslicing so schedule nondeterminism manifests even on a single
	// CPU. Replay ignores it.
	RecordJitter int
	// StallTimeout, when > 0, arms the replay stall watchdog: threads parked
	// on schedule turns that stop progressing panic with a DivergenceError
	// instead of deadlocking silently.
	StallTimeout time.Duration
	// EventObserver, when non-nil, is called inside every critical event
	// with the executing thread and counter value — the debugger hook.
	//
	// Ordering contract: the callback always runs inside the GC-critical
	// section, so invocations are totally ordered and the observed counter
	// values are strictly increasing (0, 1, 2, ... from the start of the
	// run). In replay mode this is exactly the recorded schedule order. The
	// callback may block (a debugger breakpoint): critical events stop until
	// it returns, and the stall watchdog will not fire a spurious stall
	// while it blocks. It must not itself execute critical events.
	EventObserver func(thread ThreadNum, gc GCount)
	// StopAtLogEnd softens replay of a crash-recovered (truncated) log: a
	// thread whose next event lies beyond the recovered schedule stops
	// cleanly — releasing its joiners — instead of raising a divergence. The
	// run then reproduces exactly the prefix that survived the crash.
	StopAtLogEnd bool
	// OrderMode selects how the node orders critical events. OrderGlobal
	// (the zero value) totally orders every critical event through one
	// global counter. OrderSharded instead records a per-object access
	// order for the shared objects the application enrolls via
	// Node.RegisterObjects — threads touching disjoint objects then record
	// and replay concurrently, while unregistered objects and network/
	// environment/thread events keep the global mechanism. A replay node's
	// OrderMode must match the recording's, and the debugger/analysis
	// extensions that need one total order (EventObserver, Resume, WAL,
	// timestamps, causal tracing) reject OrderSharded with a clear error.
	OrderMode OrderMode
}

// GCount is a global-counter (logical clock) value.
type GCount = ids.GCount

// Node is one DJVM instance bound to a simulated host.
type Node struct {
	vm   *core.VM
	sock *djsock.Env
	gram *djgram.Env
	env  *djenv.Source
}

// NewNode creates a node.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Network == nil {
		return nil, fmt.Errorf("dejavu: config needs a Network")
	}
	if cfg.Host == "" {
		return nil, fmt.Errorf("dejavu: config needs a Host")
	}
	peers := make(map[string]bool, len(cfg.DJVMPeers))
	for _, p := range cfg.DJVMPeers {
		peers[p] = true
	}
	vm, err := core.NewVM(core.Config{
		ID:            cfg.ID,
		Mode:          cfg.Mode,
		World:         cfg.World,
		DJVMPeers:     peers,
		ReplayLogs:    cfg.ReplayLogs,
		Resume:        cfg.Resume,
		RecordJitter:  cfg.RecordJitter,
		StallTimeout:  cfg.StallTimeout,
		StopAtLogEnd:  cfg.StopAtLogEnd,
		EventObserver: cfg.EventObserver,
		OrderMode:     cfg.OrderMode,
	})
	if err != nil {
		return nil, err
	}
	return &Node{
		vm:   vm,
		sock: djsock.NewEnv(vm, cfg.Network, cfg.Host),
		gram: djgram.NewEnv(vm, cfg.Network, cfg.Host),
		env:  djenv.New(vm),
	}, nil
}

// RegisterObjects enrolls shared objects (*SharedInt, *SharedVar[T],
// *Monitor) for per-object order tracking under OrderSharded. Outside sharded
// mode it is a free no-op, so applications can register unconditionally and
// select the mode in the config. Registration order is the objects' identity
// across record and replay: register the same objects, in the same order,
// before starting the threads that access them. Registering an object twice
// panics.
func (n *Node) RegisterObjects(objs ...interface{ Register(*core.VM) }) {
	for _, o := range objs {
		o.Register(n.vm)
	}
}

// OrderMode reports the node's configured order mode.
func (n *Node) OrderMode() OrderMode { return n.vm.OrderMode() }

// Start launches the node's initial thread running fn.
func (n *Node) Start(fn func(t *Thread)) { n.vm.Start(fn) }

// Wait blocks until every thread of the node has returned.
func (n *Node) Wait() { n.vm.Wait() }

// Close finalizes the node; in record mode it completes the logs. The error
// is nil unless a write-ahead log was enabled and failed along the way: the
// in-memory logs are complete and replayable regardless, but the WAL file is
// not the durable copy EnableWAL promised.
func (n *Node) Close() error { return n.vm.Close() }

// Logs returns the record-phase logs (nil unless recording).
func (n *Node) Logs() *Logs { return n.vm.Logs() }

// Snapshot returns the full observability view of the node: critical events
// by kind, network events, log volume, replay progress, and latency
// histograms. It is safe to call at any time, including while the node runs.
func (n *Node) Snapshot() Snapshot { return n.vm.Metrics().Snapshot() }

// ServeMetrics starts a standalone HTTP listener on addr (use
// "127.0.0.1:0" for an ephemeral port) serving the node's metrics snapshot
// as JSON. It returns the bound address — point `djstat -watch
// http://<addr>` at it — and a stop function closing the listener.
func (n *Node) ServeMetrics(addr string) (boundAddr string, stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(n.Snapshot())
	})}
	go srv.Serve(ln)
	return ln.Addr().String(), func() { srv.Close() }, nil
}

// StartReporter periodically writes a human-readable metrics report to w
// until the returned stop function is called (stop writes one final report).
func (n *Node) StartReporter(w io.Writer, every time.Duration) (stop func()) {
	return obs.StartReporter(w, every, n.vm.Metrics())
}

// Mode reports the node's execution mode.
func (n *Node) Mode() Mode { return n.vm.Mode() }

// ID reports the node's DJVM identity.
func (n *Node) ID() DJVMID { return n.vm.ID() }

// Host reports the node's simulated host name.
func (n *Node) Host() string { return n.sock.Host() }

// Listen creates a stream server socket on the node's host; port 0 picks an
// ephemeral port whose identity is recorded and replayed.
func (n *Node) Listen(t *Thread, port uint16) (*ServerSocket, error) {
	return n.sock.Listen(t, port)
}

// Connect establishes a stream connection to addr.
func (n *Node) Connect(t *Thread, addr Addr) (*Socket, error) {
	return n.sock.Connect(t, addr)
}

// BindDatagram creates a datagram socket bound to port on the node's host.
func (n *Node) BindDatagram(t *Thread, port uint16) (*DatagramSocket, error) {
	return n.gram.Bind(t, port)
}

// Env returns the node's environmental-value source: deterministic
// replayable clock reads and random draws.
func (n *Node) Env() *EnvSource { return n.env }

// NewRPCServer creates an RPC server accepting connections through this
// node.
func (n *Node) NewRPCServer() *RPCServer { return djrpc.NewServer(n.sock) }

// NewRPCClient creates an RPC client calling the server at addr through
// this node.
func (n *Node) NewRPCClient(addr Addr) *RPCClient { return djrpc.NewClient(n.sock, addr) }

// EnableWAL makes the node's record-phase logging durable: every log record
// is framed, checksummed and appended to a single write-ahead log file at
// path, fsynced every WALOptions.SyncEvery records. Call it on a record-mode
// node before Start. If the process dies mid-run, Recover salvages the
// consistent prefix of the file and the run replays deterministically up to
// the crash point. If writing the file fails mid-run, recording continues in
// memory and Close and TruncateAt report the first failure.
func (n *Node) EnableWAL(path string, opts WALOptions) error {
	return n.vm.EnableWAL(path, opts)
}

// LogEndStops reports how many replay threads stopped cleanly at the end of a
// crash-recovered schedule (Config.StopAtLogEnd).
func (n *Node) LogEndStops() uint64 { return n.vm.LogEndStops() }

// TruncateAt compacts the node's write-ahead log at a checkpoint anchor,
// keeping the last `keep` checkpoints: every schedule, network and datagram
// record satisfied strictly below the anchor is dropped, the anchor's base
// counter is stamped into the compacted log, and replay of the result must
// resume from a retained checkpoint. Record mode with an enabled WAL only
// (no-op in other modes). The rewrite is atomic — a crash mid-truncation
// leaves the previous log intact.
func (n *Node) TruncateAt(keep int) (*TruncateStats, error) {
	return n.vm.TruncateWAL(keep)
}

// Recover reads a write-ahead log written by EnableWAL — including one left
// by a crashed process — truncates it at the first torn or corrupt frame, and
// returns the salvaged log set, repaired to the longest replayable prefix,
// with a report of what was kept and dropped. Replay the result with
// Config.StopAtLogEnd set.
func Recover(path string) (*Logs, *RecoveryReport, error) {
	return tracelog.RecoverFile(path)
}

// SaveLogs persists the node's record-phase logs under dir.
func (n *Node) SaveLogs(dir string) error {
	logs := n.vm.Logs()
	if logs == nil {
		return fmt.Errorf("dejavu: node %d has no logs (mode %v)", n.ID(), n.Mode())
	}
	return logs.Save(dir)
}

// LoadLogs opens logs previously persisted with SaveLogs. A log larger than
// a read window is not read into memory: the returned Logs keep its file
// open and read it as replay needs it, closing it when they are dropped.
// Deleting the files after LoadLogs is fine, and so is saving other logs
// into the same directory (a save replaces a file, it never writes into
// one); a file changed in place makes the replay fail as corrupt.
func LoadLogs(dir string) (*Logs, error) { return tracelog.LoadSet(dir) }

// EnableCausalTrace makes a record-mode node annotate its network log with
// byte-offset spans for connects, accepts, stream reads and writes, and its
// schedule log with a wall-clock anchor every 8 critical events (plus one at
// the start and one at the end of the run), so `djtrace -perfetto` and
// `-critpath` can correlate the saved logs' cross-VM messages into
// happens-before edges and map counters onto wall time. Call it before
// Start; replay ignores the annotations. Off by default: without it
// recorded logs are byte-identical to previous releases.
func (n *Node) EnableCausalTrace() error { return n.vm.EnableCausalTrace() }

// CheckpointTake records a checkpoint as one critical event of t, capturing
// the state returned by save (record mode; consumes its schedule slot during
// replay; no-op in passthrough). See internal/checkpoint for the quiescence
// requirements.
func CheckpointTake(t *Thread, save func() []byte) { checkpoint.Take(t, save) }

// CheckpointLatest returns the most recent checkpoint in a log set.
func CheckpointLatest(logs *Logs) (*CheckpointSnapshot, error) {
	return checkpoint.Latest(logs)
}

// Checkpoints returns every checkpoint in a log set, in counter order.
func Checkpoints(logs *Logs) ([]*CheckpointSnapshot, error) {
	return checkpoint.List(logs)
}

// FinalCounter reports the total number of critical events of a recorded
// run: the sum over its order streams — the global counter and, under
// OrderSharded, every registered object's — of the value each reached.
func FinalCounter(logs *Logs) (uint64, error) {
	idx, err := tracelog.BuildScheduleIndex(logs.Schedule)
	if err != nil {
		return 0, err
	}
	var n uint64
	for _, s := range idx.Streams {
		n += uint64(s.End())
	}
	return n, nil
}
