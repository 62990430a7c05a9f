// Package obs is the DJVM's always-on observability layer: atomic per-VM
// counters, gauges, and lock-free streaming histograms for the quantities the
// paper's evaluation reports (critical-event rates, log volume, record
// overhead, §6) and the ones replay operators need live (progress against the
// recorded schedule, parked threads, turn-wait latency).
//
// The layer stays off the critical-event hot path: the global counter word
// doubles as the clock gauge and the event total — a replaying VM runs its
// turnstile on it, a recording VM publishes its counter into it once per
// schedule interval and readers refresh it on demand (Metrics.TotalEvents);
// threads count their events by kind locally and publish a batch per schedule
// interval (one atomic add per kind); histograms are fed by 1-in-N sampling.
// Everything else is a single atomic RMW on a path that runs once per
// interval, log append or fault. Snapshot assembles a view from atomic loads
// without stopping writers.
//
// One Metrics value belongs to one VM. It is exposed three ways: the typed
// Snapshot struct (re-exported by the dejavu facade), the same snapshot as
// JSON over HTTP (Handler/Serve, for cmd/djstat), and a periodic
// human-readable reporter.
package obs

// EventKind classifies a critical event by the subsystem that issued it. The
// paper's taxonomy (§2.1) distinguishes shared-variable accesses,
// synchronization events, and network events; the breakdown here refines it
// to the granularity the per-kind counters report.
type EventKind uint8

const (
	// KindShared is a shared-variable access (SharedInt / SharedVar).
	KindShared EventKind = iota
	// KindMonitorEnter is a monitorenter (blocking, marked on completion).
	KindMonitorEnter
	// KindMonitorExit is a monitorexit.
	KindMonitorExit
	// KindWait covers Object.wait's critical events: wait-set entry, the
	// timed-wait check, and the re-acquisition after wakeup.
	KindWait
	// KindNotify is a notify/notifyAll.
	KindNotify
	// KindSocket is a stream-socket network event (§4.1).
	KindSocket
	// KindDatagram is a datagram/multicast network event (§4.2).
	KindDatagram
	// KindCheckpoint is a checkpoint capture (or its replay-consumed slot).
	KindCheckpoint
	// KindEnv is an environmental query (clock read, random draw).
	KindEnv
	// KindThread is a thread lifecycle event: spawn, join, sleep wakeup.
	KindThread
	// KindOther is an untagged critical event (application-issued Critical).
	KindOther

	// NumEventKinds is the number of distinct kinds; valid kinds are < it.
	NumEventKinds = int(KindOther) + 1
)

var kindNames = [NumEventKinds]string{
	"shared", "monitor-enter", "monitor-exit", "wait", "notify",
	"socket", "datagram", "checkpoint", "env", "thread", "other",
}

func (k EventKind) String() string {
	if int(k) < NumEventKinds {
		return kindNames[k]
	}
	return "other"
}

// LogFile names one of the three per-VM record-phase logs.
type LogFile uint8

const (
	// LogSchedule is the logical-thread-schedule log (§2.2).
	LogSchedule LogFile = iota
	// LogNetwork is the NetworkLogFile (§4.1.3).
	LogNetwork
	// LogDatagram is the RecordedDatagramLog (§4.2.2).
	LogDatagram

	numLogFiles = int(LogDatagram) + 1
)

func (f LogFile) String() string {
	switch f {
	case LogSchedule:
		return "schedule"
	case LogNetwork:
		return "network"
	default:
		return "datagram"
	}
}
