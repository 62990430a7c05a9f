// Package obs is the DJVM's always-on observability layer: the per-VM
// counters, gauges and lock-free streaming histograms behind the quantities
// the paper's evaluation reports (critical-event rates, log volume, record
// overhead, §6) and the ones replay operators need live (progress against the
// recorded schedule, parked threads, turn-wait latency).
//
// Every number has one holder. obs keeps an atomic only where it is the sole
// lock-free holder of a number: per-kind critical events, network events,
// sharded fast and contended acquisitions, fast-forward skips, WAL
// truncations and errors, the rudp and supervisor counters, the
// watchdog-armed flag, the global counter word, and the histograms. Every
// other Snapshot field is read at snapshot time, through the owner hook
// core.NewVM installs (Metrics.SetOwner), from where the VM already counts
// it: log volumes and per-kind record counts (intervals, access runs,
// timestamps, net spans, group epochs) from the logs, fsyncs from the WAL
// writer, log-end stops, parked threads, the stall latch, the recorded
// schedule length and the sampling rate from the VM.
//
// The layer stays off the critical-event hot path: the global counter word
// doubles as the clock gauge and the event total — a replaying VM runs its
// turnstile on it, a recording VM publishes its counter into it once per
// schedule interval and readers refresh it on demand (Metrics.TotalEvents);
// threads count their events by kind locally and publish a batch per schedule
// interval (one atomic add per kind); histograms are fed by 1-in-N sampling.
// Nothing on the record or replay path writes an obs word for a number the
// VM holds. Snapshot assembles a view without stopping writers: it takes each
// log's lock briefly, never a stream lock, and never waits behind an fsync,
// so a member frozen inside its critical section can still be snapshotted.
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
