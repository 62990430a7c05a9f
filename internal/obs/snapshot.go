package obs

// EventCounts breaks the critical-event total down by kind.
type EventCounts struct {
	Shared       uint64 `json:"shared"`
	MonitorEnter uint64 `json:"monitor_enter"`
	MonitorExit  uint64 `json:"monitor_exit"`
	Wait         uint64 `json:"wait"`
	Notify       uint64 `json:"notify"`
	Socket       uint64 `json:"socket"`
	Datagram     uint64 `json:"datagram"`
	Checkpoint   uint64 `json:"checkpoint"`
	Env          uint64 `json:"env"`
	Thread       uint64 `json:"thread"`
	Other        uint64 `json:"other"`
}

// Total sums the per-kind counts.
func (c EventCounts) Total() uint64 {
	return c.Shared + c.MonitorEnter + c.MonitorExit + c.Wait + c.Notify +
		c.Socket + c.Datagram + c.Checkpoint + c.Env + c.Thread + c.Other
}

// LogFileStats is the append count and byte volume of one record-phase log.
type LogFileStats struct {
	Appends uint64 `json:"appends"`
	Bytes   uint64 `json:"bytes"`
}

// LogStats covers the three per-VM logs.
type LogStats struct {
	Schedule LogFileStats `json:"schedule"`
	Network  LogFileStats `json:"network"`
	Datagram LogFileStats `json:"datagram"`
}

// TotalBytes is the paper's "log size" quantity: bytes across all three logs.
func (l LogStats) TotalBytes() uint64 {
	return l.Schedule.Bytes + l.Network.Bytes + l.Datagram.Bytes
}

// ReplayProgress is the live state of a replaying VM. For record/passthrough
// VMs FinalGC is 0 and only CurrentGC is meaningful.
type ReplayProgress struct {
	// CurrentGC is the global counter as last published into its word: exact
	// once the VM's threads have returned and at every event with an
	// EventObserver, and otherwise behind the counter by less than one publish
	// batch (1024 events), never ahead. A recorder publishes per run or batch
	// and Snapshot refreshes the word when no event is in flight; a replaying
	// thread holds the counter's turn for a whole recorded run and publishes
	// when the run ends, a batch fills, or the runtime takes it off the event
	// path (a blocking operation, a park, its exit).
	CurrentGC uint64 `json:"current_gc"`
	// FinalGC is the recorded schedule's final counter value (0 outside
	// replay): the denominator of replay progress.
	FinalGC uint64 `json:"final_gc"`
	// ParkedThreads is how many threads are waiting for their replay turns.
	ParkedThreads int64 `json:"parked_threads"`
	// WatchdogArmed reports whether the stall watchdog is running.
	WatchdogArmed bool `json:"watchdog_armed"`
	// Stalled reports whether the watchdog has detected a stall.
	Stalled bool `json:"stalled"`
}

// Percent is replay progress as a percentage of the recorded schedule, or -1
// when no recorded schedule is known (FinalGC == 0).
func (r ReplayProgress) Percent() float64 {
	if r.FinalGC == 0 {
		return -1
	}
	return 100 * float64(r.CurrentGC) / float64(r.FinalGC)
}

// FaultCounts groups the fault-tolerance counters: durable-logging activity
// and the retry/recovery outcomes of the bounded-retry datagram layer.
type FaultCounts struct {
	// WALSyncs is the number of write-ahead-log fsyncs performed.
	WALSyncs uint64 `json:"wal_syncs"`
	// PeerUnreachable is rudp destinations abandoned after rudp's fixed
	// retry budget.
	PeerUnreachable uint64 `json:"peer_unreachable"`
	// LogEndStops is replay threads that stopped at the end of a truncated
	// crash-recovered schedule (the replayed crash point).
	LogEndStops uint64 `json:"log_end_stops"`
	// RudpRetransmits is rudp segment retransmissions performed.
	RudpRetransmits uint64 `json:"rudp_retransmits"`
	// RudpBackoffCapped is rudp senders whose retry backoff hit its maximum
	// interval (a persistent-loss signal one step before PeerUnreachable).
	RudpBackoffCapped uint64 `json:"rudp_backoff_capped"`
	// WALTruncates is checkpoint-anchored WAL compactions performed.
	WALTruncates uint64 `json:"wal_truncates"`
	// WALErrors is WALs lost to a write or sync failure: recording went on
	// in memory, the file stopped growing, and Close returned the error.
	WALErrors uint64 `json:"wal_errors"`
}

// RecoveryCounts groups what a VM's log holds of the group's recovery lines.
// A supervisor's recoveries are not a VM's to count: they are its Outcome.
type RecoveryCounts struct {
	// GroupEpochs is coordinated checkpoint epochs this VM stamped.
	GroupEpochs uint64 `json:"group_epochs"`
}

// CausalCounts groups the causal-tracing counters: the optional correlation
// records emitted for post-mortem happens-before reconstruction.
type CausalCounts struct {
	// Timestamps is sampled wall-clock anchor records emitted.
	Timestamps uint64 `json:"timestamps"`
	// NetSpans is net-span correlation records emitted for closed-world
	// socket events.
	NetSpans uint64 `json:"net_spans"`
}

// ShardCounts groups the sharded-order counters: how per-object acquisitions
// resolved (fast path vs. contended) and how many access runs were logged.
// All zero outside sharded order mode.
type ShardCounts struct {
	// FastPath is sharded events whose per-object acquisition completed
	// without waiting (record: uncontended lock; replay: open turnstile).
	FastPath uint64 `json:"fast_path"`
	// Contended is sharded events that waited for their object (record: lock
	// contention; replay: parked on the turnstile).
	Contended uint64 `json:"contended"`
	// ObjRuns is per-object access runs flushed to the schedule log — the
	// sharded analogue of Intervals.
	ObjRuns uint64 `json:"obj_runs"`
}

// Snapshot is a point-in-time view of one VM's metrics. TotalEvents and
// Replay.CurrentGC both come from the counter word: the counter as last
// published, exact once the threads have returned and less than a publish
// batch behind while they run (see ReplayProgress.CurrentGC). Events is what
// the threads have published, so mid-run Events.Total() trails TotalEvents by
// at most one pending batch per running thread and never exceeds it, and once
// the VM's threads have returned the two are equal.
type Snapshot struct {
	// Events is the critical-event count by kind, as published.
	Events EventCounts `json:"events"`
	// TotalEvents is the critical-event total — the "#critical events"
	// column.
	TotalEvents uint64 `json:"total_events"`
	// NetworkEvents is the "#nw events" column.
	NetworkEvents uint64 `json:"network_events"`
	// Intervals is the number of logical schedule intervals emitted.
	Intervals uint64 `json:"intervals"`
	// FastForwardSkips is recorded events skipped by checkpoint resume.
	FastForwardSkips uint64 `json:"fast_forward_skips"`
	// Logs is per-log-file append/byte volume (record mode).
	Logs LogStats `json:"logs"`
	// Replay is the live replay-progress gauge set.
	Replay ReplayProgress `json:"replay"`
	// Faults is the fault-tolerance counter set (WAL, retries, recovery).
	Faults FaultCounts `json:"faults"`
	// Recovery is the VM's recovery-line counter set.
	Recovery RecoveryCounts `json:"recovery"`
	// Causal is the causal-tracing counter set (timestamp + net-span
	// records emitted).
	Causal CausalCounts `json:"causal"`
	// Shard is the sharded-order counter set (fast-path vs. contended
	// per-object acquisitions, access runs logged).
	Shard ShardCounts `json:"shard"`
	// HistSampleRate is the 1-in-N latency sampling rate behind TurnWait and
	// GCHold: only a turn wait for, or (recording) a closure event's section
	// hold at, a counter value that is a multiple of N contributed a latency
	// observation (counts elsewhere in the snapshot stay exact). 1 means every
	// one was timed.
	HistSampleRate uint64 `json:"hist_sample_rate,omitempty"`
	// TurnWait is the replay turn-wait latency distribution.
	TurnWait HistogramSnapshot `json:"turn_wait"`
	// GCHold is the record phase's GC-critical-section hold-time distribution
	// over events that run code in the section (never a bare shared access);
	// a replaying VM holds no section and its count is 0.
	GCHold HistogramSnapshot `json:"gc_hold"`
}

// Snapshot assembles the current view: the layer's own counters by atomic
// loads, then the owner's numbers through its hook. It is safe to call
// concurrently with every update path.
func (m *Metrics) Snapshot() Snapshot {
	var s Snapshot
	m.refreshClock()
	// Load order mirrors publish order (counter word or sharded batch first,
	// kinds after): kinds are read first, so their sum cannot exceed the total.
	s.Events = EventCounts{
		Shared:       m.events[KindShared].Load(),
		MonitorEnter: m.events[KindMonitorEnter].Load(),
		MonitorExit:  m.events[KindMonitorExit].Load(),
		Wait:         m.events[KindWait].Load(),
		Notify:       m.events[KindNotify].Load(),
		Socket:       m.events[KindSocket].Load(),
		Datagram:     m.events[KindDatagram].Load(),
		Checkpoint:   m.events[KindCheckpoint].Load(),
		Env:          m.events[KindEnv].Load(),
		Thread:       m.events[KindThread].Load(),
		Other:        m.events[KindOther].Load(),
	}
	s.Shard = ShardCounts{
		FastPath:  m.shardFast.Load(),
		Contended: m.shardContended.Load(),
	}
	gc := m.clock.Load()
	s.TotalEvents = gc - m.clockBase.Load() + s.Shard.FastPath + s.Shard.Contended
	s.NetworkEvents = m.networkEvents.Load()
	s.FastForwardSkips = m.ffSkips.Load()
	s.Replay = ReplayProgress{CurrentGC: gc, WatchdogArmed: m.watchdogArmed.Load()}
	s.Faults = FaultCounts{
		PeerUnreachable:   m.peerUnreachable.Load(),
		RudpRetransmits:   m.rudpRetransmits.Load(),
		RudpBackoffCapped: m.rudpBackoffCapped.Load(),
		WALTruncates:      m.walTruncates.Load(),
		WALErrors:         m.walErrors.Load(),
	}
	s.TurnWait = m.TurnWait.Snapshot()
	s.GCHold = m.GCHold.Snapshot()
	if m.owner != nil {
		m.owner(&s)
	}
	return s
}
