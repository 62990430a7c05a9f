package obs

import (
	"sync/atomic"
	"time"
)

// Metrics is the per-VM metric set. It holds only the numbers nothing else
// holds, each updated with single atomic operations; every number the VM's
// logs and streams already hold, the owner hook reads from them at snapshot
// time (SetOwner). The zero value is ready to use (core.NewVM allocates one
// per VM unconditionally — the layer is always on).
type Metrics struct {
	// clock is the VM's global counter word (core.VM writes it through Clock).
	// A replaying VM runs on it: every event stores it once, and the clock
	// gauge and the event total read the word the turnstile admits threads
	// by. A recording VM counts under its critical-section lock and publishes
	// the counter here once per run or batch, and refresh brings it up to
	// date for a reader. The padding keeps the word alone on its cache line
	// wherever the struct lands, so a store to it invalidates nothing else a
	// thread reads.
	_     [cacheLine]byte
	clock atomic.Uint64
	_     [cacheLine - 8]byte
	// refresh, when set, republishes the owner's counter into clock if that
	// can be done without waiting (see SetClockRefresh). Written once, before
	// the Metrics is shared.
	refresh func()
	// clockBase is the counter value the run started at (a checkpoint
	// resume's counter, else 0): clock-clockBase events ticked the clock.
	clockBase atomic.Uint64

	// events is the critical-event count by kind (record and replay; the
	// passthrough baseline executes no critical events by definition). Threads
	// count their events locally and publish here in batches (AddEvents), so
	// while a thread runs the per-kind split lags the total by a bounded batch.
	events [NumEventKinds]atomic.Uint64
	// networkEvents counts network events — the paper's "#nw events" column.
	// A network event is one socket/datagram operation; it usually costs one
	// critical event but is counted independently (§6).
	networkEvents atomic.Uint64
	// ffSkips counts recorded critical events skipped by checkpoint-resume
	// fast-forward (events before the resume counter, per thread).
	ffSkips atomic.Uint64
	// owner, when set, fills the snapshot fields whose numbers the owner
	// holds itself (see SetOwner). Written once, before the Metrics is shared.
	owner func(*Snapshot)

	// watchdogArmed reports whether the stall watchdog is running.
	watchdogArmed atomic.Bool

	// peerUnreachable counts rudp destinations declared unreachable after
	// exhausting their retry budget.
	peerUnreachable atomic.Uint64
	// rudp delivery-layer counters: segment retransmissions and senders whose
	// exponential backoff hit its cap (still retrying, but at max interval).
	rudpRetransmits   atomic.Uint64
	rudpBackoffCapped atomic.Uint64
	// walTruncates counts checkpoint-anchored WAL compactions performed.
	walTruncates atomic.Uint64
	// walErrors counts WALs lost to a write or sync failure (at most one per
	// VM: the writer's first error is final). The VM's own record of the
	// failure sits under its stream lock, which a frozen member holds for
	// good, so the count lives here.
	walErrors atomic.Uint64

	// Sharded-order counters (Config.OrderMode == OrderSharded): per-object
	// acquisitions that completed on the fast path (record: uncontended
	// TryLock; replay: turnstile already open) vs. ones that contended
	// (record: lock wait; replay: parked on the turnstile).
	shardFast      atomic.Uint64
	shardContended atomic.Uint64

	// TurnWait observes how long replaying threads wait for their scheduled
	// turns (the replay serialization cost).
	TurnWait Histogram
	// GCHold observes how long the record phase's GC-critical section is held
	// per critical event that runs code in it (op + observer); a bare shared
	// access, one load or store, is not timed. A replaying VM holds no
	// section — the recorded schedule is its mutual exclusion — and observes none.
	GCHold Histogram
}

// cacheLine is the padding unit around the counter word: two 64-byte lines,
// because adjacent lines are prefetched in pairs.
const cacheLine = 128

// Clock exposes the global counter word. The owning VM is its only writer,
// and it publishes the counter into it per run, not per event: a raw load
// reads the last published value — never ahead of the counter, behind it by
// less than a publish batch while a thread is inside a run, exact once the
// threads have returned. Of a recording VM TotalEvents and Snapshot refresh it
// first.
func (m *Metrics) Clock() *atomic.Uint64 { return &m.clock }

// SetClockRefresh installs the hook TotalEvents and Snapshot call before they
// read the counter word: a recording VM's, which stores its counter into the
// word unless an event is in flight. The hook must never block — readers poll
// the total precisely to notice an owner that has stopped for good — and must
// be installed before the Metrics is shared.
func (m *Metrics) SetClockRefresh(refresh func()) { m.refresh = refresh }

// SetOwner installs the hook Snapshot calls last, to fill the fields whose
// numbers the owner already holds: a VM's log volumes and record counts, its
// WAL's fsyncs, its replay gauges. Like the clock refresh it must never
// block — it may take a lock only for as long as a read — and must be
// installed before the Metrics is shared.
func (m *Metrics) SetOwner(fill func(*Snapshot)) { m.owner = fill }

// refreshClock runs the owner's hook, if any.
func (m *Metrics) refreshClock() {
	if m.refresh != nil {
		m.refresh()
	}
}

// SetClockBase starts the counter at gc (a checkpoint resume): the events
// below it were skipped, not executed, and stay out of the event total.
func (m *Metrics) SetClockBase(gc uint64) {
	m.clockBase.Store(gc)
	m.clock.Store(gc)
}

// AddEvents publishes n executed critical events of the given kind: a
// thread's locally counted batch. The counter word that covers them (or
// AddShardEvents for sharded ones) is written first, so the per-kind sum never
// runs ahead of the total.
func (m *Metrics) AddEvents(kind EventKind, n uint64) {
	if int(kind) >= NumEventKinds {
		kind = KindOther
	}
	m.events[kind].Add(n)
}

// EventCount reports the published count for one kind.
func (m *Metrics) EventCount(kind EventKind) uint64 {
	if int(kind) >= NumEventKinds {
		return 0
	}
	return m.events[kind].Load()
}

// TotalEvents reports the running critical-event total: the events that
// ticked the global counter — read from the counter word, so it does not wait
// for per-kind batches — plus the published sharded events, which advance
// per-object counters instead. Of a recording VM the word is exact whenever
// no event is in flight (an idle VM, a thread between two events); of a
// replaying one whenever the thread that holds the counter's turn has
// finished, is parked or is inside a blocking operation, and at every event
// with an observer. Otherwise it is the last published value, less than a
// publish batch behind. It never decreases and is never ahead.
func (m *Metrics) TotalEvents() uint64 {
	m.refreshClock()
	shard := m.shardFast.Load() + m.shardContended.Load()
	return m.clock.Load() - m.clockBase.Load() + shard
}

// AddShardEvents publishes a batch of sharded-mode critical events, split by
// how their per-object acquisition resolved. Their kinds follow through
// AddEvents.
func (m *Metrics) AddShardEvents(fast, contended uint64) {
	if fast != 0 {
		m.shardFast.Add(fast)
	}
	if contended != 0 {
		m.shardContended.Add(contended)
	}
}

// IncNetworkEvent counts one network event.
func (m *Metrics) IncNetworkEvent() { m.networkEvents.Add(1) }

// NetworkEvents reports the running network-event count.
func (m *Metrics) NetworkEvents() uint64 { return m.networkEvents.Load() }

// AddFastForwardSkips counts recorded events skipped by checkpoint resume.
func (m *Metrics) AddFastForwardSkips(n uint64) { m.ffSkips.Add(n) }

// IncPeerUnreachable counts one rudp destination abandoned after its retry
// budget was exhausted.
func (m *Metrics) IncPeerUnreachable() { m.peerUnreachable.Add(1) }

// IncRudpRetransmit counts one rudp segment retransmission.
func (m *Metrics) IncRudpRetransmit() { m.rudpRetransmits.Add(1) }

// IncRudpBackoffCap counts one rudp sender whose retry backoff reached its
// maximum interval.
func (m *Metrics) IncRudpBackoffCap() { m.rudpBackoffCapped.Add(1) }

// IncWALTruncate counts one checkpoint-anchored WAL compaction.
func (m *Metrics) IncWALTruncate() { m.walTruncates.Add(1) }

// IncWALError counts one WAL lost to a write or sync failure.
func (m *Metrics) IncWALError() { m.walErrors.Add(1) }

// SetWatchdogArmed flips the stall-watchdog arm gauge.
func (m *Metrics) SetWatchdogArmed(armed bool) { m.watchdogArmed.Store(armed) }

// ObserveTurnWait records one replay turn-wait latency.
func (m *Metrics) ObserveTurnWait(d time.Duration) { m.TurnWait.Observe(d) }

// ObserveGCHold records one GC-critical-section hold time.
func (m *Metrics) ObserveGCHold(d time.Duration) { m.GCHold.Observe(d) }
