package obs

import (
	"sync/atomic"
	"time"
)

// Metrics is the per-VM metric set. All fields are updated with single atomic
// operations; there is no lock anywhere in the layer. The zero value is ready
// to use (core.NewVM allocates one per VM unconditionally — the layer is
// always on).
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
	// intervals counts logical schedule intervals flushed to the schedule log.
	intervals atomic.Uint64
	// ffSkips counts recorded critical events skipped by checkpoint-resume
	// fast-forward (events before the resume counter, per thread).
	ffSkips atomic.Uint64

	// Per-log-file append counts and byte volumes.
	logAppends [numLogFiles]atomic.Uint64
	logBytes   [numLogFiles]atomic.Uint64

	// Gauges.
	finalGC  atomic.Uint64 // recorded schedule length (replay mode; else 0)
	parked   atomic.Int64  // threads currently waiting for a replay turn
	watchdog atomic.Uint32 // bit 0: armed, bit 1: stalled

	// Fault-tolerance counters: WAL fsyncs performed for this VM's logs, rudp
	// destinations declared unreachable after exhausting their retry budget,
	// and replay threads that stopped at the end of a truncated (crash-
	// recovered) schedule.
	walSyncs        atomic.Uint64
	peerUnreachable atomic.Uint64
	logEndStops     atomic.Uint64
	// rudp delivery-layer counters: segment retransmissions and senders whose
	// exponential backoff hit its cap (still retrying, but at max interval).
	rudpRetransmits   atomic.Uint64
	rudpBackoffCapped atomic.Uint64
	// walTruncates counts checkpoint-anchored WAL compactions performed.
	walTruncates atomic.Uint64
	// walErrors counts WALs lost to a write or sync failure (at most one per
	// VM: the writer's first error is final).
	walErrors atomic.Uint64

	// Supervisor counters: fail-stop recoveries completed, VM restarts
	// launched, and recoveries that fell back to replay-from-zero because no
	// checkpoint was salvageable.
	recoveries atomic.Uint64
	restarts   atomic.Uint64
	fallbacks  atomic.Uint64
	// Group-recovery counters: coordinated checkpoint epochs this VM stamped,
	// and recovery-line demotions (a candidate epoch rejected because a
	// member's anchor was lost or a message would be orphaned).
	groupEpochs   atomic.Uint64
	lineFallbacks atomic.Uint64

	// Causal-tracing counters: sampled wall-clock timestamp records and
	// net-span correlation records emitted into the logs (record mode with
	// EnableCausalTrace on).
	timestamps atomic.Uint64
	netSpans   atomic.Uint64

	// Sharded-order counters (Config.OrderMode == OrderSharded): per-object
	// acquisitions that completed on the fast path (record: uncontended
	// TryLock; replay: turnstile already open) vs. ones that contended
	// (record: lock wait; replay: parked on the turnstile), plus access runs
	// flushed to the log (the sharded analogue of intervals).
	shardFast      atomic.Uint64
	shardContended atomic.Uint64
	objRuns        atomic.Uint64

	// histSampleRate is the 1-in-N latency sampling rate the VM applies to
	// the two histograms below (see core.Config.ObsSampleRate). Event counts
	// stay exact; only latency observation is sampled.
	histSampleRate atomic.Uint64

	// TurnWait observes how long replaying threads wait for their scheduled
	// turns (the replay serialization cost).
	TurnWait Histogram
	// GCHold observes how long the record phase's GC-critical section is held
	// per critical event (op + observer). A replaying VM holds no section —
	// the recorded schedule is its mutual exclusion — and observes none.
	GCHold Histogram
	// MTTR observes supervisor mean-time-to-recover: crash detection to the
	// recovered VM rejoining (every recovery is observed — no sampling).
	MTTR Histogram
}

const (
	watchdogArmedBit   = 1 << 0
	watchdogStalledBit = 1 << 1

	// cacheLine is the padding unit around the counter word: two 64-byte
	// lines, because adjacent lines are prefetched in pairs.
	cacheLine = 128
)

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

// IncObjRun counts one per-object access run flushed to the schedule log.
func (m *Metrics) IncObjRun() { m.objRuns.Add(1) }

// IncNetworkEvent counts one network event.
func (m *Metrics) IncNetworkEvent() { m.networkEvents.Add(1) }

// NetworkEvents reports the running network-event count.
func (m *Metrics) NetworkEvents() uint64 { return m.networkEvents.Load() }

// IncInterval counts one logical schedule interval flushed to the log.
func (m *Metrics) IncInterval() { m.intervals.Add(1) }

// AddFastForwardSkips counts recorded events skipped by checkpoint resume.
func (m *Metrics) AddFastForwardSkips(n uint64) { m.ffSkips.Add(n) }

// LogAppend counts one appended log entry of the given encoded size.
func (m *Metrics) LogAppend(file LogFile, bytes int) {
	if int(file) >= numLogFiles {
		return
	}
	m.logAppends[file].Add(1)
	m.logBytes[file].Add(uint64(bytes))
}

// IncWALSync counts one completed write-ahead-log fsync.
func (m *Metrics) IncWALSync() { m.walSyncs.Add(1) }

// IncPeerUnreachable counts one rudp destination abandoned after its retry
// budget was exhausted.
func (m *Metrics) IncPeerUnreachable() { m.peerUnreachable.Add(1) }

// IncLogEndStop counts one replay thread stopping at the end of a truncated
// recovered schedule.
func (m *Metrics) IncLogEndStop() { m.logEndStops.Add(1) }

// IncRudpRetransmit counts one rudp segment retransmission.
func (m *Metrics) IncRudpRetransmit() { m.rudpRetransmits.Add(1) }

// IncRudpBackoffCap counts one rudp sender whose retry backoff reached its
// maximum interval.
func (m *Metrics) IncRudpBackoffCap() { m.rudpBackoffCapped.Add(1) }

// IncWALTruncate counts one checkpoint-anchored WAL compaction.
func (m *Metrics) IncWALTruncate() { m.walTruncates.Add(1) }

// IncWALError counts one WAL lost to a write or sync failure.
func (m *Metrics) IncWALError() { m.walErrors.Add(1) }

// IncRecovery counts one completed supervisor recovery.
func (m *Metrics) IncRecovery() { m.recoveries.Add(1) }

// IncRestart counts one supervisor-launched VM restart.
func (m *Metrics) IncRestart() { m.restarts.Add(1) }

// IncFallback counts one recovery that replayed from zero because no
// checkpoint was salvageable from the repaired WAL.
func (m *Metrics) IncFallback() { m.fallbacks.Add(1) }

// IncGroupEpoch counts one coordinated checkpoint epoch stamped by this VM.
func (m *Metrics) IncGroupEpoch() { m.groupEpochs.Add(1) }

// IncLineFallback counts one recovery-line demotion: a candidate epoch the
// solver rejected, falling back to an older complete line.
func (m *Metrics) IncLineFallback() { m.lineFallbacks.Add(1) }

// ObserveMTTR records one crash-to-rejoin recovery latency.
func (m *Metrics) ObserveMTTR(d time.Duration) { m.MTTR.Observe(d) }

// IncTimestamp counts one sampled wall-clock timestamp record.
func (m *Metrics) IncTimestamp() { m.timestamps.Add(1) }

// IncNetSpan counts one causal-tracing net-span record.
func (m *Metrics) IncNetSpan() { m.netSpans.Add(1) }

// SetHistSampleRate publishes the 1-in-N latency sampling rate the owning VM
// applies to the TurnWait/GCHold histograms, so snapshot consumers can scale
// histogram counts back to event populations.
func (m *Metrics) SetHistSampleRate(n uint64) { m.histSampleRate.Store(n) }

// SetFinalGC publishes the recorded schedule length a replay runs against.
func (m *Metrics) SetFinalGC(gc uint64) { m.finalGC.Store(gc) }

// SetWatchdogArmed flips the stall-watchdog arm gauge.
func (m *Metrics) SetWatchdogArmed(armed bool) {
	for {
		cur := m.watchdog.Load()
		next := cur &^ watchdogArmedBit
		if armed {
			next = cur | watchdogArmedBit
		}
		if cur == next || m.watchdog.CompareAndSwap(cur, next) {
			return
		}
	}
}

// SetStalled latches the stall gauge (set by the watchdog on detection).
func (m *Metrics) SetStalled() {
	for {
		cur := m.watchdog.Load()
		if cur&watchdogStalledBit != 0 || m.watchdog.CompareAndSwap(cur, cur|watchdogStalledBit) {
			return
		}
	}
}

// IncParked / DecParked track threads parked on replay turns.
func (m *Metrics) IncParked() { m.parked.Add(1) }

// DecParked is IncParked's inverse.
func (m *Metrics) DecParked() { m.parked.Add(-1) }

// ObserveTurnWait records one replay turn-wait latency.
func (m *Metrics) ObserveTurnWait(d time.Duration) { m.TurnWait.Observe(d) }

// ObserveGCHold records one GC-critical-section hold time.
func (m *Metrics) ObserveGCHold(d time.Duration) { m.GCHold.Observe(d) }
