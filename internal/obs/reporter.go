package obs

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// WriteReport renders one snapshot in human-readable form: the format the
// periodic reporter and cmd/djstat share. The counter is the word as last
// published (ReplayProgress.CurrentGC), and the legend says so in both modes.
func WriteReport(w io.Writer, s Snapshot) {
	if pct := s.Replay.Percent(); pct >= 0 {
		fmt.Fprintf(w, "replay   %s %.1f%%  gc %d/%d (as last published)  parked %d%s%s\n",
			ProgressBar(pct, 24), pct, s.Replay.CurrentGC, s.Replay.FinalGC,
			s.Replay.ParkedThreads,
			flag(s.Replay.WatchdogArmed, "  watchdog:armed"),
			flag(s.Replay.Stalled, "  STALLED"))
	} else {
		fmt.Fprintf(w, "clock    gc %d (as last published)\n", s.Replay.CurrentGC)
	}
	fmt.Fprintf(w, "events   total %d  nw %d  intervals %d", s.TotalEvents, s.NetworkEvents, s.Intervals)
	if s.FastForwardSkips > 0 {
		fmt.Fprintf(w, "  ff-skips %d", s.FastForwardSkips)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "by kind  %s\n", kindLine(s.Events))
	fmt.Fprintf(w, "logs     schedule %dB/%d  network %dB/%d  datagram %dB/%d  total %dB\n",
		s.Logs.Schedule.Bytes, s.Logs.Schedule.Appends,
		s.Logs.Network.Bytes, s.Logs.Network.Appends,
		s.Logs.Datagram.Bytes, s.Logs.Datagram.Appends,
		s.Logs.TotalBytes())
	if s.Causal.Timestamps > 0 || s.Causal.NetSpans > 0 {
		fmt.Fprintf(w, "causal   timestamps %d  net-spans %d\n",
			s.Causal.Timestamps, s.Causal.NetSpans)
	}
	if s.Shard.FastPath > 0 || s.Shard.Contended > 0 || s.Shard.ObjRuns > 0 {
		fmt.Fprintf(w, "shard    fast %d  contended %d  obj-runs %d\n",
			s.Shard.FastPath, s.Shard.Contended, s.Shard.ObjRuns)
	}
	f := s.Faults
	if f.WALSyncs > 0 || f.PeerUnreachable > 0 ||
		f.LogEndStops > 0 || f.RudpRetransmits > 0 || f.RudpBackoffCapped > 0 ||
		f.WALTruncates > 0 || f.WALErrors > 0 {
		fmt.Fprintf(w, "faults   wal-syncs %d  wal-truncates %d  wal-errors %d  rudp-rexmit %d  backoff-capped %d  unreachable %d  log-end-stops %d\n",
			f.WALSyncs, f.WALTruncates, f.WALErrors, f.RudpRetransmits,
			f.RudpBackoffCapped, f.PeerUnreachable, f.LogEndStops)
	}
	writeHistLine(w, "turnwait", s.TurnWait)
	writeHistLine(w, "gc-hold ", s.GCHold)
}

func writeHistLine(w io.Writer, name string, h HistogramSnapshot) {
	if h.Count == 0 {
		return
	}
	fmt.Fprintf(w, "%s n=%d mean=%v p50=%v p99=%v max=%v\n",
		name, h.Count, h.Mean(), h.Quantile(0.50), h.Quantile(0.99), h.Max())
}

// kindLine renders the non-zero per-kind counts in declaration order.
func kindLine(c EventCounts) string {
	type kv struct {
		k EventKind
		n uint64
	}
	pairs := []kv{
		{KindShared, c.Shared}, {KindMonitorEnter, c.MonitorEnter},
		{KindMonitorExit, c.MonitorExit}, {KindWait, c.Wait},
		{KindNotify, c.Notify}, {KindSocket, c.Socket},
		{KindDatagram, c.Datagram}, {KindCheckpoint, c.Checkpoint},
		{KindEnv, c.Env}, {KindThread, c.Thread}, {KindOther, c.Other},
	}
	var parts []string
	for _, p := range pairs {
		if p.n > 0 {
			parts = append(parts, fmt.Sprintf("%v=%d", p.k, p.n))
		}
	}
	if len(parts) == 0 {
		return "(none)"
	}
	return strings.Join(parts, " ")
}

// ProgressBar renders pct (0..100) as a fixed-width bar.
func ProgressBar(pct float64, width int) string {
	if width <= 0 {
		width = 10
	}
	if pct < 0 {
		pct = 0
	}
	if pct > 100 {
		pct = 100
	}
	filled := int(pct / 100 * float64(width))
	return "[" + strings.Repeat("#", filled) + strings.Repeat(".", width-filled) + "]"
}

func flag(on bool, s string) string {
	if on {
		return s
	}
	return ""
}

// StartReporter writes a report to w every interval until the returned stop
// function is called (stop also writes one final report).
func StartReporter(w io.Writer, interval time.Duration, m *Metrics) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				WriteReport(w, m.Snapshot())
			}
		}
	}()
	var once bool
	return func() {
		if once {
			return
		}
		once = true
		close(done)
		<-finished
		WriteReport(w, m.Snapshot())
	}
}
