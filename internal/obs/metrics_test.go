package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// tick stands for one critical event of a VM that publishes at once: the
// counter word moves to gcAfter and the event's kind is counted.
func tick(m *Metrics, kind EventKind, gcAfter uint64) {
	m.Clock().Store(gcAfter)
	m.AddEvents(kind, 1)
}

// TestConcurrentIncrements hammers every counter from many goroutines and
// checks exact totals — run with -race this also proves the layer is
// data-race-free.
func TestConcurrentIncrements(t *testing.T) {
	m := &Metrics{}
	const (
		workers = 8
		perKind = 1000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perKind; i++ {
				for k := EventKind(0); int(k) < NumEventKinds; k++ {
					m.Clock().Add(1)
					m.AddEvents(k, 1)
				}
				m.IncNetworkEvent()
				m.AddFastForwardSkips(2)
				m.ObserveTurnWait(time.Duration(i) * time.Nanosecond)
			}
		}()
	}
	wg.Wait()

	s := m.Snapshot()
	const n = workers * perKind
	if s.TotalEvents != n*uint64(NumEventKinds) {
		t.Errorf("TotalEvents = %d, want %d", s.TotalEvents, n*uint64(NumEventKinds))
	}
	for k := EventKind(0); int(k) < NumEventKinds; k++ {
		if got := m.EventCount(k); got != n {
			t.Errorf("EventCount(%v) = %d, want %d", k, got, n)
		}
	}
	if s.NetworkEvents != n {
		t.Errorf("NetworkEvents = %d, want %d", s.NetworkEvents, n)
	}
	if s.FastForwardSkips != 2*n {
		t.Errorf("FastForwardSkips = %d, want %d", s.FastForwardSkips, 2*n)
	}
	if s.TurnWait.Count != n {
		t.Errorf("TurnWait.Count = %d, want %d", s.TurnWait.Count, n)
	}
}

// TestSnapshotConsistency verifies a snapshot taken mid-hammering against
// producers that publish the way VM threads do — tick the counter word (or
// publish a sharded batch) first, count locally, publish kinds in batches:
// the total is the counter word plus the sharded part, never decreases, is
// never below the per-kind sum, and leads it by at most the pending batches;
// once the producers have flushed, the two are equal.
func TestSnapshotConsistency(t *testing.T) {
	const (
		producers = 4
		batch     = 64
	)
	m := &Metrics{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			k := EventKind(seed % NumEventKinds)
			sharded := seed%2 == 1
			pending := uint64(0)
			flush := func() {
				if sharded {
					m.AddShardEvents(pending-pending/2, pending/2)
				}
				m.AddEvents(k, pending)
				pending = 0
			}
			defer flush()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if !sharded {
					m.Clock().Add(1)
				}
				if pending++; pending == batch {
					flush()
				}
			}
		}(w)
	}
	var prev Snapshot
	for i := 0; i < 200; i++ {
		s := m.Snapshot()
		if want := s.Replay.CurrentGC + s.Shard.FastPath + s.Shard.Contended; s.TotalEvents != want {
			t.Fatalf("TotalEvents=%d, counter word + sharded part = %d", s.TotalEvents, want)
		}
		if s.TotalEvents < prev.TotalEvents {
			t.Fatalf("TotalEvents went back from %d to %d", prev.TotalEvents, s.TotalEvents)
		}
		if sum := s.Events.Total(); sum > s.TotalEvents {
			t.Fatalf("per-kind sum %d ahead of total %d", sum, s.TotalEvents)
		}
		// A snapshot is not one instant, so the lag is bounded across two: what
		// was unpublished when prev read its total was at most a batch per
		// producer, and everything published by then is in s's kinds.
		if sum := s.Events.Total(); sum+producers*batch < prev.TotalEvents {
			t.Fatalf("per-kind sum %d lags the earlier total %d by more than %d", sum, prev.TotalEvents, producers*batch)
		}
		prev = s
	}
	close(stop)
	wg.Wait()
	if s := m.Snapshot(); s.TotalEvents != s.Events.Total() || s.TotalEvents != m.TotalEvents() {
		t.Errorf("after the final flush: TotalEvents=%d, Events.Total()=%d, Metrics.TotalEvents()=%d",
			s.TotalEvents, s.Events.Total(), m.TotalEvents())
	}
}

// TestClockBaseKeepsSkippedEventsOutOfTotal: a resumed run starts its counter
// at the checkpoint's value; the gauge shows it, the total does not count it.
func TestClockBaseKeepsSkippedEventsOutOfTotal(t *testing.T) {
	m := &Metrics{}
	m.SetClockBase(1000)
	tick(m, KindShared, 1001)
	tick(m, KindShared, 1002)
	s := m.Snapshot()
	if s.Replay.CurrentGC != 1002 || s.TotalEvents != 2 || m.TotalEvents() != 2 {
		t.Errorf("gc=%d total=%d/%d, want gc 1002 and 2 events", s.Replay.CurrentGC, s.TotalEvents, m.TotalEvents())
	}
}

// TestWatchdogGauge: the armed flag is the layer's own; the stall latch is the
// owner's, read through its hook, and disarming leaves it set.
func TestWatchdogGauge(t *testing.T) {
	m := &Metrics{}
	stalled := false
	m.SetOwner(func(s *Snapshot) { s.Replay.Stalled = stalled })
	if s := m.Snapshot(); s.Replay.WatchdogArmed || s.Replay.Stalled {
		t.Fatal("zero-value gauges not clear")
	}
	m.SetWatchdogArmed(true)
	if s := m.Snapshot(); !s.Replay.WatchdogArmed {
		t.Error("armed bit not set")
	}
	stalled = true
	m.SetWatchdogArmed(false)
	s := m.Snapshot()
	if s.Replay.WatchdogArmed {
		t.Error("armed bit not cleared")
	}
	if !s.Replay.Stalled {
		t.Error("stalled latch lost when disarming")
	}
}

func TestReplayProgressPercent(t *testing.T) {
	cases := []struct {
		cur, fin uint64
		want     float64
	}{
		{0, 0, -1},   // record mode: no denominator
		{500, 0, -1}, // still record mode
		{0, 200, 0},
		{50, 200, 25},
		{200, 200, 100},
	}
	for _, c := range cases {
		r := ReplayProgress{CurrentGC: c.cur, FinalGC: c.fin}
		if got := r.Percent(); got != c.want {
			t.Errorf("Percent(%d/%d) = %v, want %v", c.cur, c.fin, got, c.want)
		}
	}
}

// TestServeEndpoint spins up the metrics endpoint, fetches a snapshot the
// way djstat does, and checks the served JSON parses back into the snapshot
// it was made from — events, logs, replay progress and a histogram.
func TestServeEndpoint(t *testing.T) {
	m := &Metrics{}
	tick(m, KindShared, 1)
	tick(m, KindSocket, 2)
	tick(m, KindMonitorEnter, 3)
	m.IncNetworkEvent()
	m.SetOwner(func(s *Snapshot) {
		s.Logs.Datagram = LogFileStats{Appends: 1, Bytes: 42}
		s.Replay.FinalGC = 10
	})
	m.ObserveGCHold(3 * time.Microsecond)
	addr, stop, err := Serve("127.0.0.1:0", m)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	resp, err := http.Get("http://" + addr + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var got Snapshot
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("endpoint body is not a snapshot: %v", err)
	}
	want := m.Snapshot()
	if got.Events.MonitorEnter != 1 {
		t.Errorf("served snapshot events = %+v", got.Events)
	}
	if got.TotalEvents != want.TotalEvents || got.Events != want.Events {
		t.Errorf("events round-trip mismatch: got %+v want %+v", got.Events, want.Events)
	}
	if got.Logs != want.Logs {
		t.Errorf("logs round-trip mismatch: got %+v want %+v", got.Logs, want.Logs)
	}
	if got.Replay != want.Replay {
		t.Errorf("replay round-trip mismatch: got %+v want %+v", got.Replay, want.Replay)
	}
	if got.GCHold.Count != want.GCHold.Count || got.GCHold.SumNanos != want.GCHold.SumNanos {
		t.Errorf("histogram round-trip mismatch: got %+v want %+v", got.GCHold, want.GCHold)
	}
}

func TestWriteReportAndReporter(t *testing.T) {
	m := &Metrics{}
	tick(m, KindShared, 7)
	m.SetOwner(func(s *Snapshot) { s.Replay.FinalGC = 14 })
	m.ObserveTurnWait(time.Millisecond)

	var b strings.Builder
	WriteReport(&b, m.Snapshot())
	out := b.String()
	for _, want := range []string{"replay", "50.0%", "gc 7/14", "shared=1", "turnwait"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}

	var rb syncBuilder
	stop := StartReporter(&rb, time.Hour, m) // only the final flush fires
	stop()
	stop() // idempotent
	if !strings.Contains(rb.String(), "gc 7/14") {
		t.Errorf("reporter final flush missing:\n%s", rb.String())
	}
}

func TestProgressBar(t *testing.T) {
	if got := ProgressBar(0, 4); got != "[....]" {
		t.Errorf("ProgressBar(0) = %q", got)
	}
	if got := ProgressBar(50, 4); got != "[##..]" {
		t.Errorf("ProgressBar(50) = %q", got)
	}
	if got := ProgressBar(100, 4); got != "[####]" {
		t.Errorf("ProgressBar(100) = %q", got)
	}
	if got := ProgressBar(150, 4); got != "[####]" {
		t.Errorf("ProgressBar(>100) = %q", got)
	}
}

// syncBuilder is a goroutine-safe strings.Builder for reporter tests.
type syncBuilder struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuilder) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuilder) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestClockRefreshRunsBeforeTheWordIsRead: an owner that publishes its counter
// lazily installs a hook; TotalEvents and Snapshot run it first and report
// what it stored, and a raw load of the word does not run it.
func TestClockRefreshRunsBeforeTheWordIsRead(t *testing.T) {
	m := &Metrics{}
	counter, calls := uint64(0), 0
	m.SetClockRefresh(func() {
		calls++
		m.Clock().Store(counter)
	})
	counter = 7
	if got := m.Clock().Load(); got != 0 || calls != 0 {
		t.Fatalf("raw load read %d after %d refreshes, want the stale 0 and none", got, calls)
	}
	if got := m.TotalEvents(); got != 7 || calls != 1 {
		t.Errorf("TotalEvents = %d after %d refreshes, want 7 after 1", got, calls)
	}
	counter = 9
	if s := m.Snapshot(); s.TotalEvents != 9 || s.Replay.CurrentGC != 9 || calls != 2 {
		t.Errorf("Snapshot total %d, CurrentGC %d after %d refreshes, want 9, 9 after 2", s.TotalEvents, s.Replay.CurrentGC, calls)
	}
}

// TestOwnerFillsLast: the owner's hook runs once per snapshot, after the
// layer's own loads, and what it writes is what the snapshot reports.
func TestOwnerFillsLast(t *testing.T) {
	m := &Metrics{}
	tick(m, KindShared, 3)
	calls := 0
	m.SetOwner(func(s *Snapshot) {
		calls++
		if s.TotalEvents != 3 {
			t.Errorf("owner saw TotalEvents %d, want the layer's 3", s.TotalEvents)
		}
		s.Intervals, s.Faults.WALSyncs = 5, 2
	})
	if s := m.Snapshot(); s.Intervals != 5 || s.Faults.WALSyncs != 2 || calls != 1 {
		t.Errorf("snapshot intervals %d, WAL syncs %d after %d owner calls, want 5, 2 after 1", s.Intervals, s.Faults.WALSyncs, calls)
	}
	if m.TotalEvents(); calls != 1 {
		t.Errorf("TotalEvents ran the owner's hook")
	}
}
