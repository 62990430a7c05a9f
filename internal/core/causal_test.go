package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/tracelog"
)

// TestTimestampSampling records with causal tracing on and checks the
// schedule log carries a consistent anchor sequence: nondecreasing counters
// and wall clocks, an initial anchor, one every 8 events (the cadence the
// facade documents), and a final anchor at FinalGC — and that replay of the
// annotated logs is unaffected.
func TestTimestampSampling(t *testing.T) {
	const every = 8
	var x SharedInt
	rec, err := NewVM(Config{ID: 80, Mode: ids.Record})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.EnableCausalTrace(); err != nil {
		t.Fatal(err)
	}
	rec.Start(func(main *Thread) {
		for i := 0; i < 20; i++ {
			x.Set(main, int64(i))
		}
	})
	rec.Wait()
	rec.Close()

	sched, err := tracelog.BuildScheduleIndex(rec.Logs().Schedule)
	if err != nil {
		t.Fatal(err)
	}
	ts := sched.Timestamps
	if len(ts) < 2 {
		t.Fatalf("got %d timestamp anchors, want at least initial + final", len(ts))
	}
	if ts[0].GC != 0 {
		t.Errorf("initial anchor at counter %d, want 0", ts[0].GC)
	}
	if last := ts[len(ts)-1]; last.GC != sched.Meta.FinalGC {
		t.Errorf("final anchor at counter %d, want FinalGC %d", last.GC, sched.Meta.FinalGC)
	}
	for i := 1; i < len(ts); i++ {
		if ts[i].GC < ts[i-1].GC {
			t.Errorf("anchor counters decrease: %d after %d", ts[i].GC, ts[i-1].GC)
		}
		if ts[i].Wall < ts[i-1].Wall {
			t.Errorf("anchor wall clocks decrease: %d after %d", ts[i].Wall, ts[i-1].Wall)
		}
	}
	// Cadence anchors land exactly on every multiple of the sampling period.
	cadence := ts[1 : len(ts)-1]
	for i, a := range cadence {
		if want := ids.GCount(every * (i + 1)); a.GC != want {
			t.Errorf("cadence anchor %d at counter %d, want %d", i, a.GC, want)
		}
	}
	if want := int(sched.Meta.FinalGC / every); len(cadence) != want {
		t.Errorf("%d cadence anchors over %d events, want %d", len(cadence), sched.Meta.FinalGC, want)
	}
	now := time.Now().UnixNano()
	if ts[0].Wall <= 0 || ts[0].Wall > now {
		t.Errorf("initial anchor wall %d outside (0, now=%d]", ts[0].Wall, now)
	}

	// Replay ignores the annotations entirely.
	rep, err := NewVM(Config{ID: 80, Mode: ids.Replay, ReplayLogs: rec.Logs()})
	if err != nil {
		t.Fatal(err)
	}
	rep.Start(func(main *Thread) {
		for i := 0; i < 20; i++ {
			x.Set(main, int64(i))
		}
	})
	rep.Wait()
	rep.Close()
	if got, want := rep.Stats().CriticalEvents, rec.Stats().CriticalEvents; got != want {
		t.Errorf("replay executed %d events, record %d", got, want)
	}
}

// TestTimestampModeErrors: the one switch that records wall-clock anchors
// and net spans, EnableCausalTrace, is record-only and needs the global
// counter the annotations are keyed by.
func TestTimestampModeErrors(t *testing.T) {
	rep, err := NewVM(Config{ID: 81, Mode: ids.Passthrough})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if err := rep.EnableCausalTrace(); err == nil {
		t.Error("EnableCausalTrace accepted a non-record VM")
	}
	rec, err := NewVM(Config{ID: 82, Mode: ids.Record, OrderMode: ids.OrderSharded})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if err := rec.EnableCausalTrace(); err == nil || !strings.Contains(err.Error(), "OrderGlobal") {
		t.Errorf("EnableCausalTrace under sharded: err = %v, want OrderGlobal requirement", err)
	}
}

// TestDivergenceCarriesContext pins that a stall-detected divergence names
// the counter it stalled at and the full parked-thread map — the inputs
// WhyDiverged needs to walk the happens-before graph.
func TestDivergenceCarriesContext(t *testing.T) {
	var x SharedInt
	rec, err := NewVM(Config{ID: 83, Mode: ids.Record})
	if err != nil {
		t.Fatal(err)
	}
	rec.Start(func(main *Thread) {
		x.Set(main, 1)
		done := make(chan struct{})
		main.Spawn(func(child *Thread) {
			x.Set(child, 2)
			close(done)
		})
		<-done
		x.Set(main, 3)
	})
	rec.Wait()
	rec.Close()

	rep, err := NewVM(Config{
		ID: 83, Mode: ids.Replay, ReplayLogs: rec.Logs(),
		StallTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan any, 1)
	rep.Start(func(main *Thread) {
		defer func() { got <- recover() }()
		x.Set(main, 1)
		done := make(chan struct{})
		main.Spawn(func(child *Thread) {
			close(done) // skips its recorded event
		})
		<-done
		x.Set(main, 3)
	})
	select {
	case r := <-got:
		de, ok := r.(*DivergenceError)
		if !ok {
			t.Fatalf("recovered %v (%T), want *DivergenceError", r, r)
		}
		if len(de.Parked) == 0 {
			t.Fatal("stall divergence carries no parked-thread list")
		}
		want, ok := parkedByThread(de.Parked)[de.Thread]
		if !ok {
			t.Fatalf("Parked %v does not include the diverged thread %d", de.Parked, de.Thread)
		}
		if want.Stream != tracelog.GlobalStream || want.Next <= de.GC {
			t.Errorf("thread waited for %s, not for a counter after the stall point %d", want.Awaited(), de.GC)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("watchdog did not fire")
	}
	rep.Wait()
	rep.Close()
}
