package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/tracelog"
)

// This file implements the engine-core benchmark behind BENCH_core.json: the
// committed perf trajectory of the record/replay hot paths. Each invocation
// produces rows under one label (e.g. "baseline", "optimized"); djbench -core
// merges rows into the JSON file, replacing the same label's rows of the
// workloads it measured, so the file accumulates comparable points over time.

// CoreRow is one measurement of BENCH_core.json. Macro rows (workload
// "table1-closed") time full Table 1 record/replay runs; micro rows (workload
// "critical-event", "tracelog") isolate per-operation cost and allocations.
type CoreRow struct {
	Label    string `json:"label"`
	Workload string `json:"workload"`
	Threads  int    `json:"threads,omitempty"`
	Mode     string `json:"mode"`
	// Order is the order mode of "disjoint-obj" rows ("global"/"sharded");
	// empty for workloads that only run under the global order.
	Order string `json:"order,omitempty"`

	// Macro-row fields.
	Events        uint64  `json:"events,omitempty"`
	DurationNs    int64   `json:"duration_ns,omitempty"`
	EventsPerSec  float64 `json:"events_per_sec,omitempty"`
	RecOvhdPct    float64 `json:"rec_ovhd_pct,omitempty"`
	TurnWaitP50Ns uint64  `json:"turn_wait_p50_ns,omitempty"`
	TurnWaitP99Ns uint64  `json:"turn_wait_p99_ns,omitempty"`
	GCHoldP50Ns   uint64  `json:"gc_hold_p50_ns,omitempty"`
	GCHoldP99Ns   uint64  `json:"gc_hold_p99_ns,omitempty"`

	// Micro-row fields (from testing.Benchmark).
	NsPerOp     float64 `json:"ns_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
}

// CoreMeta records the environment one label's rows were measured in.
type CoreMeta struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// CPUs is the machine's core count (runtime.NumCPU); GOMAXPROCS is how
	// many of them Go was allowed to use (runtime.GOMAXPROCS(0)). Scaling
	// rows — thread counts above GOMAXPROCS, or sharded-vs-global
	// comparisons — are only meaningful relative to GOMAXPROCS.
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Reps       int    `json:"reps"`
	Date       string `json:"date"`
}

// CoreReport is the BENCH_core.json document.
type CoreReport struct {
	Meta map[string]CoreMeta `json:"meta"`
	Rows []CoreRow           `json:"rows"`
}

// GenerateCore measures the engine hot paths: full Table 1 record and replay
// runs at each thread count (events/sec, overhead, turn-wait and GC-hold
// quantiles from the obs histograms) plus per-critical-event and tracelog
// micro-benchmarks with allocation counts.
func GenerateCore(threadCounts []int, reps int, label string, progress func(string)) ([]CoreRow, error) {
	var rows []CoreRow
	for _, n := range threadCounts {
		p := ClosedParams(n)
		if progress != nil {
			progress(fmt.Sprintf("core %s, %d threads: baseline", label, n))
		}
		_, baseDur, err := measure(reps, func() (RunResult, error) { return RunBaseline(p) })
		if err != nil {
			return nil, err
		}

		if progress != nil {
			progress(fmt.Sprintf("core %s, %d threads: record", label, n))
		}
		rec, recDur, err := measure(reps, func() (RunResult, error) {
			return RunClosed(p, ids.Record, nil, nil)
		})
		if err != nil {
			return nil, err
		}
		recEvents := rec.Server.CriticalEvents + rec.Client.CriticalEvents
		rows = append(rows, CoreRow{
			Label: label, Workload: "table1-closed", Threads: n, Mode: "record",
			Events:       recEvents,
			DurationNs:   recDur.Nanoseconds(),
			EventsPerSec: eps(recEvents, recDur),
			RecOvhdPct:   ovhd(baseDur, recDur),
			GCHoldP50Ns:  uint64(rec.Server.Obs.GCHold.Quantile(0.50)),
			GCHoldP99Ns:  uint64(rec.Server.Obs.GCHold.Quantile(0.99)),
		})

		if progress != nil {
			progress(fmt.Sprintf("core %s, %d threads: replay", label, n))
		}
		rep, repDur, err := measure(reps, func() (RunResult, error) {
			return RunClosed(p, ids.Replay, rec.ServerLogs, rec.ClientLogs)
		})
		if err != nil {
			return nil, err
		}
		repEvents := rep.Server.CriticalEvents + rep.Client.CriticalEvents
		rows = append(rows, CoreRow{
			Label: label, Workload: "table1-closed", Threads: n, Mode: "replay",
			Events:        repEvents,
			DurationNs:    repDur.Nanoseconds(),
			EventsPerSec:  eps(repEvents, repDur),
			TurnWaitP50Ns: uint64(rep.Server.Obs.TurnWait.Quantile(0.50)),
			TurnWaitP99Ns: uint64(rep.Server.Obs.TurnWait.Quantile(0.99)),
		})
	}

	if progress != nil {
		progress(fmt.Sprintf("core %s: micro benchmarks", label))
	}
	rows = append(rows, microRows(label)...)
	return rows, nil
}

// microRows measures isolated per-operation costs with testing.Benchmark.
func microRows(label string) []CoreRow {
	mk := func(workload, mode string, r testing.BenchmarkResult) CoreRow {
		return CoreRow{
			Label: label, Workload: workload, Mode: mode,
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: float64(r.AllocsPerOp()),
			BytesPerOp:  float64(r.AllocedBytesPerOp()),
		}
	}
	var rows []CoreRow

	// One shared-variable critical event in record mode: the innermost
	// quantity behind every "rec ovhd" number.
	rows = append(rows, mk("critical-event", "record", testing.Benchmark(func(b *testing.B) {
		vm, err := core.NewVM(core.Config{ID: 1, Mode: ids.Record})
		if err != nil {
			b.Fatal(err)
		}
		var x core.SharedInt
		done := make(chan struct{})
		b.ReportAllocs()
		b.ResetTimer()
		vm.Start(func(t *core.Thread) {
			for i := 0; i < b.N; i++ {
				x.Set(t, int64(i))
			}
			close(done)
		})
		<-done
		b.StopTimer()
		vm.Wait()
		vm.Close()
	})))

	// One shared-variable critical event in replay mode (single thread: no
	// turn contention, pure per-event replay cost).
	rows = append(rows, mk("critical-event", "replay", testing.Benchmark(func(b *testing.B) {
		recVM, err := core.NewVM(core.Config{ID: 1, Mode: ids.Record})
		if err != nil {
			b.Fatal(err)
		}
		var x core.SharedInt
		recVM.Start(func(t *core.Thread) {
			for i := 0; i < b.N; i++ {
				x.Set(t, int64(i))
			}
		})
		recVM.Wait()
		recVM.Close()
		repVM, err := core.NewVM(core.Config{ID: 1, Mode: ids.Replay, ReplayLogs: recVM.Logs()})
		if err != nil {
			b.Fatal(err)
		}
		done := make(chan struct{})
		b.ReportAllocs()
		b.ResetTimer()
		repVM.Start(func(t *core.Thread) {
			for i := 0; i < b.N; i++ {
				x.Set(t, int64(i))
			}
			close(done)
		})
		<-done
		b.StopTimer()
		repVM.Wait()
		repVM.Close()
	})))

	// One tracelog append (schedule-interval record): the record-phase
	// logging cost per flushed interval.
	rows = append(rows, mk("tracelog", "append", testing.Benchmark(func(b *testing.B) {
		l := tracelog.NewLog()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l.Append(&tracelog.Interval{Thread: 1, First: ids.GCount(i), Last: ids.GCount(i)})
		}
	})))

	// Schedule-index construction over a 4096-interval log: replay startup
	// cost (one op = one full BuildScheduleIndex).
	rows = append(rows, mk("tracelog", "index", testing.Benchmark(func(b *testing.B) {
		l := tracelog.NewLog()
		const intervals = 4096
		for i := 0; i < intervals; i++ {
			l.Append(&tracelog.Interval{Thread: ids.ThreadNum(i % 8), First: ids.GCount(8 * i), Last: ids.GCount(8*i + 7)})
		}
		l.Append(&tracelog.VMMeta{VM: 1, Threads: 8, FinalGC: 8 * intervals})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tracelog.BuildScheduleIndex(l); err != nil {
				b.Fatal(err)
			}
		}
	})))
	return rows
}

// MergeCoreFile merges rows under label into the JSON report at path: rows
// previously recorded under the same label for the workloads in rows are
// replaced, others are kept.
func MergeCoreFile(path, label string, rows []CoreRow, reps int) error {
	report := CoreReport{Meta: map[string]CoreMeta{}}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &report); err != nil {
			return fmt.Errorf("bench: parse %s: %w", path, err)
		}
		if report.Meta == nil {
			report.Meta = map[string]CoreMeta{}
		}
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("bench: read %s: %w", path, err)
	}
	// A label's rows come from more than one invocation (the engine-core
	// probes and the -order sweep), so a run replaces only the workloads it
	// re-measured.
	measured := map[string]bool{}
	for _, r := range rows {
		measured[r.Workload] = true
	}
	kept := report.Rows[:0]
	for _, r := range report.Rows {
		if r.Label != label || !measured[r.Workload] {
			kept = append(kept, r)
		}
	}
	report.Rows = append(kept, rows...)
	sort.SliceStable(report.Rows, func(i, j int) bool {
		a, b := report.Rows[i], report.Rows[j]
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		if a.Threads != b.Threads {
			return a.Threads < b.Threads
		}
		if a.Mode != b.Mode {
			return a.Mode < b.Mode
		}
		if a.Order != b.Order {
			return a.Order < b.Order
		}
		return a.Label < b.Label
	})
	report.Meta[label] = CoreMeta{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Reps:       reps,
		Date:       time.Now().UTC().Format("2006-01-02"),
	}
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return fmt.Errorf("bench: write %s: %w", path, err)
	}
	return nil
}
