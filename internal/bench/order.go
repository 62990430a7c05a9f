package bench

import (
	"fmt"
	"runtime"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/tracelog"
)

// This file implements the disjoint-object scaling workload behind the
// "disjoint-obj" rows of BENCH_core.json: N threads each hammer their own
// registered shared variable, so under OrderSharded no two threads ever
// contend for an order counter, while under OrderGlobal every access
// serializes on the VM-global one. The workload isolates exactly the cost the
// sharded mode exists to remove; Table 1 rows keep measuring the mixed
// network-heavy path.
//
// Scaling caveat: the sharded advantage is parallelism. On a single-CPU host
// (GOMAXPROCS=1) threads never overlap, so global-counter contention never
// materializes and the two modes measure within noise of each other — compare
// rows only against the gomaxprocs recorded in the file's meta block.

// orderOpsPerThread is sized so a 16-thread run stays well under a second per
// rep while each thread still flushes many access runs.
const orderOpsPerThread = 2000

// OrderThreadCounts is the disjoint-object sweep committed to BENCH_core.json.
var OrderThreadCounts = []int{1, 4, 16}

// paddedInt keeps each thread-private SharedInt on cache lines of its own
// (two 64-byte lines, adjacent lines being prefetched in pairs). Packed in one
// slice the 16-byte variables are neighbours on one line, and at GOMAXPROCS>1
// the rows measure false sharing in this driver, not the order engine.
type paddedInt struct {
	v core.SharedInt
	_ [128 - unsafe.Sizeof(core.SharedInt{})]byte
}

// orderRun is one execution of the disjoint-object workload.
type orderRun struct {
	events uint64
	dur    time.Duration
	logs   *tracelog.Set
	snap   obs.Snapshot
	finals []int64
}

// runDisjointObjects executes the workload: each of n threads performs
// orderOpsPerThread racy increments (Get+Set = two critical events each) on
// its own registered SharedInt.
func runDisjointObjects(n int, mode ids.Mode, order ids.OrderMode, replayLogs *tracelog.Set) (orderRun, error) {
	vm, err := core.NewVM(core.Config{
		ID:         33,
		Mode:       mode,
		OrderMode:  order,
		ReplayLogs: replayLogs,
	})
	if err != nil {
		return orderRun{}, err
	}
	vars := make([]paddedInt, n)
	for i := range vars {
		vars[i].v.Register(vm)
	}
	start := time.Now()
	vm.Start(func(main *core.Thread) {
		done := make(chan struct{}, n)
		for ti := 0; ti < n; ti++ {
			ti := ti
			main.Spawn(func(t *core.Thread) {
				v := &vars[ti].v
				for i := 0; i < orderOpsPerThread; i++ {
					v.Set(t, v.Get(t)+1)
				}
				done <- struct{}{}
			})
		}
		for i := 0; i < n; i++ {
			<-done
		}
	})
	vm.Wait()
	dur := time.Since(start)
	vm.Close()

	run := orderRun{
		events: vm.Stats().CriticalEvents,
		dur:    dur,
		logs:   vm.Logs(),
		snap:   vm.Metrics().Snapshot(),
		finals: make([]int64, n),
	}
	for i := range vars {
		run.finals[i] = vars[i].v.Load()
		if run.finals[i] != orderOpsPerThread {
			return orderRun{}, fmt.Errorf("bench: disjoint workload var %d ended at %d, want %d (%v/%v)",
				i, run.finals[i], orderOpsPerThread, mode, order)
		}
	}
	return run, nil
}

// measureOrder runs the workload once as warm-up, then reps timed times, and
// returns the last run with the minimum duration substituted (the same
// low-noise estimator measure() uses).
func measureOrder(reps int, fn func() (orderRun, error)) (orderRun, error) {
	if _, err := fn(); err != nil {
		return orderRun{}, err
	}
	var best orderRun
	min := time.Duration(0)
	for i := 0; i < reps; i++ {
		run, err := fn()
		if err != nil {
			return orderRun{}, err
		}
		if min == 0 || run.dur < min {
			min = run.dur
		}
		best = run
	}
	best.dur = min
	return best, nil
}

// orderName renders an order mode for CoreRow.Order.
func orderName(m ids.OrderMode) string { return m.String() }

// GenerateOrderScaling measures the disjoint-object workload at each thread
// count in the given order modes, record and replay — the baseline-vs-sharded
// comparison rows of BENCH_core.json. Passing both modes (the default when
// orders is empty) lands directly comparable row pairs; each run also
// cross-checks determinism by verifying every variable's final value.
func GenerateOrderScaling(threadCounts []int, orders []ids.OrderMode, reps int, label string, progress func(string)) ([]CoreRow, error) {
	if len(threadCounts) == 0 {
		threadCounts = OrderThreadCounts
	}
	if len(orders) == 0 {
		orders = []ids.OrderMode{ids.OrderGlobal, ids.OrderSharded}
	}
	var rows []CoreRow
	for _, n := range threadCounts {
		for _, order := range orders {
			if progress != nil {
				progress(fmt.Sprintf("order %s, %d threads: record %v (gomaxprocs=%d)",
					label, n, order, runtime.GOMAXPROCS(0)))
			}
			rec, err := measureOrder(reps, func() (orderRun, error) {
				return runDisjointObjects(n, ids.Record, order, nil)
			})
			if err != nil {
				return nil, err
			}
			rows = append(rows, CoreRow{
				Label: label, Workload: "disjoint-obj", Threads: n,
				Mode: "record", Order: orderName(order),
				Events:       rec.events,
				DurationNs:   rec.dur.Nanoseconds(),
				EventsPerSec: eps(rec.events, rec.dur),
			})

			if progress != nil {
				progress(fmt.Sprintf("order %s, %d threads: replay %v", label, n, order))
			}
			rep, err := measureOrder(reps, func() (orderRun, error) {
				return runDisjointObjects(n, ids.Replay, order, rec.logs)
			})
			if err != nil {
				return nil, err
			}
			if rep.events != rec.events {
				return nil, fmt.Errorf("bench: %v replay executed %d events, record %d",
					order, rep.events, rec.events)
			}
			rows = append(rows, CoreRow{
				Label: label, Workload: "disjoint-obj", Threads: n,
				Mode: "replay", Order: orderName(order),
				Events:        rep.events,
				DurationNs:    rep.dur.Nanoseconds(),
				EventsPerSec:  eps(rep.events, rep.dur),
				TurnWaitP50Ns: uint64(rep.snap.TurnWait.Quantile(0.50)),
				TurnWaitP99Ns: uint64(rep.snap.TurnWait.Quantile(0.99)),
			})
		}
	}
	return rows, nil
}
