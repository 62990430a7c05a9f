package djenv

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ids"
)

func newVM(t *testing.T, cfg core.Config) *core.VM {
	t.Helper()
	vm, err := core.NewVM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return vm
}

// runEnvApp draws clock and random values from several threads and returns
// the per-thread observation traces.
func runEnvApp(t *testing.T, cfg core.Config) ([][]int64, *core.VM) {
	t.Helper()
	vm := newVM(t, cfg)
	src := New(vm)
	const threads, draws = 3, 20
	traces := make([][]int64, threads)
	vm.Start(func(main *core.Thread) {
		done := make(chan struct{}, threads)
		for i := 0; i < threads; i++ {
			i := i
			main.Spawn(func(th *core.Thread) {
				defer func() { done <- struct{}{} }()
				for j := 0; j < draws; j++ {
					switch j % 3 {
					case 0:
						traces[i] = append(traces[i], src.Now(th))
					case 1:
						traces[i] = append(traces[i], int64(src.Uint64(th)))
					default:
						traces[i] = append(traces[i], int64(src.Intn(th, 1000)))
					}
				}
			})
		}
		for i := 0; i < threads; i++ {
			<-done
		}
	})
	vm.Wait()
	vm.Close()
	return traces, vm
}

func TestEnvRecordReplay(t *testing.T) {
	recTraces, recVM := runEnvApp(t, core.Config{ID: 1, Mode: ids.Record, RecordJitter: 4})
	repTraces, _ := runEnvApp(t, core.Config{ID: 1, Mode: ids.Replay, ReplayLogs: recVM.Logs()})
	for i := range recTraces {
		if len(recTraces[i]) != len(repTraces[i]) {
			t.Fatalf("thread %d trace length differs", i)
		}
		for j := range recTraces[i] {
			if recTraces[i][j] != repTraces[i][j] {
				t.Fatalf("thread %d draw %d: replay %d, record %d",
					i, j, repTraces[i][j], recTraces[i][j])
			}
		}
	}
}

func TestEnvValuesDifferAcrossRecordRuns(t *testing.T) {
	a, _ := runEnvApp(t, core.Config{ID: 2, Mode: ids.Record})
	b, _ := runEnvApp(t, core.Config{ID: 2, Mode: ids.Record})
	same := true
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Error("two record runs drew identical environmental values")
	}
}

func TestEnvPassthroughDoesNotLog(t *testing.T) {
	_, vm := runEnvApp(t, core.Config{ID: 3, Mode: ids.Passthrough})
	if vm.Logs() != nil {
		t.Error("passthrough run produced logs")
	}
}

func TestEnvOpMismatchDiverges(t *testing.T) {
	vm := newVM(t, core.Config{ID: 4, Mode: ids.Record})
	src := New(vm)
	vm.Start(func(main *core.Thread) {
		src.Now(main)
	})
	vm.Wait()
	vm.Close()

	rep := newVM(t, core.Config{ID: 4, Mode: ids.Replay, ReplayLogs: vm.Logs()})
	repSrc := New(rep)
	got := make(chan any, 1)
	rep.Start(func(main *core.Thread) {
		defer func() { got <- recover() }()
		repSrc.Uint64(main) // recorded as "now", replayed as "rand"
	})
	r := <-got
	if _, ok := r.(*core.DivergenceError); !ok {
		t.Fatalf("recovered %v (%T), want *core.DivergenceError", r, r)
	}
}

func TestEnvBeyondRecordedDiverges(t *testing.T) {
	vm := newVM(t, core.Config{ID: 5, Mode: ids.Record})
	src := New(vm)
	vm.Start(func(main *core.Thread) { src.Now(main) })
	vm.Wait()
	vm.Close()

	rep := newVM(t, core.Config{ID: 5, Mode: ids.Replay, ReplayLogs: vm.Logs()})
	repSrc := New(rep)
	got := make(chan any, 1)
	rep.Start(func(main *core.Thread) {
		defer func() { got <- recover() }()
		repSrc.Now(main)
		repSrc.Now(main) // one draw too many
	})
	r := <-got
	if _, ok := r.(*core.DivergenceError); !ok {
		t.Fatalf("recovered %v (%T), want *core.DivergenceError", r, r)
	}
}

func TestIntnBounds(t *testing.T) {
	vm := newVM(t, core.Config{ID: 6, Mode: ids.Record})
	src := New(vm)
	vm.Start(func(main *core.Thread) {
		for i := 0; i < 200; i++ {
			if v := src.Intn(main, 7); v < 0 || v >= 7 {
				t.Errorf("Intn(7) = %d", v)
			}
		}
	})
	vm.Wait()
	vm.Close()

	vm2 := newVM(t, core.Config{ID: 7, Mode: ids.Passthrough})
	src2 := New(vm2)
	got := make(chan any, 1)
	vm2.Start(func(main *core.Thread) {
		defer func() { got <- recover() }()
		src2.Intn(main, 0)
	})
	if r := <-got; r == nil {
		t.Error("Intn(0) did not panic")
	}
	vm2.Wait()
}

// TestCrashPointEnvQueryStopsAtLogEnd: under StopAtLogEnd an environment
// query past the recovered log is where its thread stops — no value is made
// up and nothing is thrown (the socket layers' half of this property is
// dejavu.TestCrashPointIsALogEndForNetworkEvents).
func TestCrashPointEnvQueryStopsAtLogEnd(t *testing.T) {
	vm := newVM(t, core.Config{ID: 6, Mode: ids.Record})
	src := New(vm)
	var recorded int64
	vm.Start(func(main *core.Thread) { recorded = src.Now(main) })
	vm.Wait()
	vm.Close()

	rep := newVM(t, core.Config{ID: 6, Mode: ids.Replay, ReplayLogs: vm.Logs(), StopAtLogEnd: true})
	repSrc := New(rep)
	var got []int64
	rep.Start(func(main *core.Thread) {
		got = append(got, repSrc.Now(main))
		got = append(got, repSrc.Now(main)) // past the log end
	})
	rep.Wait()
	if len(got) != 1 || got[0] != recorded {
		t.Errorf("replay drew %v, want only the recorded %d", got, recorded)
	}
	if rep.LogEndStops() != 1 {
		t.Errorf("LogEndStops = %d, want 1", rep.LogEndStops())
	}
}
