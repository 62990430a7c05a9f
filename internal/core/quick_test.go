package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ids"
	"repro/internal/tracelog"
)

// randomProgram builds a random racy program from a seed: several threads,
// each executing a random sequence of shared-variable accesses and
// monitor-protected updates over a small set of shared objects. It returns
// the per-thread observation traces of one execution.
type programShape struct {
	threads int
	vars    int
	mons    int
	ops     [][]int // ops[thread] = encoded op stream
}

func shapeFromSeed(seed int64) programShape {
	rng := rand.New(rand.NewSource(seed))
	s := programShape{
		threads: 2 + rng.Intn(5),
		vars:    1 + rng.Intn(3),
		mons:    1 + rng.Intn(2),
	}
	s.ops = make([][]int, s.threads)
	for t := range s.ops {
		n := 20 + rng.Intn(80)
		s.ops[t] = make([]int, n)
		for i := range s.ops[t] {
			s.ops[t][i] = rng.Intn(1000)
		}
	}
	return s
}

// runShape executes the program on one VM and returns per-thread traces.
func runShape(s programShape, cfg Config) ([][]int64, *VM, error) {
	vm, err := NewVM(cfg)
	if err != nil {
		return nil, nil, err
	}
	vars := make([]SharedInt, s.vars)
	mons := make([]*Monitor, s.mons)
	for i := range mons {
		mons[i] = NewMonitor()
	}
	traces := make([][]int64, s.threads)

	vm.Start(func(main *Thread) {
		done := make(chan struct{}, s.threads)
		for ti := 0; ti < s.threads; ti++ {
			ti := ti
			main.Spawn(func(t *Thread) {
				defer func() { done <- struct{}{} }()
				for _, op := range s.ops[ti] {
					v := &vars[op%s.vars]
					switch {
					case op%10 < 6:
						// Racy read-modify-write.
						x := v.Get(t)
						traces[ti] = append(traces[ti], x)
						v.Set(t, x+int64(ti)+1)
					case op%10 < 9:
						// Monitor-protected update.
						m := mons[op%s.mons]
						m.Enter(t)
						x := v.Get(t)
						traces[ti] = append(traces[ti], -x)
						v.Set(t, x*2+1)
						m.Exit(t)
					default:
						// Atomic add.
						traces[ti] = append(traces[ti], v.Add(t, 3))
					}
				}
			})
		}
		for i := 0; i < s.threads; i++ {
			<-done
		}
	})
	vm.Wait()
	vm.Close()
	return traces, vm, nil
}

// TestRandomProgramsReplayIdentically is the repository's central property
// test: for arbitrary racy programs, a replay run reproduces the record
// run's per-thread observation traces exactly.
func TestRandomProgramsReplayIdentically(t *testing.T) {
	f := func(seed int64) bool {
		s := shapeFromSeed(seed)
		recTraces, recVM, err := runShape(s, Config{ID: 42, Mode: ids.Record, RecordJitter: 5})
		if err != nil {
			t.Logf("record: %v", err)
			return false
		}
		repTraces, repVM, err := runShape(s, Config{ID: 42, Mode: ids.Replay, ReplayLogs: recVM.Logs()})
		if err != nil {
			t.Logf("replay: %v", err)
			return false
		}
		if recVM.Stats().CriticalEvents != repVM.Stats().CriticalEvents {
			return false
		}
		return tracesEqual(recTraces, repTraces)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestRandomProgramsReplayTwice checks that replay is itself repeatable:
// two replays of one log agree.
func TestRandomProgramsReplayTwice(t *testing.T) {
	s := shapeFromSeed(424242)
	_, recVM, err := runShape(s, Config{ID: 43, Mode: ids.Record, RecordJitter: 5})
	if err != nil {
		t.Fatal(err)
	}
	t1, _, err := runShape(s, Config{ID: 43, Mode: ids.Replay, ReplayLogs: recVM.Logs()})
	if err != nil {
		t.Fatal(err)
	}
	t2, _, err := runShape(s, Config{ID: 43, Mode: ids.Replay, ReplayLogs: recVM.Logs()})
	if err != nil {
		t.Fatal(err)
	}
	if !tracesEqual(t1, t2) {
		t.Error("two replays of one log disagree")
	}
}

// TestIntervalCompressionProperty checks §2.2's efficiency claim on random
// programs: the intervals of the schedule log partition exactly the executed
// critical events (no event uncovered, none double-covered), with at most
// one interval record per thread switch.
func TestIntervalCompressionProperty(t *testing.T) {
	f := func(seed int64) bool {
		s := shapeFromSeed(seed)
		_, vm, err := runShape(s, Config{ID: 44, Mode: ids.Record, RecordJitter: 50})
		if err != nil {
			return false
		}
		idx, err := tracelog.BuildScheduleIndex(vm.Logs().Schedule)
		if err != nil {
			return false
		}
		var intervals, events uint64
		covered := make(map[ids.GCount]bool)
		for _, ivs := range idx.Streams[0].Runs {
			for _, iv := range ivs {
				intervals++
				for gc := iv.First; ; gc++ {
					if covered[gc] {
						return false // double coverage
					}
					covered[gc] = true
					events++
					if gc == iv.Last {
						break
					}
				}
			}
		}
		return intervals <= events && events == vm.Stats().CriticalEvents
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
