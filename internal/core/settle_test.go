package core

import (
	"testing"

	"repro/internal/ids"
	"repro/internal/obs"
)

// TestSettledCountsMatchTheRecording: one thread replays one long run that
// mixes kinds and streams — SharedInt.Get and Set inline, SharedInt.Add and
// SharedVar.Update through critical, an environment event, a monitor's enter
// and exit, and a switch to a registered object's stream and back — under
// global and sharded order. An event replayed in place is counted only when
// its stretch is settled, so the test looks after every event: the stretch
// never holds more events than the thread's batch has room for and never
// reaches past its run's Last, a publication never shows a per-kind sum
// ahead of the total, and once Clock has published the sum is the total. At Wait the per-kind and sharded counts equal the
// recording's, and a loop of in-place events allocates nothing.
func TestSettledCountsMatchTheRecording(t *testing.T) {
	const iters, allocRuns = 500, 10
	for _, order := range []ids.OrderMode{ids.OrderGlobal, ids.OrderSharded} {
		t.Run(order.String(), func(t *testing.T) {
			// program runs the mix on vm, calling check after every event, and
			// reports what one round of the in-place loop allocated.
			program := func(vm *VM, check func(main *Thread)) (allocs float64) {
				var g, obj SharedInt // g stays on the global stream
				var v SharedVar[int]
				obj.Register(vm)
				mon := NewMonitor()
				vm.Start(func(main *Thread) {
					step := func(event func()) { event(); check(main) }
					for i := 0; i < iters; i++ {
						for k := 0; k <= i%4; k++ {
							var x int64
							step(func() { x = g.Get(main) })
							step(func() { g.Set(main, x+1) })
						}
						step(func() { g.Add(main, 1) })
						step(func() { v.Update(main, func(n int) int { return n + 1 }) })
						step(func() { main.CriticalKind(obs.KindEnv, func(ids.GCount) {}) })
						step(func() { mon.Enter(main) })
						step(func() { mon.Exit(main) })
						for k := 0; k <= i%3; k++ {
							var x int64
							step(func() { x = obj.Get(main) })
							step(func() { obj.Set(main, x+1) })
						}
						if i%50 == 0 && vm.mode == ids.Replay {
							// Clock publishes everything the thread counted.
							main.Clock()
							if s := vm.Metrics().Snapshot(); s.Events.Total() != s.TotalEvents {
								t.Errorf("after Clock at iteration %d: per-kind sum %d, total %d", i, s.Events.Total(), s.TotalEvents)
							}
						}
					}
					for j := 0; j < 3*publishBatch; j++ {
						step(func() { g.Add(main, 1) })
					}
					allocs = testing.AllocsPerRun(allocRuns, func() {
						for j := 0; j < publishBatch; j++ {
							g.Set(main, g.Get(main)+1)
							g.Add(main, 1)
							v.Update(main, func(n int) int { return n + 1 })
						}
					})
				})
				vm.Wait()
				vm.Close()
				return allocs
			}

			rec := startVM(t, Config{ID: 110, Mode: ids.Record, OrderMode: order})
			program(rec, func(*Thread) {})
			rep := startVM(t, Config{ID: 110, Mode: ids.Replay, OrderMode: order, ReplayLogs: rec.Logs()})
			var longest ids.GCount
			allocs := program(rep, func(main *Thread) {
				c := main.run
				stretch := c.pos - c.from
				longest = max(longest, stretch)
				if n := main.pendingN + uint32(stretch); n >= publishBatch {
					t.Fatalf("at %v: %d events counted locally and %d in the stretch: past the batch bound %d", c.s.id().At(c.pos), main.pendingN, stretch, publishBatch)
				}
				if c.pos < c.stop && c.stop > c.last {
					t.Fatalf("at %v: stretch armed up to %d, past the run's Last %d", c.s.id().At(c.pos), c.stop, c.last)
				}
				s := rep.Metrics().Snapshot()
				if s.Events.Total() > s.TotalEvents {
					t.Fatalf("at %v: per-kind sum %d ahead of total %d", c.s.id().At(c.pos), s.Events.Total(), s.TotalEvents)
				}
			})
			if longest < 4 {
				t.Errorf("longest stretch %d events: the run was not replayed in place", longest)
			}
			if allocs != 0 {
				t.Errorf("in-place loop: %v allocations per %d rounds of events", allocs, publishBatch)
			}
			r, p := rec.Metrics().Snapshot(), rep.Metrics().Snapshot()
			if p.Events != r.Events || p.Shard.FastPath != r.Shard.FastPath || p.Shard.Contended != r.Shard.Contended || p.TotalEvents != r.TotalEvents {
				t.Errorf("replay counted %+v, shard %d fast %d contended, total %d; recording %+v, %d, %d, %d",
					p.Events, p.Shard.FastPath, p.Shard.Contended, p.TotalEvents, r.Events, r.Shard.FastPath, r.Shard.Contended, r.TotalEvents)
			}
			if order == ids.OrderSharded && r.Shard.FastPath == 0 {
				t.Error("no event on the object's stream")
			}
		})
	}
}
