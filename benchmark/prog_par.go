package main

import (
	"repro/internal/core"
	"repro/internal/ids"
)

// par-global and par-sharded: one VM, as many threads as GOMAXPROCS, each
// incrementing (get, then set) its own registered SharedInt. Threads share no
// object, so whatever they contend on belongs to the order engine.

type parParams struct {
	order   ids.OrderMode
	threads int
	incs    int // get+set increments per thread
}

// paddedInt keeps each thread's object on its own cache line. Packed in one
// slice the objects share lines, and at GOMAXPROCS=2 the passthrough run of
// this program takes 190-275 ms against 25-35 ms padded: that would measure
// false sharing in the driver, not the order engine.
type paddedInt struct {
	v core.SharedInt
	_ [128 - 16]byte
}

func buildParGlobal(scale float64, _ int64) *program  { return parProgram(ids.OrderGlobal, scale) }
func buildParSharded(scale float64, _ int64) *program { return parProgram(ids.OrderSharded, scale) }

func parProgram(order ids.OrderMode, scale float64) *program {
	p := parParams{order: order, threads: parProcs(), incs: scaled(2000000, scale, 100)}
	return &program{
		specs: []vmSpec{{name: "vm", id: 33, djvm: true, order: order}},
		start: func(e *phaseEnv) func() outcome { return p.start(e) },
	}
}

func (p parParams) start(e *phaseEnv) func() outcome {
	vm := e.vms["vm"]
	vars := make([]paddedInt, p.threads)
	for i := range vars {
		vars[i].v.Register(vm)
	}
	vm.Start(e.thread("vm", "main", func(main *core.Thread, tt *threadTrace) {
		workers := make([]*core.Thread, p.threads)
		for i := range workers {
			v := &vars[i].v
			workers[i] = main.Spawn(e.thread("vm", "worker", func(t *core.Thread, tt *threadTrace) {
				for n := 0; n < p.incs; n++ {
					s := tt.hot(spShared)
					x := v.Get(t)
					tt.hotEnd(s)
					s = tt.hot(spShared)
					v.Set(t, x+1)
					tt.hotEnd(s)
				}
			}))
		}
		for _, w := range workers {
			main.Join(w)
		}
	}))
	return func() outcome {
		finals := make([]uint64, p.threads)
		for i := range vars {
			finals[i] = uint64(vars[i].v.Load())
		}
		return outcome{"vm": finals}
	}
}
