package explore

import (
	"fmt"

	"repro/internal/ids"
	"repro/internal/progen"
)

// This file is the constraint-aware list scheduler: it turns a progen
// program's static atom lists into total orders of critical events that are
// *legal by construction* — every event's causal predecessors occupy earlier
// slots, which is exactly the property the replay engine's await-before-op
// discipline requires of a schedule (a blocking event's operation runs only
// once its turn arrives, so anything it waits on must already have run).
//
// The simulation tracks just enough program state to know which threads can
// execute their next atom: spawn edges (a worker's atoms are enabled only
// after main's spawn), join edges (main's join is enabled only after the
// worker's last atom), monitor availability, and channel data (a read is
// enabled only after the channel's write). Everything else — variable
// accesses, listens, writes — is always enabled. Because channels point from
// lower to higher worker index and monitors are always released by their
// holder, the wait-for graph is acyclic and the simulation can never
// deadlock; a stuck simulation is a bug, reported as an error.

// Directive forces a scheduling decision: at slot Step of the total order,
// run Thread's next atom instead of the default policy's pick. A directive
// whose thread is not enabled at that step is silently skipped (this keeps
// shrinking total: removing one directive shifts downstream state, and the
// survivors must still mean something). The default policy — keep running the
// current thread while it can, else switch to the lowest-numbered enabled
// thread — mimics a non-preemptive scheduler, so each directive that takes
// effect while the current thread could have continued is one forced
// preemption.
type Directive struct {
	Step   int           `json:"step"`
	Thread ids.ThreadNum `json:"thread"`
}

// schedule is one simulated total order of a program's critical events.
type schedule struct {
	order   []ids.ThreadNum // thread executing each slot
	atoms   []progen.Atom   // the atom at each slot
	applied []Directive     // directives that actually took effect
	// alts lists, for each step, the alternative enabled threads not chosen —
	// the systematic depth-1 exploration frontier.
	alts        []Directive
	preemptions int
	hash        uint64
}

// sim is the program state the scheduler tracks.
type sim struct {
	atoms   [][]progen.Atom
	cursor  []int
	spawned []bool
	monHeld []bool
	sent    []bool
}

func newSim(p *progen.Program, atoms [][]progen.Atom) *sim {
	return &sim{
		atoms:   atoms,
		cursor:  make([]int, len(atoms)),
		spawned: make([]bool, len(p.Workers)),
		monHeld: make([]bool, p.NumMons),
		sent:    make([]bool, len(p.Channels)),
	}
}

// enabled reports whether thread th can execute its next atom now.
func (s *sim) enabled(th int) bool {
	if th > 0 && !s.spawned[th-1] {
		return false
	}
	c := s.cursor[th]
	if c >= len(s.atoms[th]) {
		return false
	}
	switch a := s.atoms[th][c]; a.Kind {
	case progen.AtomJoin:
		return s.cursor[a.Arg+1] >= len(s.atoms[a.Arg+1])
	case progen.AtomRead:
		return s.sent[a.Arg]
	case progen.AtomMonEnter:
		return !s.monHeld[a.Arg]
	}
	return true
}

// step executes thread th's next atom, updating the tracked state.
func (s *sim) step(th int) progen.Atom {
	a := s.atoms[th][s.cursor[th]]
	s.cursor[th]++
	switch a.Kind {
	case progen.AtomSpawn:
		s.spawned[a.Arg] = true
	case progen.AtomWrite:
		s.sent[a.Arg] = true
	case progen.AtomMonEnter:
		s.monHeld[a.Arg] = true
	case progen.AtomMonExit:
		s.monHeld[a.Arg] = false
	}
	return a
}

// simulate runs the program's atoms to completion under the default policy
// plus directives, producing the total order.
func simulate(p *progen.Program, atoms [][]progen.Atom, dirs []Directive) (*schedule, error) {
	s := newSim(p, atoms)
	total := 0
	for _, th := range atoms {
		total += len(th)
	}
	byStep := make(map[int]ids.ThreadNum, len(dirs))
	for _, d := range dirs {
		byStep[d.Step] = d.Thread
	}
	sch := &schedule{
		order: make([]ids.ThreadNum, 0, total),
		atoms: make([]progen.Atom, 0, total),
	}
	cur := 0 // main thread starts
	h := newHash()
	for step := 0; step < total; step++ {
		choice := -1
		if th, ok := byStep[step]; ok && int(th) < len(atoms) && s.enabled(int(th)) {
			choice = int(th)
			sch.applied = append(sch.applied, Directive{Step: step, Thread: th})
		}
		if choice == -1 {
			if s.enabled(cur) {
				choice = cur
			} else {
				for th := range atoms {
					if s.enabled(th) {
						choice = th
						break
					}
				}
			}
		}
		if choice == -1 {
			return nil, fmt.Errorf("explore: simulation stuck at step %d/%d (scheduler bug)", step, total)
		}
		for th := range atoms {
			if th != choice && s.enabled(th) {
				sch.alts = append(sch.alts, Directive{Step: step, Thread: ids.ThreadNum(th)})
			}
		}
		if choice != cur && s.enabled(cur) {
			sch.preemptions++
		}
		a := s.step(choice)
		sch.order = append(sch.order, ids.ThreadNum(choice))
		sch.atoms = append(sch.atoms, a)
		h.u64(uint64(choice))
		cur = choice
	}
	sch.hash = h.sum()
	return sch, nil
}

// project splits the total order into one order per order stream, indexed
// as the VM numbers its streams (progen.Program.Stream): in global mode every
// atom ticks the global counter; in sharded mode a registered object's
// accesses tick only its own.
func project(p *progen.Program, sch *schedule, mode ids.OrderMode) [][]ids.ThreadNum {
	orders := make([][]ids.ThreadNum, p.Streams(mode))
	for i, a := range sch.atoms {
		s := p.Stream(a, mode)
		orders[s] = append(orders[s], sch.order[i])
	}
	return orders
}

// hash64 is FNV-1a, hand-rolled to avoid per-schedule allocations.
type hash64 uint64

func newHash() *hash64 { h := hash64(14695981039346656037); return &h }

func (h *hash64) u64(v uint64) {
	x := uint64(*h)
	for i := 0; i < 8; i++ {
		x ^= v & 0xff
		x *= 1099511628211
		v >>= 8
	}
	*h = hash64(x)
}

func (h *hash64) sum() uint64 { return uint64(*h) }
