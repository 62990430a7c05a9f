// Package progen generates closed, multi-threaded workloads for the
// schedule-space explorer (internal/explore). A generated Program is a small
// concurrent application over the DJVM runtime primitives — SharedInt
// variables, Monitors, and 1-byte message channels built from djsock loopback
// streams — chosen so that its final state is computable by a sequential
// model: every operation either commutes with every interleaving (Add,
// monitor-locked add, channel deposit) or is the paper's deliberately racy
// get-then-set idiom (§6), planted only on request to give the explorer a
// known schedule-dependent bug to find.
//
// The crucial property is that a Program's dynamic behaviour is *statically
// known*: Atoms() expands each thread's operations into the exact sequence of
// runtime critical events the thread will execute, with their blocking
// semantics and (in sharded mode) object attribution. That is what lets the
// explorer synthesize alternative legal schedules from scratch instead of
// mutating a recording blindly: it simulates the atom lists under a
// scheduling policy and knows precisely which critical event each slot
// corresponds to.
package progen

import (
	"math/rand"

	"repro/internal/ids"
)

// OpKind enumerates worker operations.
type OpKind uint8

const (
	// OpAdd atomically adds Delta to var Var: one critical event, commutes
	// with everything.
	OpAdd OpKind = iota
	// OpLocked adds Delta to var Var under monitor Mon: enter + add + exit,
	// three critical events.
	OpLocked
	// OpSend writes the channel's 1-byte payload: one critical event.
	OpSend
	// OpRecv reads the channel's byte (blocking) and deposits it into the
	// channel's DepositVar: two critical events.
	OpRecv
	// OpRacy is the paper's racy update idiom — v.Set(t, v.Get(t)+Delta) —
	// two critical events with a window in between: an interleaved write to
	// the same var is lost. Generated only by PlantBug.
	OpRacy
)

// Op is one worker operation.
type Op struct {
	Kind  OpKind
	Var   int // variable rank (OpAdd, OpLocked, OpRacy)
	Mon   int // monitor rank (OpLocked)
	Chan  int // channel index (OpSend, OpRecv)
	Delta int64
}

// Channel is a 1-byte message channel from worker Sender to worker Receiver,
// realized as a djsock loopback connection set up by the main thread.
// Sender < Receiver always holds, which makes the channel wait-for graph
// acyclic regardless of where the send and receive land in the op lists.
type Channel struct {
	Sender     int
	Receiver   int
	Port       uint16
	Payload    byte
	DepositVar int
}

// Program is a generated workload: len(Workers) worker threads spawned by a
// main thread, sharing NumVars variables and NumMons monitors, connected by
// Channels. Thread numbering is fixed: main is thread 0, worker w is thread
// w+1 (spawn order).
type Program struct {
	Seed     int64
	NumVars  int
	NumMons  int
	Channels []Channel
	Workers  [][]Op
}

// Opts selects what Generate builds.
type Opts struct {
	// PlantBug replaces generation with a fixed small program containing one
	// OpRacy pair racing a plain OpAdd on the same variable — the known
	// schedule-dependent bug the explorer and shrinker tests hunt.
	PlantBug bool
}

// The bounds of a generated program.
const (
	maxWorkers = 3 // worker threads, at least 2
	maxOps     = 3 // base ops per worker
	maxVars    = 3 // shared variables
	maxMons    = 2 // monitors
	maxChans   = 2 // channels
)

// Generate produces the program for seed deterministically: the same seed and
// opts always yield the identical Program, on any machine.
func Generate(seed int64, opts Opts) *Program {
	if opts.PlantBug {
		return plantedProgram(seed)
	}
	rng := rand.New(rand.NewSource(seed))
	nw := 2 + rng.Intn(maxWorkers-1)
	nv := 1 + rng.Intn(maxVars)
	nm := 1 + rng.Intn(maxMons)
	p := &Program{Seed: seed, NumVars: nv, NumMons: nm, Workers: make([][]Op, nw)}
	for w := range p.Workers {
		n := 1 + rng.Intn(maxOps)
		for i := 0; i < n; i++ {
			delta := 1 + int64(rng.Intn(5))
			if rng.Intn(2) == 0 {
				p.Workers[w] = append(p.Workers[w], Op{Kind: OpAdd, Var: rng.Intn(nv), Delta: delta})
			} else {
				p.Workers[w] = append(p.Workers[w], Op{Kind: OpLocked, Mon: rng.Intn(nm), Var: rng.Intn(nv), Delta: delta})
			}
		}
	}
	nch := rng.Intn(maxChans + 1)
	for k := 0; k < nch; k++ {
		s := rng.Intn(nw - 1)
		r := s + 1 + rng.Intn(nw-s-1)
		p.Channels = append(p.Channels, Channel{
			Sender:     s,
			Receiver:   r,
			Port:       uint16(7100 + k),
			Payload:    byte(1 + k),
			DepositVar: rng.Intn(nv),
		})
		p.Workers[s] = insertOp(rng, p.Workers[s], Op{Kind: OpSend, Chan: k})
		p.Workers[r] = insertOp(rng, p.Workers[r], Op{Kind: OpRecv, Chan: k})
	}
	return p
}

// insertOp places op at a random position in ops.
func insertOp(rng *rand.Rand, ops []Op, op Op) []Op {
	i := rng.Intn(len(ops) + 1)
	ops = append(ops, Op{})
	copy(ops[i+1:], ops[i:])
	ops[i] = op
	return ops
}

// plantedProgram is the fixed known-bug fixture: worker 0's racy get-then-set
// on var 0 races worker 1's Add to the same var. Any schedule that interleaves
// the Add between the get and the set loses it: var 0 ends at 1 instead of 2.
// The OpAdds on var 1 are commutative noise that gives the shrinker something
// to strip.
func plantedProgram(seed int64) *Program {
	return &Program{
		Seed:    seed,
		NumVars: 2,
		Workers: [][]Op{
			{{Kind: OpAdd, Var: 1, Delta: 2}, {Kind: OpRacy, Var: 0, Delta: 1}},
			{{Kind: OpAdd, Var: 0, Delta: 1}, {Kind: OpAdd, Var: 1, Delta: 3}},
		},
	}
}

// Expected computes the model final state: the value each variable must hold
// after any legal schedule in which every OpRacy pair executes without an
// interleaved write to its variable. All other operations commute, so this is
// simply the sum of deltas plus channel deposits.
func (p *Program) Expected() []int64 {
	out := make([]int64, p.NumVars)
	for _, ops := range p.Workers {
		for _, op := range ops {
			switch op.Kind {
			case OpAdd, OpLocked, OpRacy:
				out[op.Var] += op.Delta
			}
		}
	}
	for _, ch := range p.Channels {
		out[ch.DepositVar] += int64(ch.Payload)
	}
	return out
}

// AtomKind enumerates the critical-event types a program's threads execute.
type AtomKind uint8

const (
	// AtomSpawn: main spawns worker Arg. Global critical event; enables the
	// worker's atoms.
	AtomSpawn AtomKind = iota
	// AtomJoin: main joins worker Arg. Global blocking event, legal only
	// after the worker's last atom.
	AtomJoin
	// AtomListen: main binds channel Arg's listener. Global critical event.
	AtomListen
	// AtomConnect: main connects channel Arg. Global blocking event; legal
	// after the listen (same thread, so program order suffices).
	AtomConnect
	// AtomAccept: main accepts channel Arg. Global blocking event; legal
	// after the connect (same thread).
	AtomAccept
	// AtomWrite: the sender writes channel Arg's payload byte. Global
	// critical event.
	AtomWrite
	// AtomRead: the receiver reads channel Arg's byte. Global blocking
	// event, legal only after the channel's AtomWrite.
	AtomRead
	// AtomVar: one access (get, set, or add) to variable Arg. Object event
	// in sharded mode.
	AtomVar
	// AtomMonEnter: blocking acquisition of monitor Arg, legal only while
	// the monitor is free. Object event in sharded mode.
	AtomMonEnter
	// AtomMonExit: release of monitor Arg. Object event in sharded mode.
	AtomMonExit
)

// Atom is one critical event in a thread's statically-known event sequence.
// Arg's meaning depends on Kind: worker index (spawn/join), channel index
// (listen/connect/accept/write/read), variable rank (var), or monitor rank
// (enter/exit).
type Atom struct {
	Kind AtomKind
	Arg  int
}

// Blocking reports whether the atom is a blocking event (replay awaits its
// turn before executing the operation) as opposed to a non-blocking critical
// event. Schedule legality does not depend on this — both disciplines require
// causal predecessors at earlier slots — but observers and diagnostics do.
func (a Atom) Blocking() bool {
	switch a.Kind {
	case AtomJoin, AtomConnect, AtomAccept, AtomRead, AtomMonEnter:
		return true
	}
	return false
}

// Atoms expands the program into per-thread critical-event sequences:
// Atoms()[0] is the main thread (channel setup, spawns, joins), Atoms()[w+1]
// is worker w. This is the static mirror of exactly what Run executes — the
// two are generated from the same op lists and must never drift.
func (p *Program) Atoms() [][]Atom {
	atoms := make([][]Atom, len(p.Workers)+1)
	var main []Atom
	for k := range p.Channels {
		main = append(main,
			Atom{Kind: AtomListen, Arg: k},
			Atom{Kind: AtomConnect, Arg: k},
			Atom{Kind: AtomAccept, Arg: k})
	}
	for w := range p.Workers {
		main = append(main, Atom{Kind: AtomSpawn, Arg: w})
	}
	for w := range p.Workers {
		main = append(main, Atom{Kind: AtomJoin, Arg: w})
	}
	atoms[0] = main
	for w, ops := range p.Workers {
		var out []Atom
		for _, op := range ops {
			switch op.Kind {
			case OpAdd:
				out = append(out, Atom{Kind: AtomVar, Arg: op.Var})
			case OpLocked:
				out = append(out,
					Atom{Kind: AtomMonEnter, Arg: op.Mon},
					Atom{Kind: AtomVar, Arg: op.Var},
					Atom{Kind: AtomMonExit, Arg: op.Mon})
			case OpRacy:
				out = append(out, Atom{Kind: AtomVar, Arg: op.Var}, Atom{Kind: AtomVar, Arg: op.Var})
			case OpSend:
				out = append(out, Atom{Kind: AtomWrite, Arg: op.Chan})
			case OpRecv:
				out = append(out,
					Atom{Kind: AtomRead, Arg: op.Chan},
					Atom{Kind: AtomVar, Arg: p.Channels[op.Chan].DepositVar})
			}
		}
		atoms[w+1] = out
	}
	return atoms
}

// Stream reports the order stream an atom's event ticks under the given
// order mode, numbered as the VM numbers its streams: 0 is the global counter
// and, under OrderSharded, registered object k's accesses tick stream k+1.
// Run registers variables before monitors, each in rank order, so variable v
// is object v and monitor m is object NumVars+m — matching the VM's
// registration-rank identity rule. Atoms with no object (spawn, join,
// network) tick the global counter in both order modes.
func (p *Program) Stream(a Atom, mode ids.OrderMode) int {
	if mode != ids.OrderSharded {
		return 0
	}
	switch a.Kind {
	case AtomVar:
		return 1 + a.Arg
	case AtomMonEnter, AtomMonExit:
		return 1 + p.NumVars + a.Arg
	}
	return 0
}

// Streams reports how many order streams the program's VM has under the
// given mode.
func (p *Program) Streams(mode ids.OrderMode) int {
	if mode != ids.OrderSharded {
		return 1
	}
	return 1 + p.NumVars + p.NumMons
}

// StreamEvents counts the atoms that tick each order stream under the given
// mode, indexed by Stream: the counters a recording's streams must reach,
// which is the explorer's record/model alignment check.
func (p *Program) StreamEvents(mode ids.OrderMode) []int {
	out := make([]int, p.Streams(mode))
	for _, atoms := range p.Atoms() {
		for _, a := range atoms {
			out[p.Stream(a, mode)]++
		}
	}
	return out
}
