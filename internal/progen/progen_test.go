package progen

import (
	"reflect"
	"testing"

	"repro/internal/ids"
)

// Generation is a pure function of (seed, opts).
func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		a := Generate(seed, Opts{})
		b := Generate(seed, Opts{})
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: non-deterministic generation", seed)
		}
	}
}

// Structural invariants the explorer depends on, across many seeds.
func TestGenerateInvariants(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		p := Generate(seed, Opts{})
		if len(p.Workers) < 2 {
			t.Fatalf("seed %d: %d workers", seed, len(p.Workers))
		}
		for k, ch := range p.Channels {
			if ch.Sender >= ch.Receiver {
				t.Fatalf("seed %d chan %d: sender %d >= receiver %d (deadlock risk)", seed, k, ch.Sender, ch.Receiver)
			}
			sends, recvs := 0, 0
			for w, ops := range p.Workers {
				for _, op := range ops {
					if op.Kind == OpSend && op.Chan == k {
						sends++
						if w != ch.Sender {
							t.Fatalf("seed %d chan %d: send in worker %d, want %d", seed, k, w, ch.Sender)
						}
					}
					if op.Kind == OpRecv && op.Chan == k {
						recvs++
						if w != ch.Receiver {
							t.Fatalf("seed %d chan %d: recv in worker %d, want %d", seed, k, w, ch.Receiver)
						}
					}
				}
			}
			if sends != 1 || recvs != 1 {
				t.Fatalf("seed %d chan %d: %d sends, %d recvs", seed, k, sends, recvs)
			}
		}
		for w, ops := range p.Workers {
			for _, op := range ops {
				if op.Kind == OpRacy {
					t.Fatalf("seed %d worker %d: OpRacy without PlantBug", seed, w)
				}
				if op.Var >= p.NumVars || op.Mon >= p.NumMons {
					t.Fatalf("seed %d worker %d: op %+v out of range", seed, w, op)
				}
			}
		}
	}
}

// The atom expansion mirrors the op lists exactly.
func TestAtomsMatchOps(t *testing.T) {
	p := Generate(7, Opts{})
	atoms := p.Atoms()
	if len(atoms) != len(p.Workers)+1 {
		t.Fatalf("atoms for %d threads, want %d", len(atoms), len(p.Workers)+1)
	}
	wantMain := 3*len(p.Channels) + 2*len(p.Workers)
	if len(atoms[0]) != wantMain {
		t.Fatalf("main atoms = %d, want %d", len(atoms[0]), wantMain)
	}
	for w, ops := range p.Workers {
		want := 0
		for _, op := range ops {
			switch op.Kind {
			case OpAdd, OpSend:
				want++
			case OpRecv, OpRacy:
				want += 2
			case OpLocked:
				want += 3
			}
		}
		if len(atoms[w+1]) != want {
			t.Fatalf("worker %d atoms = %d, want %d", w, len(atoms[w+1]), want)
		}
	}
}

// The per-stream event counts partition the total atom count in sharded
// mode, and global mode has one stream that holds every atom.
func TestEventCounts(t *testing.T) {
	p := Generate(3, Opts{})
	total := 0
	for _, atoms := range p.Atoms() {
		total += len(atoms)
	}
	if g := p.StreamEvents(ids.OrderGlobal); len(g) != 1 || g[0] != total {
		t.Fatalf("global-mode events = %v, want [%d]", g, total)
	}
	sharded := p.StreamEvents(ids.OrderSharded)
	if len(sharded) != 1+p.NumVars+p.NumMons {
		t.Fatalf("sharded: %d streams, want %d", len(sharded), 1+p.NumVars+p.NumMons)
	}
	sum := 0
	for _, n := range sharded {
		sum += n
	}
	if sum != total || sharded[0] == total {
		t.Fatalf("sharded: streams %v hold %d of %d events, the global one all of them", sharded, sum, total)
	}
}

// The planted fixture has the documented shape and a lost-update expectation.
func TestPlantedProgram(t *testing.T) {
	p := Generate(42, Opts{PlantBug: true})
	racy := 0
	for _, ops := range p.Workers {
		for _, op := range ops {
			if op.Kind == OpRacy {
				racy++
			}
		}
	}
	if racy != 1 {
		t.Fatalf("planted program has %d racy ops, want 1", racy)
	}
	want := []int64{2, 5}
	if got := p.Expected(); !reflect.DeepEqual(got, want) {
		t.Fatalf("expected state = %v, want %v", got, want)
	}
}

func TestExpectedIncludesDeposits(t *testing.T) {
	p := &Program{
		NumVars: 2,
		Channels: []Channel{
			{Sender: 0, Receiver: 1, Payload: 9, DepositVar: 1},
		},
		Workers: [][]Op{
			{{Kind: OpAdd, Var: 0, Delta: 4}, {Kind: OpSend, Chan: 0}},
			{{Kind: OpRecv, Chan: 0}},
		},
	}
	want := []int64{4, 9}
	if got := p.Expected(); !reflect.DeepEqual(got, want) {
		t.Fatalf("expected = %v, want %v", got, want)
	}
}
