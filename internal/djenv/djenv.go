// Package djenv extends DJVM record/replay to environmental
// nondeterminism: wall-clock reads and random-number draws. The paper's
// framework treats as a critical event anything "whose execution order can
// affect the execution behavior of the application" (§2.1); clock and
// randomness queries are nondeterministic *inputs* rather than orderings, so
// — like open-world network input (§5) — their record-phase values are
// logged in full and served back from the log during replay.
//
// A Source is bound to one DJVM. Each query is one critical event whose
// value is keyed by the thread's network-event numbering, giving replay the
// same lookup discipline the socket layers use.
package djenv

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/netevent"
	"repro/internal/obs"
	"repro/internal/tracelog"
)

// Source provides recorded/replayed environmental values for one DJVM.
type Source struct {
	vm *core.VM

	mu  sync.Mutex
	rng *rand.Rand
}

// New creates an environment source for vm. In record and passthrough modes
// clock reads use the real clock and random draws use a time-seeded
// generator; in replay mode every value comes from the log.
func New(vm *core.VM) *Source {
	return &Source{
		vm:  vm,
		rng: rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// Now returns the current wall-clock time in nanoseconds — the analog of
// System.currentTimeMillis. One critical event.
func (s *Source) Now(t *core.Thread) int64 {
	return s.query(t, "now", func() uint64 { return uint64(time.Now().UnixNano()) }, true)
}

// Uint64 returns a random value. One critical event.
func (s *Source) Uint64(t *core.Thread) uint64 {
	return uint64(s.query(t, "rand", func() uint64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.rng.Uint64()
	}, false))
}

// Intn returns a uniform value in [0, n). One critical event.
func (s *Source) Intn(t *core.Thread, n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("djenv: Intn(%d)", n))
	}
	return int(s.Uint64(t) % uint64(n))
}

// query executes one environment critical event: a network event whose value,
// like open-world input, replay serves from the log. signed only affects the
// caller's interpretation; values travel as uint64. There is no error to
// return a divergence in, so it is thrown.
func (s *Source) query(t *core.Thread, op string, sample func() uint64, signed bool) int64 {
	vm := s.vm
	if vm.Mode() == ids.Passthrough {
		return int64(sample())
	}
	ev := netevent.Begin(t, obs.KindEnv, op)
	var (
		out uint64
		err error
	)
	if ev.Recording() {
		err = ev.Record(nil, func(ids.GCount) error {
			out = sample()
			vm.Logs().Network.Append(&tracelog.EnvEntry{EventID: ev.ID, Op: op, Value: out})
			return nil
		})
	} else {
		entry, ok := vm.NetworkIndex().Envs.Get(ev.ID)
		if ok && entry.Op != op {
			err = fmt.Errorf("environment event %v recorded as %q, replayed as %q", ev.ID, entry.Op, op)
		} else {
			out, err = entry.Value, ev.Replay(ok, true, nil, nil)
		}
	}
	if err != nil {
		panic(&core.DivergenceError{VM: vm.ID(), Thread: t.Num(), Msg: err.Error()})
	}
	return int64(out)
}
