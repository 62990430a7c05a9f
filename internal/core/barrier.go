package core

// Barrier is a cyclic barrier for a fixed number of parties, built entirely
// from the replayable primitives (a Monitor plus shared variables), so
// barrier crossings — including which thread trips each generation — replay
// deterministically like any other synchronization.
type Barrier struct {
	mon     *Monitor
	parties int64
	count   SharedInt
	gen     SharedInt
}

// NewBarrier creates a barrier for the given number of parties.
func NewBarrier(parties int) *Barrier {
	if parties <= 0 {
		panic("core: barrier needs at least one party")
	}
	return &Barrier{mon: NewMonitor(), parties: int64(parties)}
}

// Await blocks until all parties have arrived at the barrier, then releases
// them together and resets for the next generation. It returns true on the
// thread that tripped the barrier (the last arriver), mirroring
// CyclicBarrier's distinguished party.
func (b *Barrier) Await(t *Thread) (tripped bool) {
	b.mon.Enter(t)
	g := b.gen.Get(t)
	arrived := b.count.Add(t, 1)
	if arrived == b.parties {
		b.count.Set(t, 0)
		b.gen.Add(t, 1)
		b.mon.NotifyAll(t)
		tripped = true
	} else {
		for b.gen.Get(t) == g {
			b.mon.Wait(t)
		}
	}
	b.mon.Exit(t)
	return tripped
}
