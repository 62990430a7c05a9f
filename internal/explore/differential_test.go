package explore

import (
	"hash/fnv"
	"testing"

	"repro/internal/core"
	"repro/internal/djsock"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/progen"
)

// recordFinalsDigest records one generated program under the given order mode
// and digests its final shared-variable state.
func recordFinalsDigest(t *testing.T, p *progen.Program, mode ids.OrderMode) uint64 {
	t.Helper()
	net := netsim.NewNetwork(netsim.Config{Seed: p.Seed})
	vm, err := core.NewVM(core.Config{
		ID:        1,
		Mode:      ids.Record,
		World:     ids.ClosedWorld,
		OrderMode: mode,
	})
	if err != nil {
		t.Fatalf("seed %d (%v): %v", p.Seed, mode, err)
	}
	run := progen.NewRun(p, vm)
	env := djsock.NewEnv(vm, net, "prog")
	vm.Start(run.Main(env))
	vm.Wait()
	vm.Close()
	h := fnv.New64a()
	for _, v := range run.Finals() {
		var b [8]byte
		for i := 0; i < 8; i++ {
			b[i] = byte(uint64(v) >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// Cross-mode differential: the order mode is a recording
// mechanism, not a semantics change. The same generated program recorded
// under OrderGlobal and OrderSharded must reach the identical final state
// (and hence identical digests), across 25 seeds. Generated programs are
// confluent (no races unless planted), so this holds for every legal
// interleaving either mode happens to record.
func TestExploreCrossModeDifferential(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		p := progen.Generate(seed, progen.Opts{})
		dg := recordFinalsDigest(t, p, ids.OrderGlobal)
		ds := recordFinalsDigest(t, p, ids.OrderSharded)
		if dg != ds {
			t.Errorf("seed %d: final-state digest %x under global, %x under sharded", seed, dg, ds)
		}
	}
}
