package explore

import (
	"reflect"
	"testing"

	"repro/internal/ids"
)

// Exploring a handful of generated programs in global mode: every synthesized
// schedule must replay deterministically and reach the model state (generated
// programs are confluent — no racy ops — so any finding is an engine bug).
func TestExploreGlobalClean(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		res, err := Run(Options{Seed: seed, OrderMode: ids.OrderGlobal, Budget: 8})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(res.Findings) != 0 {
			t.Fatalf("seed %d: unexpected findings: %v", seed, res.Findings)
		}
		if res.Schedules < 2 {
			t.Fatalf("seed %d: only %d schedules explored", seed, res.Schedules)
		}
	}
}

// Same under sharded object order.
func TestExploreShardedClean(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		res, err := Run(Options{Seed: seed, OrderMode: ids.OrderSharded, Budget: 8})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(res.Findings) != 0 {
			t.Fatalf("seed %d: unexpected findings: %v", seed, res.Findings)
		}
		if res.Schedules < 2 {
			t.Fatalf("seed %d: only %d schedules explored", seed, res.Schedules)
		}
	}
}

// The planted racy program must be caught by the systematic depth-1 frontier
// in both order modes: some single forced preemption splits the get/set pair
// around the competing add and the final state misses an update.
func TestExploreFindsPlantedBug(t *testing.T) {
	for _, mode := range []ids.OrderMode{ids.OrderGlobal, ids.OrderSharded} {
		res, err := Run(Options{
			Seed:      42,
			Prog:      progOptsPlanted(),
			OrderMode: mode,
			Budget:    30,
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		found := false
		for _, f := range res.Findings {
			if f.Kind == FindingState {
				found = true
				if len(f.Directives) == 0 {
					t.Fatalf("%v: state finding with no directives: %v", mode, f)
				}
			}
			if f.Kind == FindingReplay || f.Kind == FindingLogcheck {
				t.Fatalf("%v: engine-level finding on planted program: %v", mode, f)
			}
		}
		if !found {
			t.Fatalf("%v: planted racy bug not found in %d schedules", mode, res.Schedules)
		}
	}
}

// Exploration is deterministic: the same options give the identical result.
func TestExploreDeterministic(t *testing.T) {
	run := func() *Result {
		res, err := Run(Options{Seed: 3, OrderMode: ids.OrderGlobal, Budget: 10})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("non-deterministic exploration:\n%+v\n%+v", a, b)
	}
}

// The result's counters reflect the work done: each distinct schedule is
// counted once, in the preemption histogram too, and no more schedules than
// directive lists tried.
func TestExploreStats(t *testing.T) {
	res, err := Run(Options{Seed: 1, OrderMode: ids.OrderGlobal, Budget: 5})
	if err != nil {
		t.Fatal(err)
	}
	hist := 0
	for _, n := range res.Preemptions {
		hist += n
	}
	if res.Schedules == 0 || hist != res.Schedules {
		t.Fatalf("%d schedules, %d in the preemption histogram", res.Schedules, hist)
	}
	if res.Attempts < res.Schedules {
		t.Fatalf("attempts %d < schedules %d", res.Attempts, res.Schedules)
	}
}

// A small cross-seed campaign aggregates cleanly in both order modes.
func TestCampaign(t *testing.T) {
	for _, mode := range []ids.OrderMode{ids.OrderGlobal, ids.OrderSharded} {
		res, err := Campaign(Options{Seed: 0, OrderMode: mode, Budget: 4}, 5)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.Seeds != 5 || res.Schedules < 10 {
			t.Fatalf("%v: campaign: %+v", mode, res)
		}
		if len(res.Findings) != 0 {
			t.Fatalf("%v: campaign findings on clean programs: %v", mode, res.Findings)
		}
	}
}
