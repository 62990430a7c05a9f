package kvapp

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/recline"
)

// memberCounts are the rows of the supervised-run tables: the lone primary
// and the three-member group run the same code.
var memberCounts = []int{1, 3}

// One full supervised chaos run: seeded faults, in-situ kills, coordinated
// epochs, supervisor detection, WAL repair, recovery-line solve, anchored
// restarts of the crashed members while survivors keep running, per-member
// plus cluster digest convergence, and a WAL kept bounded by truncation.
func TestSupervisedRun(t *testing.T) {
	for _, n := range memberCounts {
		n := n
		t.Run(fmt.Sprintf("members%d", n), func(t *testing.T) {
			res, err := RunSupervised(SupervisedConfig{Dir: t.TempDir(), Seed: 42, Members: n})
			if err != nil {
				t.Fatalf("RunSupervised: %v", err)
			}
			if res.Outcome == nil || !res.Outcome.Detected {
				t.Fatalf("supervisor never detected a kill (plan kills %d)", len(res.Plan.Kills))
			}
			if len(res.Members) != n {
				t.Fatalf("%d member results, want %d", len(res.Members), n)
			}
			if res.Epochs == 0 {
				t.Fatalf("no coordinated epochs completed")
			}
			if res.Line == nil {
				t.Fatalf("no recovery line solved")
			}
			if !res.OnLine {
				t.Fatalf("a killed member was not restarted from its line anchor: %+v", res.Members)
			}
			if !res.Converged {
				t.Fatalf("cluster divergence: recovered %x, baseline %x, members %+v",
					res.ClusterDigest, res.BaselineClusterDigest, res.Members)
			}
			kills, recoveries := len(res.Plan.Kills), 0
			for _, ep := range res.Outcome.Episodes {
				recoveries += len(ep.Recoveries)
				if ep.RecoverLatency <= 0 {
					t.Fatalf("episode %v: recovery not timed", ep.Crashed)
				}
			}
			if recoveries != kills {
				t.Fatalf("%d recoveries in the outcome, want one per killed member (%d)", recoveries, kills)
			}
			crashed := 0
			for _, m := range res.Members {
				if m.Killed != m.Crashed {
					t.Fatalf("member %s: killed=%v crashed=%v", m.Name, m.Killed, m.Crashed)
				}
				if m.Crashed {
					crashed++
				} else if m.Rounds == 0 {
					t.Fatalf("survivor %s completed no rounds", m.Name)
				}
				if len(m.TruncateErrs) > 0 {
					t.Fatalf("member %s: truncation failed: %v", m.Name, m.TruncateErrs)
				}
				if len(m.WALSizes) < 3 {
					t.Fatalf("member %s: %d truncation cycles, want >= 3", m.Name, len(m.WALSizes))
				}
				if lo, hi := m.SteadyWAL(); hi > 3*lo {
					t.Fatalf("member %s: steady-state WAL band [%d,%d] is not bounded", m.Name, lo, hi)
				}
			}
			if crashed != kills {
				t.Fatalf("crashed %d members, plan kills %d", crashed, kills)
			}
			if n == 1 && crashed != 1 {
				t.Fatalf("the lone member was not the victim")
			}
			if n > 1 && crashed >= n {
				t.Fatalf("no member survived (%d/%d crashed)", crashed, n)
			}
			// Every VM the run made, the restart and baseline replays too, is
			// closed by the time it returns, and so are the echo peers: no
			// stall watchdog, accept loop or echo reader outlives it, and no
			// thread of a member, the killed ones included.
			nothingOutlivesTheRun(t)
		})
	}
}

// nothingOutlivesTheRun fails unless, within a second, no goroutine runs a
// VM's stall watchdog (a closed VM's returns at its next wakeup), an echo
// peer's accept loop or reader, a member's workload or the chaos engine.
func nothingOutlivesTheRun(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(time.Second); ; time.Sleep(10 * time.Millisecond) {
		stacks := string(buf[:runtime.Stack(buf, true)])
		alive := false
		for _, frame := range []string{"core.(*VM).watchdog", "kvapp.startEchoPeer", "kvapp.runSupervisedWorkload", "repro/internal/chaos"} {
			alive = alive || strings.Contains(stacks, frame)
		}
		if !alive {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("a VM's stall watchdog, an echo peer, a member's thread or the chaos engine outlived the run:\n%s", stacks)
		}
	}
}

// The same seed must expand to the identical plan bytes and a converged
// outcome on a second run.
func TestSupervisedSeedReproducible(t *testing.T) {
	for _, n := range memberCounts {
		n := n
		t.Run(fmt.Sprintf("members%d", n), func(t *testing.T) {
			names := make([]string, n)
			for i := range names {
				names[i] = fmt.Sprintf("m%d", i+1)
			}
			opts := chaos.Options{Members: names, Hosts: []string{"p1", "p2"}, Horizon: 2000}
			p1, err := chaos.Generate(7, opts)
			if err != nil {
				t.Fatal(err)
			}
			p2, err := chaos.Generate(7, opts)
			if err != nil {
				t.Fatal(err)
			}
			if string(p1.Encode()) != string(p2.Encode()) {
				t.Fatalf("plan generation is not deterministic")
			}
			rt, err := chaos.DecodePlan(p1.Encode())
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if string(rt.Encode()) != string(p1.Encode()) {
				t.Fatalf("plan encode/decode does not round-trip")
			}

			for run := 0; run < 2; run++ {
				res, err := RunSupervised(SupervisedConfig{Dir: t.TempDir(), Seed: 7, Members: n})
				if err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				if !res.Converged {
					t.Fatalf("run %d did not converge: %+v", run, res.Members)
				}
				if string(res.Plan.Encode()) != string(p1.Encode()) {
					t.Fatalf("run %d executed a different plan than the seed generates", run)
				}
			}
		})
	}
}

// A two-kill plan: both victims recover from the same (or successive) lines
// while the remaining member finishes on its own.
func TestGroupTwoKills(t *testing.T) {
	plan, err := chaos.Generate(99, chaos.Options{
		Members: []string{"m1", "m2", "m3"}, Hosts: []string{"p1", "p2"},
		Horizon: 2000, Kills: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Kills) != 2 {
		t.Fatalf("plan kills %d members, want 2", len(plan.Kills))
	}
	res, err := RunSupervised(SupervisedConfig{Dir: t.TempDir(), Seed: 99, Plan: &plan})
	if err != nil {
		t.Fatalf("RunSupervised: %v", err)
	}
	if !res.Converged || !res.OnLine {
		t.Fatalf("two-kill run: converged=%v online=%v members %+v", res.Converged, res.OnLine, res.Members)
	}
	recoveries := 0
	for _, ep := range res.Outcome.Episodes {
		recoveries += len(ep.Recoveries)
	}
	if recoveries != 2 {
		t.Fatalf("recoveries = %d, want 2", recoveries)
	}
}

// A truncation that fails for any reason other than the expected
// not-enough-anchors of the first rounds must surface in the member's result,
// not vanish: here a directory squats on the compaction's temp-file name, so
// every rewrite fails while recording — and recovery — carry on.
func TestSupervisedRunSurfacesTruncateErrors(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "m1.wal.compact"), 0o755); err != nil {
		t.Fatal(err)
	}
	res, err := RunSupervised(SupervisedConfig{Dir: dir, Seed: 42, Members: 1})
	if err != nil {
		t.Fatalf("RunSupervised: %v", err)
	}
	m := res.Members[0]
	if len(m.TruncateErrs) == 0 {
		t.Fatalf("failed truncations were swallowed (rounds %d, truncations %d)", m.Rounds, len(m.WALSizes))
	}
	if len(m.WALSizes) != 0 {
		t.Fatalf("%d truncations reported success with the temp path blocked", len(m.WALSizes))
	}
	if !res.Converged {
		t.Fatalf("degraded durability must not break recovery: %+v", m)
	}
}

// The round loop is bounded by the member's own counter, read by its main
// thread between two of its events — inside a run whose turn a replaying
// thread holds, with the counter word behind its position. The loop must ask
// Thread.Clock: replayed against the counter the recording read after round j,
// it stops after round j, for every j. (A recording bounded by that counter
// would be this one's prefix.) Only the last look follows the last event its
// thread recorded, where even a lazily published word is exact; at every
// earlier one vm.Clock() would read less and go round again.
func TestRoundLoopBoundReplaysExactly(t *testing.T) {
	net := netsim.NewNetwork(netsim.Config{Seed: 7})
	for _, p := range []string{"p1", "p2"} {
		stop, err := startEchoPeer(net, p, echoPort)
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
	}
	rec, err := core.NewVM(core.Config{ID: 1, Mode: ids.Record, World: ids.OpenWorld})
	if err != nil {
		t.Fatal(err)
	}
	coord := recline.NewCoordinator(rec.ID())
	var after []ids.GCount // the counter the loop read after each round
	runSupervisedWorkload(rec, net, coord, "m1", map[string]string{}, 0, 150, func(int) { after = append(after, rec.Clock()) }, nil)
	rec.Wait()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if len(after) < 3 || after[len(after)-1] != rec.Clock() {
		t.Fatalf("recorded rounds ended at counters %v, the run at %d: not a bounded multi-round run", after, rec.Clock())
	}
	for j, bound := range after {
		rep, err := core.NewVM(core.Config{
			ID: 1, Mode: ids.Replay, World: ids.OpenWorld, ReplayLogs: rec.Logs(),
			StopAtLogEnd: true, StallTimeout: 10 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer rep.Close()
		rounds := 0
		runSupervisedWorkload(rep, netsim.NewNetwork(netsim.Config{}), coord, "replay", map[string]string{}, 0, bound, func(int) { rounds++ }, nil)
		rep.Wait()
		if rounds != j+1 || rep.Clock() != bound || rep.LogEndStops() != 0 {
			t.Errorf("bound %d (recorded after round %d): replay ran %d rounds to counter %d, %d threads stopped by the end of the log",
				bound, j, rounds, rep.Clock(), rep.LogEndStops())
		}
	}
}
