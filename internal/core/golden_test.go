package core

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/tracelog"
)

// Golden fixtures: log sets recorded by an earlier commit's recorder and
// committed under testdata/golden, each with the final state the recording run
// reached. The tests below replay them with today's engine, which is what
// "every existing log still replays" means for a change to the order engine.
//
// The committed fixtures were recorded at commit a374454 (the parent of the
// one-order-stream change), whose recorder kept one open interval per thread
// and flushed it lazily. Re-record with
//
//	go test ./internal/core/ -run TestGolden -update
//
// only from a checkout of the commit whose logs the fixtures should pin:
// re-recording with the engine under test makes the tests vacuous.
var updateGolden = flag.Bool("update", false, "re-record the golden log fixtures under testdata/golden")

const goldenDir = "testdata/golden"

// goldenGlobal: Notify, NotifyAll and a TimedWait that timed out, under the
// global order, with racy increments whose outcome depends on the schedule.
func goldenGlobal(vm *VM) string {
	var racy SharedInt
	var woke SharedVar[[]int]
	mon := NewMonitor()
	var timedOut bool
	vm.Start(func(main *Thread) {
		mon.Enter(main)
		timedOut = mon.TimedWait(main, 2*time.Millisecond) // nobody notifies: the timer wins
		mon.Exit(main)
		var workers []*Thread
		for i := 0; i < 3; i++ {
			i := i
			workers = append(workers, main.Spawn(func(th *Thread) {
				for j := 0; j < 20; j++ {
					racy.Set(th, racy.Get(th)+1)
				}
				mon.Enter(th)
				mon.Wait(th)
				woke.Update(th, func(o []int) []int { return append(o[:len(o):len(o)], i) })
				mon.Exit(th)
			}))
		}
		for waiterCount(mon) < 3 {
			runtime.Gosched()
		}
		mon.Enter(main)
		mon.Notify(main)
		mon.Exit(main)
		mon.Enter(main)
		mon.NotifyAll(main)
		mon.Exit(main)
		for _, w := range workers {
			main.Join(w)
		}
	})
	vm.Wait()
	vm.Close()
	return fmt.Sprintf("racy=%d woke=%v timedOut=%v", racy.Load(), woke.Load(), timedOut)
}

// goldenSharded: a registered monitor's wait/notify and two registered
// SharedInts under the sharded order; a's final value depends on the order of
// its non-commutative updates.
func goldenSharded(vm *VM) string {
	var a, b SharedInt
	mon := NewMonitor()
	mon.Register(vm)
	a.Register(vm)
	b.Register(vm)
	vm.Start(func(main *Thread) {
		var workers []*Thread
		for i := 0; i < 3; i++ {
			i := int64(i)
			workers = append(workers, main.Spawn(func(th *Thread) {
				for j := 0; j < 15; j++ {
					a.Set(th, a.Get(th)+1)
					b.Add(th, 1)
				}
				mon.Enter(th)
				mon.Wait(th)
				a.Set(th, a.Get(th)*2+i)
				mon.Exit(th)
			}))
		}
		for waiterCount(mon) < 3 {
			runtime.Gosched()
		}
		mon.Enter(main)
		mon.NotifyAll(main)
		mon.Exit(main)
		for _, w := range workers {
			main.Join(w)
		}
	})
	vm.Wait()
	vm.Close()
	return fmt.Sprintf("a=%d b=%d", a.Load(), b.Load())
}

// goldenSingle: one goroutine, so the schedule log is a function of the
// program alone and can be compared byte for byte across recorders.
func goldenSingle(vm *VM) string {
	var x SharedInt
	mon := NewMonitor()
	var timedOut bool
	vm.Start(func(main *Thread) {
		for i := 0; i < 50; i++ {
			x.Add(main, int64(i))
		}
		mon.Enter(main)
		mon.Notify(main)
		timedOut = mon.TimedWait(main, time.Millisecond)
		mon.Exit(main)
		x.Add(main, 1)
	})
	vm.Wait()
	vm.Close()
	return fmt.Sprintf("x=%d timedOut=%v", x.Load(), timedOut)
}

// goldenCrash is the WAL fixture's program: main parks in Join while three
// workers race, coordinating only through instrumented primitives so a replay
// of a torn prefix winds down under StopAtLogEnd. The observer trace hash pins
// the exact event order of the replayed prefix.
func goldenCrash(vm *VM, trace *[]string) string {
	var ordered, racy SharedInt
	mon := NewMonitor()
	vm.Start(func(main *Thread) {
		workers := make([]*Thread, 3)
		for w := range workers {
			workers[w] = main.Spawn(func(th *Thread) {
				for i := 0; i < 40; i++ {
					mon.Enter(th)
					ordered.Set(th, ordered.Get(th)+1)
					mon.Exit(th)
					racy.Set(th, racy.Get(th)+1)
				}
			})
		}
		for _, w := range workers {
			main.Join(w)
		}
	})
	vm.Wait()
	vm.Close()
	h := fnv.New64a()
	for _, ev := range *trace {
		h.Write([]byte(ev))
	}
	return fmt.Sprintf("events=%d ordered=%d racy=%d trace=%x", len(*trace), ordered.Load(), racy.Load(), h.Sum64())
}

var goldenSets = []struct {
	name string
	cfg  Config
	run  func(*VM) string
}{
	{"global", Config{ID: 81, RecordJitter: 2}, goldenGlobal},
	{"sharded", Config{ID: 82, RecordJitter: 2, OrderMode: ids.OrderSharded}, goldenSharded},
	{"single", Config{ID: 83}, goldenSingle},
}

// walNoteThreads scans a WAL image's intact frames and reports which threads
// have OpenInterval notes in it.
func walNoteThreads(t *testing.T, wal []byte) map[ids.ThreadNum]bool {
	t.Helper()
	out := map[ids.ThreadNum]bool{}
	for off := len(tracelog.WALMagic); off+9 <= len(wal); {
		n := int(binary.LittleEndian.Uint32(wal[off+1 : off+5]))
		if off+9+n > len(wal) {
			break
		}
		if wal[off] == 0 { // schedule log
			if err := tracelog.EachEntry(wal[off+9:off+9+n], func(e tracelog.Entry) error {
				if note, ok := e.(*tracelog.OpenInterval); ok {
					out[note.Thread] = true
				}
				return nil
			}); err != nil {
				t.Fatalf("WAL frame at %d: %v", off, err)
			}
		}
		off += 9 + n
	}
	return out
}

// replayCrash recovers the torn WAL and replays the repaired prefix to its end.
func replayCrash(t *testing.T, walPath string) string {
	t.Helper()
	logs, rep, err := tracelog.RecoverFile(walPath)
	if err != nil {
		t.Fatalf("RecoverFile: %v", err)
	}
	if rep.Clean || !rep.Truncated {
		t.Fatalf("fixture is not a torn mid-run WAL: %+v", rep)
	}
	var trace []string
	vm, err := NewVM(Config{
		ID: 84, Mode: ids.Replay, ReplayLogs: logs, StopAtLogEnd: true,
		StallTimeout: 10 * time.Second,
		EventObserver: func(tn ids.ThreadNum, gc ids.GCount) {
			trace = append(trace, fmt.Sprintf("t%d@%d", tn, gc))
		},
	})
	if err != nil {
		t.Fatalf("NewVM on the recovered set: %v", err)
	}
	state := goldenCrash(vm, &trace)
	if vm.LogEndStops() == 0 {
		t.Error("replay of a torn prefix reported no log-end stops")
	}
	if got := vm.Clock(); got != rep.FinalGC {
		t.Errorf("replay stopped at counter %d, repaired prefix is [0,%d)", got, rep.FinalGC)
	}
	return fmt.Sprintf("K=%d %s", rep.FinalGC, state)
}

// recordGolden writes every fixture; see updateGolden.
func recordGolden(t *testing.T) {
	for _, g := range goldenSets {
		dir := filepath.Join(goldenDir, g.name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		cfg := g.cfg
		cfg.Mode = ids.Record
		vm, err := NewVM(cfg)
		if err != nil {
			t.Fatal(err)
		}
		state := g.run(vm)
		if err := vm.Logs().Save(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "final.txt"), []byte(state+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	dir := filepath.Join(goldenDir, "torn")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	cutPath := filepath.Join(dir, "cut.wal")
	for attempt := 0; ; attempt++ {
		if attempt == 50 {
			t.Fatal("no recording put notes from three threads into the cut")
		}
		live := filepath.Join(t.TempDir(), "node.wal")
		vm, err := NewVM(Config{ID: 84, Mode: ids.Record, RecordJitter: 2})
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var snap []byte
		syncs := 0
		if err := vm.EnableWAL(live, tracelog.WALOptions{SyncEvery: 8, OnSync: func() {
			mu.Lock()
			defer mu.Unlock()
			if syncs++; syncs == 12 {
				if b, err := os.ReadFile(live); err == nil {
					snap = b // a failed read leaves snap empty and the attempt is retried
				}
			}
		}}); err != nil {
			t.Fatal(err)
		}
		var unused []string
		goldenCrash(vm, &unused)
		mu.Lock()
		cut := snap
		mu.Unlock()
		if len(cut) < 16 {
			continue
		}
		cut = cut[:len(cut)-3] // tear the last frame
		if len(walNoteThreads(t, cut)) < 3 {
			continue
		}
		if err := os.WriteFile(cutPath, cut, 0o644); err != nil {
			t.Fatal(err)
		}
		break
	}
	if err := os.WriteFile(filepath.Join(dir, "final.txt"), []byte(replayCrash(t, cutPath)+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

func goldenFinal(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(goldenDir, name, "final.txt"))
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimSpace(string(b))
}

// TestGoldenLogsReplay replays the committed parent-recorded sets and checks
// each reaches the final state its recording run reached.
func TestGoldenLogsReplay(t *testing.T) {
	if *updateGolden {
		recordGolden(t)
	}
	for _, g := range goldenSets {
		g := g
		t.Run(g.name, func(t *testing.T) {
			logs, err := tracelog.LoadSet(filepath.Join(goldenDir, g.name))
			if err != nil {
				t.Fatal(err)
			}
			idx, err := tracelog.BuildScheduleIndex(logs.Schedule)
			if err != nil {
				t.Fatal(err)
			}
			switch g.name {
			case "global":
				one, all, timedOut := false, false, false
				for _, woken := range idx.Streams[0].Notifies {
					one = one || len(woken) == 1
					all = all || len(woken) == 2
				}
				for _, tw := range idx.Streams[0].TimedWaits {
					timedOut = timedOut || (tw.Check && tw.TimedOut)
				}
				if !one || !all || !timedOut {
					t.Fatalf("fixture lacks a Notify (%v), a NotifyAll (%v) or a timed-out TimedWait (%v)", one, all, timedOut)
				}
			case "sharded":
				notifies := 0
				for _, s := range idx.Streams[1:] {
					notifies += len(s.Notifies)
				}
				if len(idx.Streams) != 4 || notifies == 0 {
					t.Fatalf("fixture has %d object streams with %d notifies, want 3 and > 0", len(idx.Streams)-1, notifies)
				}
			}
			cfg := g.cfg
			cfg.Mode, cfg.ReplayLogs, cfg.StallTimeout = ids.Replay, logs, 10*time.Second
			vm, err := NewVM(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := g.run(vm), goldenFinal(t, g.name); got != want {
				t.Errorf("replay reached %q, the recording %q", got, want)
			}
		})
	}
}

// TestGoldenTornWALReplays recovers the committed torn WAL — whose frames
// carry open-interval notes from three different threads, as the per-thread
// recorder wrote them — and replays it: the repaired prefix [0,K) and the
// state at its end must be the ones the recording commit's own recovery found.
func TestGoldenTornWALReplays(t *testing.T) {
	cutPath := filepath.Join(goldenDir, "torn", "cut.wal")
	wal, err := os.ReadFile(cutPath)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(walNoteThreads(t, wal)); n < 3 {
		t.Fatalf("fixture carries notes from %d threads, want at least 3", n)
	}
	if got, want := replayCrash(t, cutPath), goldenFinal(t, "torn"); got != want {
		t.Errorf("recovery + replay reached %q, the recording commit %q", got, want)
	}
}

// TestGoldenSingleThreadScheduleBytes: for a single-goroutine program the
// schedule log is determined by the program, so today's recorder must write
// the very bytes the fixture's recorder wrote.
func TestGoldenSingleThreadScheduleBytes(t *testing.T) {
	want, err := os.ReadFile(filepath.Join(goldenDir, "single", "schedule.log"))
	if err != nil {
		t.Fatal(err)
	}
	vm, err := NewVM(Config{ID: 83, Mode: ids.Record})
	if err != nil {
		t.Fatal(err)
	}
	goldenSingle(vm)
	if got := vm.Logs().Schedule.Bytes(); !bytes.Equal(got, want) {
		t.Errorf("schedule log is %d bytes, the fixture %d, or they differ in content", len(got), len(want))
	}
}
