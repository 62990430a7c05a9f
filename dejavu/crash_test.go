package dejavu_test

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/dejavu"
)

// crashShape is a randomly generated single-node workload: worker threads
// hammering a monitor-guarded counter plus a racy one, so the recorded
// schedule interleaves heavily and a truncation point can land anywhere.
type crashShape struct {
	workers int
	iters   int
}

func crashShapeFromSeed(seed int64) crashShape {
	rng := rand.New(rand.NewSource(seed))
	return crashShape{workers: 2 + rng.Intn(3), iters: 8 + rng.Intn(10)}
}

// crashNode builds a node for the crash workload whose EventObserver appends
// each critical event's (thread, counter) pair to *trace.
func crashNode(t *testing.T, cfg dejavu.Config, trace *[]string) *dejavu.Node {
	t.Helper()
	cfg.EventObserver = func(tn dejavu.ThreadNum, gc dejavu.GCount) {
		*trace = append(*trace, fmt.Sprintf("t%d@%d", tn, gc))
	}
	cfg.Network = dejavu.NewNetwork(dejavu.NetworkConfig{Seed: 1})
	cfg.Host = "crashnode"
	cfg.World = dejavu.ClosedWorld
	cfg.ID = 81
	cfg.StallTimeout = 20 * time.Second
	node, err := dejavu.NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return node
}

// runCrashWorkload executes the shape on node and waits it out. The workload
// coordinates exclusively through instrumented primitives (Spawn, Join,
// Monitor, SharedInt) so that a replay of a truncated schedule winds down
// cleanly under StopAtLogEnd instead of parking on a raw channel.
func runCrashWorkload(s crashShape, node *dejavu.Node) {
	var ordered, racy dejavu.SharedInt
	mon := dejavu.NewMonitor()
	node.Start(func(main *dejavu.Thread) {
		children := make([]*dejavu.Thread, s.workers)
		for w := 0; w < s.workers; w++ {
			children[w] = main.Spawn(func(th *dejavu.Thread) {
				for i := 0; i < s.iters; i++ {
					mon.Enter(th)
					ordered.Set(th, ordered.Get(th)+1)
					mon.Exit(th)
					racy.Set(th, racy.Get(th)+1)
				}
			})
		}
		for _, c := range children {
			main.Join(c)
		}
	})
	node.Wait()
	node.Close()
}

// TestCrashRecoveryReplaysExactEventPrefix is the crash-safety property test:
// a node recording through a WAL is "killed" at an arbitrary byte offset (the
// durable file is cut mid-frame, exactly as a crash between write and fsync
// would leave it), Recover salvages the replayable prefix [0, K), and a
// replay of the recovered set with StopAtLogEnd observes exactly the first K
// critical events of the original run — same threads, same counters, same
// order.
func TestCrashRecoveryReplaysExactEventPrefix(t *testing.T) {
	for _, seed := range []int64{3, 17, 202} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			s := crashShapeFromSeed(seed)
			dir := t.TempDir()
			walPath := filepath.Join(dir, "node.wal")

			var recTrace []string
			recNode := crashNode(t, dejavu.Config{Mode: dejavu.Record, RecordJitter: 3}, &recTrace)
			if err := recNode.EnableWAL(walPath, dejavu.WALOptions{SyncEvery: 8}); err != nil {
				t.Fatal(err)
			}
			runCrashWorkload(s, recNode)
			fullGC := len(recTrace)
			if fullGC == 0 {
				t.Fatal("record phase observed no events")
			}

			data, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatal(err)
			}

			// Crash points: a handful of random offsets plus two anchored
			// ones — the intact file (a clean shutdown recovers and replays
			// in full) and a cut at 3/4 of the file, which must recover a
			// substantial prefix. The 3/4 floor is the regression guard for
			// the parked-thread hole: without open-interval durability notes,
			// main parked in Join never flushes the interval covering counter
			// 0 and every mid-run cut collapses to the vacuous prefix [0,0).
			rng := rand.New(rand.NewSource(seed * 7919))
			cut75 := len(data) * 3 / 4
			cuts := []int{len(data), cut75}
			for i := 0; i < 6; i++ {
				cuts = append(cuts, 9+rng.Intn(len(data)-9))
			}
			wantMin := map[int]int{len(data): fullGC, cut75: fullGC / 2}

			for _, cut := range cuts {
				cutPath := filepath.Join(dir, fmt.Sprintf("cut%d.wal", cut))
				if err := os.WriteFile(cutPath, data[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				logs, rep, err := dejavu.Recover(cutPath)
				if err != nil {
					if rep != nil && rep.Frames == 0 {
						continue // nothing salvaged, not even the identity header
					}
					t.Fatalf("cut=%d: Recover: %v", cut, err)
				}
				k := int(rep.FinalGC)
				if k > fullGC {
					t.Fatalf("cut=%d: recovered prefix %d exceeds recorded run of %d events", cut, k, fullGC)
				}
				if min, ok := wantMin[cut]; ok && k < min {
					t.Fatalf("cut=%d of %d bytes: recovered prefix [0,%d), want at least %d of %d events",
						cut, len(data), k, min, fullGC)
				}

				var repTrace []string
				repNode := crashNode(t, dejavu.Config{
					Mode: dejavu.Replay, ReplayLogs: logs, StopAtLogEnd: true,
				}, &repTrace)
				runCrashWorkload(s, repNode)

				if len(repTrace) != k {
					t.Fatalf("cut=%d: replay observed %d events, recovered prefix is [0,%d)",
						cut, len(repTrace), k)
				}
				for i := 0; i < k; i++ {
					if repTrace[i] != recTrace[i] {
						t.Fatalf("cut=%d: event %d: record %s, replay %s",
							cut, i, recTrace[i], repTrace[i])
					}
				}
				if k < fullGC && repNode.LogEndStops() == 0 {
					t.Errorf("cut=%d: truncated replay (prefix %d of %d) reported no log-end stops",
						cut, k, fullGC)
				}
				if k == fullGC && repNode.LogEndStops() != 0 {
					t.Errorf("cut=%d: full replay reported %d log-end stops",
						cut, repNode.LogEndStops())
				}
			}
		})
	}
}

// crashScenario is one recorded network program of the crash-point property
// test. prog runs the recording node's threads, appending to out one line per
// completed operation: what the application saw — data, or that it failed.
// peer, when set, is the passthrough side of an open world; it is there for
// the record phase only.
type crashScenario struct {
	world dejavu.World
	peer  func(node *dejavu.Node, ready chan<- struct{})
	prog  func(node *dejavu.Node, out *crashOut)
}

// crashOut collects a program's observations, each thread's in the order it
// made them.
type crashOut struct {
	mu    sync.Mutex
	lines map[dejavu.ThreadNum][]string
}

// saw notes one operation th completed. A failure is noted as such, without
// its text: replay re-throws it under the ReplayedError wrapping, which still
// answers errors.Is(err, ErrTimeout) for an expired deadline.
func (o *crashOut) saw(t *testing.T, th *dejavu.Thread, step string, data any, err error) {
	if errors.Is(err, dejavu.ErrDiverged) {
		t.Errorf("%s: a divergence reached the application: %v", step, err)
	}
	line := step + " failed"
	switch {
	case err == nil || err == io.EOF:
		line = fmt.Sprintf("%s %v %v", step, data, err)
	case errors.Is(err, dejavu.ErrTimeout):
		line = step + " timed out"
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.lines == nil {
		o.lines = make(map[dejavu.ThreadNum][]string)
	}
	o.lines[th.Num()] = append(o.lines[th.Num()], line)
}

// prefixOf reports whether every thread saw while replaying a prefix of what
// it saw while recording.
func (o *crashOut) prefixOf(rec *crashOut) bool {
	for th, lines := range o.lines {
		if all := rec.lines[th]; len(lines) > len(all) || !slices.Equal(lines, all[:len(lines)]) {
			return false
		}
	}
	return true
}

// openClientScenario: an open-world client of a passthrough echo server. Every
// operation's result is logged in full (§5), a refused connect and an expired
// read deadline included, and replay touches no network.
func openClientScenario(t *testing.T) crashScenario {
	return crashScenario{
		world: dejavu.OpenWorld,
		peer: func(node *dejavu.Node, ready chan<- struct{}) {
			node.Start(func(main *dejavu.Thread) {
				ss, err := node.Listen(main, 9000)
				if err != nil {
					panic(err)
				}
				close(ready)
				conn, err := ss.Accept(main)
				if err != nil {
					panic(err)
				}
				buf := make([]byte, 16)
				for {
					n, err := conn.Read(main, buf)
					if err != nil {
						break
					}
					conn.Write(main, buf[:n])
				}
				conn.Close(main)
				ss.Close(main)
			})
		},
		prog: func(node *dejavu.Node, out *crashOut) {
			node.Start(func(main *dejavu.Thread) {
				_, err := node.Connect(main, dejavu.Addr{Host: "echo", Port: 1})
				out.saw(t, main, "connect-refused", nil, err)
				conn, err := node.Connect(main, dejavu.Addr{Host: "echo", Port: 9000})
				out.saw(t, main, "connect", nil, err)
				if err != nil {
					return
				}
				out.saw(t, main, "now", node.Env().Now(main) != 0, nil)
				buf := make([]byte, 16)
				for i := 0; i < 3; i++ {
					_, err := conn.Write(main, []byte(fmt.Sprintf("ping-%d", i)))
					out.saw(t, main, "write", i, err)
					n, err := conn.Read(main, buf)
					out.saw(t, main, "read", string(buf[:n]), err)
				}
				n, err := conn.Available(main)
				out.saw(t, main, "available", n, err)
				_, err = conn.ReadTimeout(main, buf, time.Millisecond)
				out.saw(t, main, "read-expired", nil, err)
				out.saw(t, main, "closewrite", nil, conn.CloseWrite(main))
				n, err = conn.Read(main, buf)
				out.saw(t, main, "read-eof", n, err)
				out.saw(t, main, "close", nil, conn.Close(main))
			})
		},
	}
}

// closedPairScenario: a closed-world server and client, two threads of one
// node, so one WAL holds both ends and every cut of it is a consistent cut of
// the pair. Only byte counts and the connectionId are logged (§4.1.3); replay
// re-executes every operation below the crash point against the other thread.
func closedPairScenario(t *testing.T) crashScenario {
	return crashScenario{
		world: dejavu.ClosedWorld,
		prog: func(node *dejavu.Node, out *crashOut) {
			node.Start(func(main *dejavu.Thread) {
				ss, err := node.Listen(main, 7100)
				out.saw(t, main, "listen", nil, err)
				if err != nil {
					return
				}
				server := main.Spawn(func(th *dejavu.Thread) {
					conn, err := ss.Accept(th)
					out.saw(t, th, "accept", nil, err)
					if err != nil {
						return
					}
					buf := make([]byte, 4)
					for {
						n, err := conn.Read(th, buf)
						out.saw(t, th, "server-read", string(buf[:n]), err)
						if err != nil {
							break
						}
						_, err = conn.Write(th, buf[:n])
						out.saw(t, th, "server-write", nil, err)
					}
					out.saw(t, th, "server-close", nil, conn.Close(th))
				})
				client := main.Spawn(func(th *dejavu.Thread) {
					conn, err := node.Connect(th, dejavu.Addr{Host: "crashnode", Port: 7100})
					out.saw(t, th, "connect", nil, err)
					if err != nil {
						return
					}
					buf := make([]byte, 4)
					for i := 0; i < 3; i++ {
						_, err := conn.Write(th, []byte(fmt.Sprintf("m%d", i)))
						out.saw(t, th, "client-write", i, err)
						n, err := conn.Read(th, buf)
						out.saw(t, th, "client-read", string(buf[:n]), err)
					}
					out.saw(t, th, "closewrite", nil, conn.CloseWrite(th))
					n, err := conn.Read(th, buf)
					out.saw(t, th, "client-eof", n, err)
					out.saw(t, th, "client-close", nil, conn.Close(th))
				})
				main.Join(server)
				main.Join(client)
				out.saw(t, main, "listener-close", nil, ss.Close(main))
			})
		},
	}
}

// TestCrashPointIsALogEndForNetworkEvents is the crash-safety property of the
// network layers: a node recording through a WAL fsynced at every record is
// killed at every byte offset of the file, and the replay of what Recover
// salvages — with StopAtLogEnd — shows the application exactly the prefix of
// what it saw while recording. An event whose record did not survive the crash
// is where its thread stops, cleanly (LogEndStops); the application is never
// handed an error the record phase did not hand it, and least of all a
// divergence. The datagram layers' half is
// internal/djgram.TestCrashPointIsALogEndForDatagrams.
func TestCrashPointIsALogEndForNetworkEvents(t *testing.T) {
	for name, mk := range map[string]func(*testing.T) crashScenario{
		"open-client": openClientScenario,
		"closed-pair": closedPairScenario,
	} {
		t.Run(name, func(t *testing.T) {
			sc := mk(t)
			dir := t.TempDir()
			walPath := filepath.Join(dir, "node.wal")

			run := func(cfg dejavu.Config, record bool) (*dejavu.Node, *crashOut, []string) {
				var trace []string
				net := dejavu.NewNetwork(dejavu.NetworkConfig{Seed: 1})
				cfg.EventObserver = func(tn dejavu.ThreadNum, gc dejavu.GCount) {
					trace = append(trace, fmt.Sprintf("t%d@%d", tn, gc))
				}
				cfg.Network, cfg.Host, cfg.World, cfg.ID = net, "crashnode", sc.world, 82
				cfg.StallTimeout = 20 * time.Second
				node, err := dejavu.NewNode(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var peer *dejavu.Node
				if record {
					if err := node.EnableWAL(walPath, dejavu.WALOptions{SyncEvery: 1}); err != nil {
						t.Fatal(err)
					}
					if sc.peer != nil {
						peer, err = dejavu.NewNode(dejavu.Config{Mode: dejavu.Passthrough, Network: net, Host: "echo"})
						if err != nil {
							t.Fatal(err)
						}
						ready := make(chan struct{})
						sc.peer(peer, ready)
						<-ready
					}
				}
				var out crashOut
				sc.prog(node, &out)
				node.Wait()
				node.Close()
				if peer != nil {
					peer.Wait()
					peer.Close()
				}
				return node, &out, trace
			}

			_, recOut, recTrace := run(dejavu.Config{Mode: dejavu.Record}, true)
			if t.Failed() {
				t.FailNow()
			}
			data, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatal(err)
			}

			cutPath := filepath.Join(dir, "cut.wal")
			replayed, stopped := 0, 0
			for cut := 0; cut <= len(data); cut++ {
				if err := os.WriteFile(cutPath, data[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				logs, rep, err := dejavu.Recover(cutPath)
				if err != nil {
					if rep == nil || rep.Frames == 0 {
						continue // nothing salvaged: not the magic, or not the identity header
					}
					t.Fatalf("cut=%d: Recover: %v", cut, err)
				}
				k := int(rep.FinalGC)
				node, out, trace := run(dejavu.Config{Mode: dejavu.Replay, ReplayLogs: logs, StopAtLogEnd: true}, false)
				replayed++

				if !out.prefixOf(recOut) {
					t.Fatalf("cut=%d (prefix %d of %d events): the application's threads saw\n%v\nwhile replaying, and\n%v\nwhile recording",
						cut, k, len(recTrace), out.lines, recOut.lines)
				}
				if k > len(recTrace) || !slices.Equal(trace, recTrace[:k]) {
					t.Fatalf("cut=%d: replay observed events %v, the recorded prefix [0,%d) is %v", cut, trace, k, recTrace)
				}
				switch stops := node.LogEndStops(); {
				case k < len(recTrace) && stops == 0:
					t.Fatalf("cut=%d: truncated replay (prefix %d of %d) reported no log-end stop", cut, k, len(recTrace))
				case k == len(recTrace) && stops != 0:
					t.Fatalf("cut=%d: full replay reported %d log-end stops", cut, stops)
				case stops != 0:
					stopped++
				}
			}
			t.Logf("%d-byte WAL: %d cuts replayed, %d of them to a log-end stop", len(data), replayed, stopped)
			if replayed < len(data)/2 || stopped == 0 {
				t.Errorf("%d of %d cuts replayed, %d of them stopped at a log end: the property was barely exercised",
					replayed, len(data)+1, stopped)
			}
		})
	}
}

// TestTruncatedWALRecoversAndResumes: a WAL compacted with TruncateAt at its
// last checkpoint recovers into a set based at the truncation's anchor, and
// that set replays from the retained checkpoint to the recorded final state.
func TestTruncatedWALRecoversAndResumes(t *testing.T) {
	// rounds runs rounds [from, 3): a checkpoint carrying the round number,
	// then five increments. A resumed run starts just past its checkpoint.
	rounds := func(th *dejavu.Thread, x *dejavu.SharedInt, from int, resumed bool) {
		for r := from; r < 3; r++ {
			if !resumed || r != from {
				dejavu.CheckpointTake(th, func() []byte { return []byte{byte(r)} })
			}
			for i := 0; i < 5; i++ {
				x.Set(th, x.Get(th)+1)
			}
		}
	}
	walPath := filepath.Join(t.TempDir(), "node.wal")
	rec, err := dejavu.NewNode(dejavu.Config{
		ID: 1, Mode: dejavu.Record, Network: dejavu.NewNetwork(dejavu.NetworkConfig{}), Host: "a",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.EnableWAL(walPath, dejavu.WALOptions{SyncEvery: 1}); err != nil {
		t.Fatal(err)
	}
	var recorded dejavu.SharedInt
	rec.Start(func(main *dejavu.Thread) { rounds(main, &recorded, 0, false) })
	rec.Wait()
	st, err := rec.TruncateAt(1)
	if err != nil {
		t.Fatalf("TruncateAt: %v", err)
	}
	if st.BaseGC == 0 {
		t.Fatal("truncation anchored at zero")
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	logs, rep, err := dejavu.Recover(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BaseGC != st.BaseGC {
		t.Fatalf("recovered base %d, truncation stamped %d", rep.BaseGC, st.BaseGC)
	}
	cps, err := dejavu.Checkpoints(logs)
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 1 || len(cps[0].Data) != 1 || cps[0].Data[0] != 2 {
		t.Fatalf("truncation kept %d checkpoints, want only the last round's", len(cps))
	}

	var replayed dejavu.SharedInt
	rep2, err := dejavu.NewNode(dejavu.Config{
		ID: 1, Mode: dejavu.Replay, Network: dejavu.NewNetwork(dejavu.NetworkConfig{}),
		Host: "a", ReplayLogs: logs,
		Resume:       &cps[0].Resume,
		StopAtLogEnd: true,
		StallTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep2.Start(func(main *dejavu.Thread) {
		from := int(cps[0].Data[0])
		replayed.Restore(int64(5 * from))
		rounds(main, &replayed, from, true)
	})
	rep2.Wait()
	rep2.Close()
	if replayed.Load() != recorded.Load() || rep2.LogEndStops() != 0 {
		t.Fatalf("resumed replay reached %d with %d log-end stops, recorded %d",
			replayed.Load(), rep2.LogEndStops(), recorded.Load())
	}
}
