package repro

// Repository-level benchmarks: one per table of the paper's evaluation
// section (§6), plus the ablations called out in DESIGN.md §4.
//
//	go test -bench 'Table1' -benchmem .     # Table 1 (closed world)
//	go test -bench 'Table2' -benchmem .     # Table 2 (open world)
//	go test -bench 'Ablation' -benchmem .   # design-choice ablations
//
// Per-table custom metrics attach the paper's non-timing columns to each
// benchmark line: critical-events/run, nw-events/run, log-B/run. The rec
// ovhd column is the ratio of a Record benchmark's ns/op to the matching
// Baseline benchmark's ns/op; `go run ./cmd/djbench` computes it directly.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/djgram"
	"repro/internal/djsock"
	"repro/internal/ids"
	"repro/internal/kvapp"
	"repro/internal/netsim"
	"repro/internal/rudp"
	"repro/internal/tracelog"
)

var tableThreads = []int{2, 4, 8, 16, 32}

// benchRun drives one bench.Run configuration b.N times and reports the
// table's non-timing columns from the last run.
func benchRun(b *testing.B, fn func() (bench.RunResult, error), component func(bench.RunResult) bench.ComponentStats) {
	b.Helper()
	var last bench.RunResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := fn()
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	cs := component(last)
	b.ReportMetric(float64(cs.CriticalEvents), "critical-events/run")
	b.ReportMetric(float64(cs.NetworkEvents), "nw-events/run")
	b.ReportMetric(float64(cs.LogBytes), "log-B/run")
}

// BenchmarkTable1Closed regenerates Table 1: both components record in the
// closed world; the Server and Client sub-benchmarks report that component's
// columns.
func BenchmarkTable1Closed(b *testing.B) {
	for _, n := range tableThreads {
		p := bench.ClosedParams(n)
		b.Run(fmt.Sprintf("Server/threads=%d", n), func(b *testing.B) {
			benchRun(b, func() (bench.RunResult, error) {
				return bench.RunClosed(p, ids.Record, nil, nil)
			}, func(r bench.RunResult) bench.ComponentStats { return r.Server })
		})
		b.Run(fmt.Sprintf("Client/threads=%d", n), func(b *testing.B) {
			benchRun(b, func() (bench.RunResult, error) {
				return bench.RunClosed(p, ids.Record, nil, nil)
			}, func(r bench.RunResult) bench.ComponentStats { return r.Client })
		})
	}
}

// BenchmarkTable1Baseline is the plain-VM baseline for Table 1's rec ovhd
// column (identical workload, no recording).
func BenchmarkTable1Baseline(b *testing.B) {
	for _, n := range tableThreads {
		p := bench.ClosedParams(n)
		b.Run(fmt.Sprintf("threads=%d", n), func(b *testing.B) {
			benchRun(b, func() (bench.RunResult, error) {
				return bench.RunBaseline(p)
			}, func(r bench.RunResult) bench.ComponentStats { return r.Client })
		})
	}
}

// BenchmarkTable2Open regenerates Table 2: the named component is the sole
// DJVM (open world), its peer a plain VM.
func BenchmarkTable2Open(b *testing.B) {
	for _, n := range tableThreads {
		p := bench.OpenParams(n)
		b.Run(fmt.Sprintf("Server/threads=%d", n), func(b *testing.B) {
			benchRun(b, func() (bench.RunResult, error) {
				return bench.RunOpen(p, true, ids.Record, nil)
			}, func(r bench.RunResult) bench.ComponentStats { return r.Server })
		})
		b.Run(fmt.Sprintf("Client/threads=%d", n), func(b *testing.B) {
			benchRun(b, func() (bench.RunResult, error) {
				return bench.RunOpen(p, false, ids.Record, nil)
			}, func(r bench.RunResult) bench.ComponentStats { return r.Client })
		})
	}
}

// BenchmarkTable2Baseline is the plain-VM baseline for Table 2's rec ovhd
// column.
func BenchmarkTable2Baseline(b *testing.B) {
	for _, n := range tableThreads {
		p := bench.OpenParams(n)
		b.Run(fmt.Sprintf("threads=%d", n), func(b *testing.B) {
			benchRun(b, func() (bench.RunResult, error) {
				return bench.RunBaseline(p)
			}, func(r bench.RunResult) bench.ComponentStats { return r.Client })
		})
	}
}

// BenchmarkReplayClosed measures replay-phase execution of the Table 1
// workload (the paper reports record overheads only; replay cost bounds the
// debugging experience).
func BenchmarkReplayClosed(b *testing.B) {
	for _, n := range []int{2, 8} {
		p := bench.ClosedParams(n)
		rec, err := bench.RunClosed(p, ids.Record, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("threads=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bench.RunClosed(p, ids.Replay, rec.ServerLogs, rec.ClientLogs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKVStore measures record overhead on the realistic distributed
// application (internal/kvapp) — the "verified against real applications"
// follow-up the paper's §6 calls for. Compare the record and passthrough
// lines for the application-level rec ovhd.
func BenchmarkKVStore(b *testing.B) {
	cfg := func(mode ids.Mode) kvapp.Config {
		return kvapp.Config{
			Replicas: 2, Clients: 3, OpsPerClient: 8,
			Mode: mode, Jitter: 5, Seed: 1234, Chaos: kvapp.DefaultChaos(),
		}
	}
	b.Run("passthrough", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := kvapp.Run(cfg(ids.Passthrough)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("record", func(b *testing.B) {
		var logBytes int
		for i := 0; i < b.N; i++ {
			_, logs, err := kvapp.Run(cfg(ids.Record))
			if err != nil {
				b.Fatal(err)
			}
			logBytes = 0
			for _, l := range logs {
				logBytes += l.TotalSize()
			}
		}
		b.ReportMetric(float64(logBytes), "log-B/run")
	})
	b.Run("replay", func(b *testing.B) {
		_, logs, err := kvapp.Run(cfg(ids.Record))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := cfg(ids.Replay)
			c.Logs = logs
			if _, _, err := kvapp.Run(c); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablations (DESIGN.md §4) ---

// BenchmarkAblationCriticalEvent measures the per-critical-event cost of the
// GC-critical section in each mode: the innermost quantity behind every
// "rec ovhd" number. One thread runs the workloads' racy idiom
// x.Set(t, x.Get(t)+1) b.N times — 2·b.N events, one run — on the global
// stream, and in the -sharded arms on the variable's own stream under
// OrderSharded, so the in-place replay path of each has its own number. The
// ns/event metric is the one to compare; ns/op covers two events.
//
//	go test -run '^$' -bench AblationCriticalEvent .
func BenchmarkAblationCriticalEvent(b *testing.B) {
	// loop runs the 2·b.N events on a fresh VM; the timer covers them only.
	loop := func(b *testing.B, cfg core.Config, timed bool) *core.VM {
		vm, err := core.NewVM(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var x core.SharedInt
		x.Register(vm)
		if timed {
			b.ResetTimer()
		}
		vm.Start(func(t *core.Thread) {
			for i := 0; i < b.N; i++ {
				x.Set(t, x.Get(t)+1)
			}
		})
		vm.Wait()
		if timed {
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N), "ns/event")
		}
		vm.Close()
		return vm
	}
	for _, arm := range []struct {
		name  string
		mode  ids.Mode
		order ids.OrderMode
	}{
		{"passthrough", ids.Passthrough, ids.OrderGlobal},
		{"record", ids.Record, ids.OrderGlobal},
		{"replay", ids.Replay, ids.OrderGlobal},
		{"record-sharded", ids.Record, ids.OrderSharded},
		{"replay-sharded", ids.Replay, ids.OrderSharded},
	} {
		b.Run(arm.name, func(b *testing.B) {
			cfg := core.Config{ID: 1, Mode: arm.mode, OrderMode: arm.order}
			if arm.mode == ids.Replay {
				cfg.ReplayLogs = loop(b, core.Config{ID: 1, Mode: ids.Record, OrderMode: arm.order}, false).Logs()
			}
			loop(b, cfg, true)
		})
	}
}

// BenchmarkAblationIntervalCompression quantifies §2.2's central efficiency
// claim: encoding a logical schedule interval as two counter values versus
// logging each critical event individually.
func BenchmarkAblationIntervalCompression(b *testing.B) {
	const eventsPerInterval = 1000
	b.Run("interval-pairs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			l := tracelog.NewLog()
			l.Append(&tracelog.Interval{Thread: 1, First: 0, Last: eventsPerInterval - 1})
			b.ReportMetric(float64(l.Size()), "log-B")
		}
	})
	b.Run("per-event", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			l := tracelog.NewLog()
			for gc := 0; gc < eventsPerInterval; gc++ {
				l.Append(&tracelog.Interval{Thread: 1, First: ids.GCount(gc), Last: ids.GCount(gc)})
			}
			b.ReportMetric(float64(l.Size()), "log-B")
		}
	})
}

// BenchmarkAblationFDLocks measures the Figure 3 FD-critical sections'
// record-phase cost on a workload of disjoint sockets (where they are pure
// overhead — their benefit, replayable same-socket overlap, needs shared
// sockets).
func BenchmarkAblationFDLocks(b *testing.B) {
	run := func(b *testing.B, disable bool) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			net := netsim.NewNetwork(netsim.Config{})
			vmS, _ := core.NewVM(core.Config{ID: 1, Mode: ids.Record})
			vmC, _ := core.NewVM(core.Config{ID: 2, Mode: ids.Record})
			envS := djsock.NewEnv(vmS, net, "s")
			envC := djsock.NewEnv(vmC, net, "c")
			envS.DisableFDLocks = disable
			envC.DisableFDLocks = disable

			const conns, msgs = 4, 64
			ready := make(chan uint16, 1)
			vmS.Start(func(main *core.Thread) {
				ss, err := envS.Listen(main, 0)
				if err != nil {
					b.Error(err)
					return
				}
				ready <- ss.Port()
				for k := 0; k < conns; k++ {
					main.Spawn(func(t *core.Thread) {
						conn, err := ss.Accept(t)
						if err != nil {
							b.Error(err)
							return
						}
						buf := make([]byte, 32)
						for m := 0; m < msgs; m++ {
							if err := conn.ReadFull(t, buf); err != nil {
								b.Error(err)
								return
							}
						}
						conn.Close(t)
					})
				}
			})
			port := <-ready
			vmC.Start(func(main *core.Thread) {
				for k := 0; k < conns; k++ {
					main.Spawn(func(t *core.Thread) {
						conn, err := envC.Connect(t, netsim.Addr{Host: "s", Port: port})
						if err != nil {
							b.Error(err)
							return
						}
						msg := make([]byte, 32)
						for m := 0; m < msgs; m++ {
							if _, err := conn.Write(t, msg); err != nil {
								b.Error(err)
								return
							}
						}
						conn.Close(t)
					})
				}
			})
			vmS.Wait()
			vmC.Wait()
			vmS.Close()
			vmC.Close()
		}
	}
	b.Run("fd-locks-on", func(b *testing.B) { run(b, false) })
	b.Run("fd-locks-off", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationDatagramMeta measures the cost of the §4.2.2 wire
// machinery — DGnetworkEventId piggyback, record logging — against raw
// simulated UDP.
func BenchmarkAblationDatagramMeta(b *testing.B) {
	const burst = 64
	payload := make([]byte, 256)

	b.Run("raw-netsim", func(b *testing.B) {
		net := netsim.NewNetwork(netsim.Config{})
		rx, err := net.DatagramBind("rx", 100)
		if err != nil {
			b.Fatal(err)
		}
		tx, err := net.DatagramBind("tx", 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := 0; k < burst; k++ {
				if err := tx.SendTo(netsim.Addr{Host: "rx", Port: 100}, payload); err != nil {
					b.Fatal(err)
				}
			}
			for k := 0; k < burst; k++ {
				if _, err := rx.Receive(); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	b.Run("djvm-record", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			net := netsim.NewNetwork(netsim.Config{})
			vmR, _ := core.NewVM(core.Config{ID: 1, Mode: ids.Record})
			vmT, _ := core.NewVM(core.Config{ID: 2, Mode: ids.Record})
			b.StartTimer()
			runDatagramBurst(b, vmR, vmT, net, burst, payload)
			b.StopTimer()
			vmR.Close()
			vmT.Close()
			b.StartTimer()
		}
	})
}

func runDatagramBurst(b *testing.B, vmR, vmT *core.VM, net *netsim.Network, burst int, payload []byte) {
	b.Helper()
	envR := djgram.NewEnv(vmR, net, "rx")
	envT := djgram.NewEnv(vmT, net, "tx")
	ready := make(chan netsim.Addr, 1)
	vmR.Start(func(main *core.Thread) {
		sock, err := envR.Bind(main, 100)
		if err != nil {
			b.Error(err)
			return
		}
		ready <- sock.Addr()
		for k := 0; k < burst; k++ {
			if _, _, err := sock.Receive(main); err != nil {
				b.Error(err)
				return
			}
		}
		sock.Close(main)
	})
	dest := <-ready
	vmT.Start(func(main *core.Thread) {
		sock, err := envT.Bind(main, 0)
		if err != nil {
			b.Error(err)
			return
		}
		for k := 0; k < burst; k++ {
			if err := sock.SendTo(main, dest, payload); err != nil {
				b.Error(err)
				return
			}
		}
		sock.Close(main)
	})
	vmR.Wait()
	vmT.Wait()
}

// BenchmarkAblationJitter measures how the record-jitter knob (emulated
// preemptive timeslicing) trades interval length for log size: heavier
// jitter means shorter logical schedule intervals, hence more interval
// records (§2.2's efficiency depends on long intervals).
func BenchmarkAblationJitter(b *testing.B) {
	for _, jitter := range []int{0, 2000, 50, 4} {
		b.Run(fmt.Sprintf("jitter=1-in-%d", jitter), func(b *testing.B) {
			var logBytes int
			for i := 0; i < b.N; i++ {
				vm, err := core.NewVM(core.Config{ID: 1, Mode: ids.Record, RecordJitter: jitter})
				if err != nil {
					b.Fatal(err)
				}
				var x core.SharedInt
				vm.Start(func(main *core.Thread) {
					done := make(chan struct{}, 4)
					for w := 0; w < 4; w++ {
						main.Spawn(func(t *core.Thread) {
							defer func() { done <- struct{}{} }()
							for j := 0; j < 5000; j++ {
								x.Set(t, x.Get(t)+1)
							}
						})
					}
					for w := 0; w < 4; w++ {
						<-done
					}
				})
				vm.Wait()
				vm.Close()
				logBytes = vm.Logs().TotalSize()
			}
			b.ReportMetric(float64(logBytes), "log-B/run")
		})
	}
}

// BenchmarkAblationRudp measures the replay-phase reliable-UDP layer's
// throughput under increasing loss, reporting retransmissions.
func BenchmarkAblationRudp(b *testing.B) {
	for _, loss := range []float64{0, 0.1, 0.3} {
		b.Run(fmt.Sprintf("loss=%.0f%%", loss*100), func(b *testing.B) {
			net := netsim.NewNetwork(netsim.Config{
				Chaos: netsim.Chaos{LossRate: loss, DeliverDelayMax: 50 * time.Microsecond},
				Seed:  1,
			})
			rxSock, err := net.DatagramBind("rx", 100)
			if err != nil {
				b.Fatal(err)
			}
			txSock, err := net.DatagramBind("tx", 0)
			if err != nil {
				b.Fatal(err)
			}
			cfg := rudp.Config{RetransmitInterval: 500 * time.Microsecond}
			rx := rudp.New(rxSock, cfg)
			tx := rudp.New(txSock, cfg)
			defer rx.Close()
			defer tx.Close()
			payload := make([]byte, 128)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tx.SendTo(net, netsim.Addr{Host: "rx", Port: 100}, payload); err != nil {
					b.Fatal(err)
				}
				if _, err := rx.Receive(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := tx.Stats()
			b.ReportMetric(float64(st.Retransmits)/float64(b.N), "retransmits/op")
		})
	}
}
