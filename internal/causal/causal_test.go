package causal

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/ids"
	"repro/internal/kvapp"
	"repro/internal/tracelog"
)

// mkSet builds a minimal closed-world log set for tests.
func mkSet(vm ids.DJVMID, finalGC ids.GCount, threads uint32, build func(s *tracelog.Set)) *tracelog.Set {
	s := tracelog.NewSet()
	if build != nil {
		build(s)
	}
	s.Schedule.Append(&tracelog.VMMeta{VM: vm, World: ids.ClosedWorld, Threads: threads, FinalGC: finalGC})
	return s
}

// TestSyntheticTwoVM pins the construction rules on a hand-made world:
// vm 1 connects (gc 2) and writes 5 bytes (gc 3); vm 2 accepts (gc 1) and
// reads them (gc 4).
func TestSyntheticTwoVM(t *testing.T) {
	conn := ids.ConnectionID{VM: 1, Thread: 0, Event: 0}
	client := mkSet(1, 10, 1, func(s *tracelog.Set) {
		s.Schedule.Append(&tracelog.Interval{Thread: 0, First: 0, Last: 9})
		s.Network.Append(&tracelog.NetSpanEntry{
			EventID: ids.NetworkEventID{Thread: 0, Event: 0}, GC: 2,
			Op: tracelog.NetOpConnect, Conn: conn,
		})
		s.Network.Append(&tracelog.NetSpanEntry{
			EventID: ids.NetworkEventID{Thread: 0, Event: 1}, GC: 3,
			Op: tracelog.NetOpWrite, Conn: conn, Offset: 0, Len: 5,
		})
	})
	server := mkSet(2, 10, 1, func(s *tracelog.Set) {
		s.Schedule.Append(&tracelog.Interval{Thread: 0, First: 0, Last: 9})
		s.Network.Append(&tracelog.ServerSocketEntry{
			ServerID: ids.NetworkEventID{Thread: 0, Event: 0}, ClientID: conn,
		})
		s.Network.Append(&tracelog.NetSpanEntry{
			EventID: ids.NetworkEventID{Thread: 0, Event: 0}, GC: 1,
			Op: tracelog.NetOpAccept, Conn: conn,
		})
		s.Network.Append(&tracelog.NetSpanEntry{
			EventID: ids.NetworkEventID{Thread: 0, Event: 1}, GC: 4,
			Op: tracelog.NetOpRead, Conn: conn, Offset: 0, Len: 5,
		})
	})

	g, err := Build([]*tracelog.Set{client, server})
	if err != nil {
		t.Fatal(err)
	}
	if g.Stats.Messages != 2 {
		t.Errorf("Messages = %d, want 2 (handshake + stream)", g.Stats.Messages)
	}
	if g.Stats.EdgesByKind[EdgeHandshake] != 1 || g.Stats.EdgesByKind[EdgeStream] != 1 {
		t.Errorf("edge kinds = %v, want 1 handshake + 1 stream", g.Stats.EdgesByKind)
	}
	if g.Stats.SplitMisses != 0 {
		t.Errorf("SplitMisses = %d, want 0", g.Stats.SplitMisses)
	}

	// The accept (vm 2, gc 1) must start no earlier than the connect's
	// completion: connect at gc 2 means 3 events precede it on vm 1.
	accept, ok := g.NodeAt(2, 1)
	if !ok {
		t.Fatal("no node covers vm 2 gc 1")
	}
	if g.Nodes[accept].First != 1 {
		t.Errorf("accept segment starts at %d, want 1 (cut at edge target)", g.Nodes[accept].First)
	}
	if g.Start[accept] < 3 {
		t.Errorf("accept starts at logical %d, want >= 3 (after the connect)", g.Start[accept])
	}
	// The read's segment carries vm 1's clock through the write (gc 3 → 4
	// events happened-before).
	read, _ := g.NodeAt(2, 4)
	vi1, _ := g.VMIndex(1)
	if g.VC[read][vi1] < 4 {
		t.Errorf("read VC[vm1] = %d, want >= 4 (write at gc 3 precedes it)", g.VC[read][vi1])
	}

	// WhyDiverged from the end of vm 2 sees vm 1's history.
	causes, err := WhyDiverged(g, 2, 9, 10)
	if err != nil {
		t.Fatal(err)
	}
	saw1 := false
	for _, c := range causes {
		if c.VM == 1 {
			saw1 = true
		}
	}
	if !saw1 {
		t.Error("WhyDiverged(vm 2) reports no vm 1 ancestors")
	}
}

// TestBuildRejectsCycle: mutually-inconsistent logs (each VM claims its
// message arrived before the other sent) must fail loudly, not produce a
// bogus order.
func TestBuildRejectsCycle(t *testing.T) {
	// vm 1 sends a datagram at gc 5 that vm 2 received at gc 1; vm 2 sends
	// at gc 5 one that vm 1 received at gc 1. Both claims cannot hold.
	a := mkSet(1, 10, 1, func(s *tracelog.Set) {
		s.Schedule.Append(&tracelog.Interval{Thread: 0, First: 0, Last: 9})
		s.Datagram.Append(&tracelog.DatagramRecvEntry{
			EventID:    ids.NetworkEventID{Thread: 0, Event: 0},
			ReceiverGC: 1,
			Datagram:   ids.DGNetworkEventID{VM: 2, GC: 5},
		})
	})
	b := mkSet(2, 10, 1, func(s *tracelog.Set) {
		s.Schedule.Append(&tracelog.Interval{Thread: 0, First: 0, Last: 9})
		s.Datagram.Append(&tracelog.DatagramRecvEntry{
			EventID:    ids.NetworkEventID{Thread: 0, Event: 0},
			ReceiverGC: 1,
			Datagram:   ids.DGNetworkEventID{VM: 1, GC: 5},
		})
	})
	if _, err := Build([]*tracelog.Set{a, b}); err == nil {
		t.Fatal("Build accepted mutually-inconsistent log sets")
	}
}

// TestBuildRejectsShardedLogs: a sharded-order log set has no single global
// event order, so causal reconstruction must refuse it with a pointer to the
// fix rather than build a graph missing intra-VM edges.
func TestBuildRejectsShardedLogs(t *testing.T) {
	set := mkSet(1, 0, 2, func(s *tracelog.Set) {
		s.Schedule.Append(&tracelog.OrderModeEntry{Mode: ids.OrderSharded})
		s.Schedule.Append(&tracelog.ObjRun{Obj: 0, Thread: 0, First: 0, Last: 4})
		s.Schedule.Append(&tracelog.ObjRun{Obj: 1, Thread: 1, First: 0, Last: 4})
	})
	_, err := Build([]*tracelog.Set{set})
	if err == nil {
		t.Fatal("Build accepted a sharded-order log set")
	}
	if !strings.Contains(err.Error(), "record with OrderGlobal") {
		t.Errorf("error %q does not tell the user to record with OrderGlobal", err)
	}
}

// recorded kvapp run shared by the property tests (recording is the slow
// part; the analyses are read-only).
var (
	kvOnce sync.Once
	kvLogs kvapp.RunLogs
	kvErr  error
)

func recordedKV(t *testing.T) kvapp.RunLogs {
	t.Helper()
	kvOnce.Do(func() {
		_, kvLogs, kvErr = kvapp.Run(kvapp.Config{
			Replicas: 1, Clients: 2, OpsPerClient: 5,
			Mode: ids.Record, Seed: 42, Chaos: kvapp.DefaultChaos(),
			CausalTrace: true,
		})
	})
	if kvErr != nil {
		t.Fatalf("kvapp record: %v", kvErr)
	}
	return kvLogs
}

// TestKVAppGraphProperties is the acceptance property test: on a real
// recorded multi-VM run the reconstructed graph is acyclic, totally orders
// each VM's critical events by global counter, keeps vector clocks
// edge-consistent, and correlates every recorded cross-VM message.
func TestKVAppGraphProperties(t *testing.T) {
	logs := recordedKV(t)
	g, err := Build(logs)
	if err != nil {
		t.Fatal(err)
	}

	// Acyclic: the topological order covers every node.
	if len(g.Order) != len(g.Nodes) {
		t.Fatalf("topological order covers %d/%d nodes", len(g.Order), len(g.Nodes))
	}
	if g.Stats.SplitMisses != 0 {
		t.Errorf("SplitMisses = %d, want 0", g.Stats.SplitMisses)
	}

	// Per-VM total order by global counter: each VM's segments tile
	// [0, FinalGC) exactly, and logical start times strictly advance along
	// the counter order.
	pos := make(map[NodeID]int, len(g.Order))
	for i, id := range g.Order {
		pos[id] = i
	}
	for vi, vm := range g.VMs {
		var prev NodeID = -1
		next := ids.GCount(0)
		for gc := ids.GCount(0); gc < vm.FinalGC; {
			id, ok := g.NodeAt(vm.ID, gc)
			if !ok {
				t.Fatalf("vm %d: no node covers counter %d", vm.ID, gc)
			}
			n := g.Nodes[id]
			if n.First != next {
				t.Fatalf("vm %d: segment starts at %d, want %d (gap or overlap)", vm.ID, n.First, next)
			}
			if prev >= 0 {
				if pos[prev] >= pos[id] {
					t.Fatalf("vm %d: counter order not respected by topological order at gc %d", vm.ID, gc)
				}
				if g.Start[id] < g.Start[prev]+g.Nodes[prev].Events() {
					t.Fatalf("vm %d: logical times overlap at gc %d", vm.ID, gc)
				}
			}
			prev, next = id, n.Last+1
			gc = n.Last + 1
		}
		if next != vm.FinalGC {
			t.Fatalf("vm %d: segments cover up to %d, want %d", vm.ID, next, vm.FinalGC)
		}
		_ = vi
	}

	// Vector clocks are edge-consistent and each node owns its own entries.
	for _, e := range g.Edges {
		from, to := g.VC[e.From], g.VC[e.To]
		for i := range from {
			if from[i] > to[i] {
				t.Fatalf("edge %v: VC[from][%d]=%d > VC[to][%d]=%d", e.Kind, i, from[i], i, to[i])
			}
		}
		fvi, _ := g.VMIndex(g.Nodes[e.From].VM)
		if to[fvi] < uint64(e.FromGC)+1 {
			t.Fatalf("edge %v: target VC misses source event %d", e.Kind, e.FromGC)
		}
	}

	// Every recorded cross-VM message is correlated: handshakes and datagram
	// deliveries are counted straight off the logs; stream matches are
	// verified by an independent overlap count below.
	var wantHandshakes, wantDatagrams int
	for _, set := range logs {
		x, err := tracelog.IndexSet(set)
		if err != nil {
			t.Fatal(err)
		}
		wantHandshakes += x.Network.ServerSockets.Len()
		wantDatagrams += x.Datagram.ByEvent.Len()
	}
	if g.Stats.UnmatchedHandshakes != 0 {
		t.Errorf("UnmatchedHandshakes = %d, want 0 (tracing was on everywhere)", g.Stats.UnmatchedHandshakes)
	}
	if g.Stats.DanglingDatagrams != 0 {
		t.Errorf("DanglingDatagrams = %d, want 0 (closed world)", g.Stats.DanglingDatagrams)
	}
	if got := g.Stats.EdgesByKind[EdgeHandshake]; got != wantHandshakes {
		t.Errorf("handshake edges = %d, recorded accepts = %d", got, wantHandshakes)
	}
	if got := g.Stats.EdgesByKind[EdgeDatagram]; got != wantDatagrams {
		t.Errorf("datagram edges = %d, recorded deliveries = %d", got, wantDatagrams)
	}
	if got, want := g.Stats.EdgesByKind[EdgeStream], independentStreamMatches(t, logs); got != want {
		t.Errorf("stream edges = %d, independently counted matched writes = %d", got, want)
	}
	if wantHandshakes == 0 || g.Stats.EdgesByKind[EdgeStream] == 0 || wantDatagrams == 0 {
		t.Errorf("degenerate run: handshakes=%d streams=%d datagrams=%d — want all nonzero",
			wantHandshakes, g.Stats.EdgesByKind[EdgeStream], wantDatagrams)
	}
}

// independentStreamMatches recounts, straight off the raw logs and with none
// of the builder's machinery, how many write spans have at least one
// overlapping peer read span.
func independentStreamMatches(t *testing.T, logs kvapp.RunLogs) int {
	t.Helper()
	type span struct {
		vm      ids.DJVMID
		lo, hi  uint64
		conn    ids.ConnectionID
		isWrite bool
	}
	var spans []span
	for _, set := range logs {
		x, err := tracelog.IndexSet(set)
		if err != nil {
			t.Fatal(err)
		}
		for _, ns := range x.Network.NetSpans.All() {
			if ns.Op != tracelog.NetOpRead && ns.Op != tracelog.NetOpWrite {
				continue
			}
			spans = append(spans, span{
				vm: x.VM(), lo: ns.Offset, hi: ns.Offset + uint64(ns.Len),
				conn: ns.Conn, isWrite: ns.Op == tracelog.NetOpWrite,
			})
		}
	}
	matched := 0
	for _, w := range spans {
		if !w.isWrite {
			continue
		}
		for _, r := range spans {
			if !r.isWrite && r.conn == w.conn && r.vm != w.vm && r.lo < w.hi && r.hi > w.lo {
				matched++
				break
			}
		}
	}
	return matched
}

// TestKVAppCriticalPath sanity-checks the stall attribution on the recorded
// run: the path is at least as long as any single VM's schedule and never
// longer than the whole world's event count, and wall attribution is
// available because the run sampled timestamps.
func TestKVAppCriticalPath(t *testing.T) {
	logs := recordedKV(t)
	g, err := Build(logs)
	if err != nil {
		t.Fatal(err)
	}
	rep := CriticalPath(g)
	var maxFinal, sum uint64
	for _, vm := range g.VMs {
		sum += uint64(vm.FinalGC)
		if uint64(vm.FinalGC) > maxFinal {
			maxFinal = uint64(vm.FinalGC)
		}
	}
	if rep.TotalEvents < maxFinal || rep.TotalEvents > sum {
		t.Errorf("critical path = %d events, want within [%d,%d]", rep.TotalEvents, maxFinal, sum)
	}
	if len(rep.Path) == 0 {
		t.Error("empty critical path")
	}
	if !rep.HasWall {
		t.Fatal("run recorded timestamps but HasWall is false")
	}
	if rep.WallNanos <= 0 {
		t.Errorf("WallNanos = %d, want > 0", rep.WallNanos)
	}
	var pathEvents uint64
	for _, s := range rep.Path {
		pathEvents += uint64(s.Last-s.First) + 1
	}
	if pathEvents != rep.TotalEvents {
		t.Errorf("path steps sum to %d events, TotalEvents = %d", pathEvents, rep.TotalEvents)
	}
}

// TestBuildIsDeterministic builds the recorded kvapp world twenty times, its
// log sets shuffled each time: the Perfetto export, the full divergence
// history of one event and the critical-path report come out byte for byte
// the same every time.
func TestBuildIsDeterministic(t *testing.T) {
	logs := recordedKV(t)
	rng := rand.New(rand.NewPCG(1, 2))
	var want []byte
	for i := range 20 {
		sets := slices.Clone(logs)
		rng.Shuffle(len(sets), func(a, b int) { sets[a], sets[b] = sets[b], sets[a] })
		g, err := Build(sets)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if _, err := WritePerfetto(&out, g); err != nil {
			t.Fatal(err)
		}
		causes, err := WhyDiverged(g, 1, 20, 0)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "%+v\n", causes)
		CriticalPath(g).WriteReport(&out)
		if i == 0 {
			want = out.Bytes()
		} else if !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("build %d wrote other bytes than build 0", i)
		}
	}
}
